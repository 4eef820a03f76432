//===- perfbench/src/PaperCells.cpp - Paper-table cells -------------------===//

#include "PaperCells.h"

#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>

using namespace perfbench;

double perfbench::paperErrorPercent(const std::vector<Cell> &Cells) {
  if (Cells.empty())
    return 0.0;
  double Sum = 0.0;
  for (const Cell &C : Cells)
    Sum += std::fabs(C.Ours - C.Paper) / C.Paper;
  return 100.0 * Sum / static_cast<double>(Cells.size());
}

void perfbench::writeCells(std::ostream &Out, const std::string &Header,
                           const std::vector<Cell> &Cells) {
  Out << "# " << Header << "\n";
  char Buffer[64];
  for (const Cell &C : Cells) {
    std::snprintf(Buffer, sizeof(Buffer), "%.17g", C.Ours);
    Out << C.Name << " " << Buffer << "\n";
  }
}

bool perfbench::readCells(std::istream &In,
                          std::vector<std::pair<std::string, double>> &Cells,
                          std::string &Error) {
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string Name, Value, Extra;
    if (!(Fields >> Name >> Value) || (Fields >> Extra)) {
      Error = "line " + std::to_string(LineNo) + ": expected '<name> <value>'";
      return false;
    }
    char *End = nullptr;
    double Parsed = std::strtod(Value.c_str(), &End);
    if (End != Value.c_str() + Value.size() || !std::isfinite(Parsed)) {
      Error = "line " + std::to_string(LineNo) + ": bad value '" + Value + "'";
      return false;
    }
    Cells.emplace_back(Name, Parsed);
  }
  return true;
}

std::vector<std::pair<std::string, double>>
perfbench::cellValues(const std::vector<Cell> &Cells) {
  std::vector<std::pair<std::string, double>> Values;
  for (const Cell &C : Cells)
    Values.emplace_back(C.Name, C.Ours);
  return Values;
}

std::string perfbench::diffCells(
    const std::vector<Cell> &Cells,
    const std::vector<std::pair<std::string, double>> &Expected) {
  if (Cells.size() != Expected.size())
    return "expected " + std::to_string(Expected.size()) + " cells, got " +
           std::to_string(Cells.size());
  for (size_t I = 0; I < Cells.size(); ++I) {
    if (Cells[I].Name != Expected[I].first)
      return "cell " + std::to_string(I) + " is " + Cells[I].Name +
             ", expected " + Expected[I].first;
    if (Cells[I].Ours != Expected[I].second) {
      char Buffer[128];
      std::snprintf(Buffer, sizeof(Buffer), " = %.17g, expected %.17g",
                    Cells[I].Ours, Expected[I].second);
      return Cells[I].Name + Buffer;
    }
  }
  return "";
}
