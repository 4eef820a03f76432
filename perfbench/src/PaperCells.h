//===- perfbench/src/PaperCells.h - Paper-table cells ------------*- C++ -*-===//
//
// A cell is one number of the paper's Tables 7-9 as this reproduction
// computes it, beside the paper's published value.  paper_err_pct is the
// mean relative error over a set of cells; the expected-cells file pins
// the cells the default seed must reproduce exactly.
//
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_PERFBENCH_PAPERCELLS_H
#define LIFEPRED_PERFBENCH_PAPERCELLS_H

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Cell {
  std::string Name; ///< "<PROGRAM>.<table>.<column>", no whitespace.
  double Ours = 0.0;
  double Paper = 0.0; ///< Nonzero for every cell of Tables 7-9.
};

/// Mean over \p Cells of |Ours - Paper| / Paper, in percent.  0 when
/// \p Cells is empty.
double paperErrorPercent(const std::vector<Cell> &Cells);

/// Writes one "<name> <ours>" line per cell, at full precision, after a
/// '#' comment line \p Header.
void writeCells(std::ostream &Out, const std::string &Header,
                const std::vector<Cell> &Cells);

/// Reads a file written by writeCells: (name, value) pairs in file order.
/// Returns false and sets \p Error on a malformed line.
bool readCells(std::istream &In,
               std::vector<std::pair<std::string, double>> &Cells,
               std::string &Error);

/// The (name, ours) pairs of \p Cells, as readCells returns them.
std::vector<std::pair<std::string, double>>
cellValues(const std::vector<Cell> &Cells);

/// Describes the first difference between \p Cells and \p Expected
/// (names, order and exact values); empty when they agree.
std::string diffCells(const std::vector<Cell> &Cells,
                      const std::vector<std::pair<std::string, double>> &Expected);

} // namespace perfbench

#endif // LIFEPRED_PERFBENCH_PAPERCELLS_H
