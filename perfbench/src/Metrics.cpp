//===- perfbench/src/Metrics.cpp - Named metrics with units ---------------===//

#include "Metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

using namespace perfbench;

namespace {

bool isAlnum(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) != 0;
}

std::string formatNumber(double Value) {
  if (!std::isfinite(Value))
    throw std::logic_error("non-finite metric value");
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.17g", Value);
  return Buffer;
}

} // namespace

bool perfbench::validMetricName(std::string_view Name) {
  if (Name.empty() || Name.size() > 64 || !isAlnum(Name.front()))
    return false;
  return std::all_of(Name.begin(), Name.end(), [](char C) {
    return isAlnum(C) || C == '_' || C == '.' || C == '-';
  });
}

bool perfbench::validUnit(std::string_view Unit) {
  if (Unit.empty() || Unit.size() > 16)
    return false;
  return std::all_of(Unit.begin(), Unit.end(), [](char C) {
    return isAlnum(C) || C == '_' || C == '/' || C == '%' || C == '.' ||
           C == '-';
  });
}

void MetricSet::add(const std::string &Name, double Value,
                    const std::string &Unit) {
  if (!validMetricName(Name))
    throw std::logic_error("bad metric name: " + Name);
  if (!validUnit(Unit))
    throw std::logic_error("bad unit for " + Name + ": " + Unit);
  if (find(Name))
    throw std::logic_error("duplicate metric: " + Name);
  Items.push_back({Name, Unit, Value});
}

const Metric *MetricSet::find(std::string_view Name) const {
  for (const Metric &M : Items)
    if (M.Name == Name)
      return &M;
  return nullptr;
}

void MetricSet::appendJson(std::string &Out) const {
  bool First = true;
  for (const Metric &M : Items) {
    if (!First)
      Out += ", ";
    First = false;
    Out += "\"" + M.Name + "\": {\"value\": " + formatNumber(M.Value) +
           ", \"unit\": \"" + M.Unit + "\"}";
  }
}

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t Mid = Values.size() / 2;
  if (Values.size() % 2)
    return Values[Mid];
  return 0.5 * (Values[Mid - 1] + Values[Mid]);
}

std::string perfbench::resultJson(bool Correct, uint64_t Attempted,
                                  uint64_t Failed, const MetricSet &Metrics) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  Metrics.appendJson(Out);
  Out += "}}";
  return Out;
}
