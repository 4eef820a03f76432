//===- perfbench/src/Metrics.h - Named metrics with units --------*- C++ -*-===//
//
// The benchmark's output vocabulary: every metric has a name, a unit and a
// value, and the final result line is one JSON object.  The name and unit
// grammar is the one BENCHMARK.json declares, so a misspelt metric is
// caught before it reaches the result line.
//
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_PERFBENCH_METRICS_H
#define LIFEPRED_PERFBENCH_METRICS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A metric name: starts with a letter or digit, at most 64 characters
/// from [A-Za-z0-9_.-].
bool validMetricName(std::string_view Name);

/// A unit: 1 to 16 characters from [A-Za-z0-9_/%.-].
bool validUnit(std::string_view Unit);

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0.0;
};

/// An ordered set of metrics.  Adding a name twice, or a name or unit
/// outside the grammar, is a benchmark bug and throws.
class MetricSet {
public:
  void add(const std::string &Name, double Value, const std::string &Unit);

  const std::vector<Metric> &metrics() const { return Items; }
  const Metric *find(std::string_view Name) const;

  /// Appends `"name": {"value": v, "unit": "u"}, ...` (no braces).
  void appendJson(std::string &Out) const;

private:
  std::vector<Metric> Items;
};

/// Median of \p Values (mean of the middle pair for an even count); 0 when
/// empty.
double median(std::vector<double> Values);

/// The result line: {"correct": .., "attempted": .., "failed": ..,
/// "metrics": {..}}.
std::string resultJson(bool Correct, uint64_t Attempted, uint64_t Failed,
                       const MetricSet &Metrics);

} // namespace perfbench

#endif // LIFEPRED_PERFBENCH_METRICS_H
