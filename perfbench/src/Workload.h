//===- perfbench/src/Workload.h - Benchmark workloads ------------*- C++ -*-===//
//
// A workload builds its inputs in setup() and then runs closed-loop passes:
// one client, each pass runs to completion before the next starts.  The
// library receives only the traces runWorkload generates from the seed.
//
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_PERFBENCH_WORKLOAD_H
#define LIFEPRED_PERFBENCH_WORKLOAD_H

#include "PaperCells.h"
#include "Tracer.h"

#include "callchain/FunctionRegistry.h"
#include "trace/AllocationTrace.h"
#include "workloads/ProgramModel.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace lifepred {
class CompiledTrace;
class EventSchedule;
struct ArenaSimResult;
struct BaselineSimResult;
} // namespace lifepred

namespace perfbench {

/// The seed and scale whose Table 7-9 cells are pinned in
/// expected_cells.txt.
inline constexpr uint64_t DefaultSeed = 1;
inline constexpr double DefaultScale = 0.3;

struct Options {
  std::string Workload;
  uint64_t Seed = DefaultSeed;
  double Scale = DefaultScale;
  double Seconds = 10.0;
  bool Trace = false;
  /// Compared at DefaultSeed and DefaultScale when set.
  std::string ExpectedCellsPath;
  std::string WriteCellsPath;    ///< Writes the cells here when set.
};

/// Operations attempted and failed, with the first few failure messages.
struct Checks {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;

  /// Counts \p N operations attempted.
  void attempt(uint64_t N = 1) { Attempted += N; }

  /// Counts \p N failed operations of one kind.
  void fail(const std::string &What, uint64_t N = 1) {
    if (N == 0)
      return;
    Failed += N;
    if (Errors.size() < 20)
      Errors.push_back(N == 1 ? What : What + " (x" + std::to_string(N) + ")");
  }

  /// One operation whose output check is \p Ok.
  void check(bool Ok, const std::string &What) {
    attempt();
    if (!Ok)
      fail(What);
  }
};

/// Layer values from one traced pass or one set-up, keyed by per-layer
/// metric name.  Values add, so a workload can accumulate per program.
using LayerValues = std::map<std::string, double>;

/// One program's generated train and test traces.
struct ProgramInputs {
  lifepred::ProgramModel Model;
  lifepred::FunctionRegistry Registry;
  lifepred::AllocationTrace Train;
  lifepred::AllocationTrace Test;
};

/// Times a stage into Layers[Key] and records a span around it.
class StageTimer {
public:
  StageTimer(Tracer &T, LayerValues &Layers, std::string Key,
             const char *Span, const char *Layer)
      : S(T, Span, Layer), Layers(Layers), Key(std::move(Key)),
        Start(nowSeconds()) {}
  ~StageTimer() { Layers[Key] += nowSeconds() - Start; }

  StageTimer(const StageTimer &) = delete;
  StageTimer &operator=(const StageTimer &) = delete;

private:
  Tracer::Scope S;
  LayerValues &Layers;
  std::string Key;
  double Start;
};

/// The Table 7, 8 and 9 cells of one program: Table 7 from the true-
/// database arena replay, Table 8 from first fit and both arena replays
/// (\p Self may be null, dropping its cell), Table 9 from BSD, first fit
/// and the true-database arena replay.
std::vector<Cell> tableCells(const std::string &Program,
                             const lifepred::BaselineSimResult &FirstFit,
                             const lifepred::BaselineSimResult &Bsd,
                             const lifepred::ArenaSimResult *Self,
                             const lifepred::ArenaSimResult &True);

/// Adds \p Test's event count and schedule footprint to the trace layer.
void addCompileStats(const lifepred::CompiledTrace &Test, LayerValues &Layers);

/// Adds the first-fit search and arena counters of one program's replays
/// to the alloc layer.
void addAllocCounters(const lifepred::BaselineSimResult &FirstFit,
                      const lifepred::ArenaSimResult &Arena,
                      LayerValues &Layers);

/// Derives the rate and ratio metrics (events per second, overhead and
/// hit ratios) from the summed times and counts in \p Layers.
void finalizeRates(LayerValues &Layers);

/// The in-process reference pass: a null consumer walks \p Schedule, so
/// replay rates can be read as ratios to it.  Adds its time and event
/// count to \p Layers.
void nullPass(const lifepred::EventSchedule &Schedule, Tracer &T,
              LayerValues &Layers);

/// GAWK and GHOST put most objects in the arena; the other three are
/// dominated by the general heap.  Pass time is split on this line.
bool isArenaProgram(const std::string &Name);

/// Generates the train and test traces of all five programs, timing each
/// runWorkload call into \p Layers.
std::vector<std::unique_ptr<ProgramInputs>>
generateInputs(const Options &Opts, Tracer &T, LayerValues &Layers);

class Workload {
public:
  Workload(const Options &Opts, Tracer &T) : Opts(Opts), T(T) {}
  virtual ~Workload() = default;

  /// Drops the previous inputs and builds new ones.  Layer values timed
  /// here go to \p Layers.
  virtual void setup(LayerValues &Layers) = 0;

  /// Runs one pass; returns the seconds spent on each program, in
  /// programNames() order.  Layer values go to \p Layers.
  virtual std::vector<double> runPass(LayerValues &Layers) = 0;

  /// Work the traced run measures once, outside the passes (reference
  /// passes, per-program deltas).
  virtual void traceExtras(LayerValues &Layers) { (void)Layers; }

  /// Checks that look at the whole run; called once after the passes.
  virtual void finish() {}

  /// Mean relative error of the Table 7-9 cells this workload produces
  /// against the paper, in percent.
  virtual double paperErrorPercent() const {
    return perfbench::paperErrorPercent(FirstCells);
  }

  /// Program names in pass order.
  std::vector<std::string> programNames() const;

  Checks &checks() { return C; }

protected:
  /// Keeps the first pass's cells; every later pass must repeat them
  /// exactly.
  void checkCells(const std::vector<Cell> &Cells);

  const Options &Opts;
  Tracer &T;
  Checks C;
  std::vector<std::unique_ptr<ProgramInputs>> Inputs;
  std::vector<Cell> FirstCells;
};

std::unique_ptr<Workload> makePaperPipeline(const Options &Opts, Tracer &T);
std::unique_ptr<Workload> makeReplaySweep(const Options &Opts, Tracer &T);
std::unique_ptr<Workload> makeRealHeapReplay(const Options &Opts, Tracer &T);

/// The per-layer metrics every traced run reports, in output order.
struct LayerMetricSpec {
  std::string Name;
  std::string Unit;
};
const std::vector<LayerMetricSpec> &layerMetricSpecs();

/// Layers whose self time the traced run reports as "<layer>.self_s".
const std::vector<std::string> &tracedLayers();

/// The replay families of the sim and telemetry layers.
const std::vector<std::string> &replayFamilies();

} // namespace perfbench

#endif // LIFEPRED_PERFBENCH_WORKLOAD_H
