//===- perfbench/src/main.cpp - The layered benchmark entry point ---------===//
//
// lifebench --workload <paper-pipeline|replay-sweep|realheap-replay>
//           --seed <n> --seconds <s> --trace <0|1> [--scale <x>]
//           [--expected-cells <file>] [--write-cells <file>]
//
// Single process, single thread, closed loop.  The set-up runs three
// times (setup_s is the median; the first repetition is timed from
// process start).  Passes then run back to back for about --seconds (no
// pass starts that would end past it), at least three of them.  Each
// round of passes is pinned to the next CPU the process may use, in
// turn: on a shared host one CPU can run 10-15% slower than another for
// minutes, and without rotation the CPU the scheduler happened to pick
// would decide the whole run.  With --trace 0 the result line carries
// the end-to-end metrics of untraced passes.  With --trace 1 untraced
// and traced passes alternate: the traced ones record layer spans and
// per-call histograms, and the result line carries the per-layer
// metrics, each layer's self time and the tracing overhead.
//
//===----------------------------------------------------------------------===//

#include "Metrics.h"
#include "Workload.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <set>
#include <string>

#include <sched.h>

using namespace perfbench;

namespace {

constexpr unsigned SetupReps = 3;
constexpr unsigned MinPasses = 3;

/// Read before main() runs, so the first set-up is timed from process
/// start.
const double ProcessStart = nowSeconds();

[[noreturn]] void usage(const std::string &Message) {
  std::fprintf(stderr, "lifebench: %s\n", Message.c_str());
  std::exit(2);
}

Options parseOptions(int Argc, char **Argv) {
  Options Opts;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I], Value;
    size_t Eq = Arg.find('=');
    if (Eq != std::string::npos) {
      Value = Arg.substr(Eq + 1);
      Arg.resize(Eq);
    } else if (I + 1 < Argc) {
      Value = Argv[++I];
    } else {
      usage("missing value for " + Arg);
    }
    char *End = nullptr;
    auto Number = [&](double Min, double Max) {
      double V = std::strtod(Value.c_str(), &End);
      if (Value.empty() || *End != '\0' || !(V >= Min && V <= Max))
        usage("bad value for " + Arg + ": " + Value);
      return V;
    };
    if (Arg == "--workload") {
      Opts.Workload = Value;
    } else if (Arg == "--seed") {
      Opts.Seed = std::strtoull(Value.c_str(), &End, 10);
      if (Value.empty() || *End != '\0')
        usage("bad seed: " + Value);
      HaveSeed = true;
    } else if (Arg == "--seconds") {
      Opts.Seconds = Number(0.0, 3600.0);
      HaveSeconds = true;
    } else if (Arg == "--trace") {
      Opts.Trace = Number(0, 1) != 0.0;
      HaveTrace = true;
    } else if (Arg == "--scale") {
      Opts.Scale = Number(0.001, 4.0);
    } else if (Arg == "--expected-cells") {
      Opts.ExpectedCellsPath = Value;
    } else if (Arg == "--write-cells") {
      Opts.WriteCellsPath = Value;
    } else {
      usage("unknown option " + Arg);
    }
  }
  if (Opts.Workload.empty() || !HaveSeed || !HaveSeconds || !HaveTrace)
    usage("--workload, --seed, --seconds and --trace are required");
  return Opts;
}

/// Process high-water mark (VmHWM) in MB of 10^6 bytes; 0 if unreadable.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) * 1024.0 / 1e6;
  return 0.0;
}

/// Key-wise median of \p Samples; a key missing from a sample counts as 0.
LayerValues medianValues(const std::vector<LayerValues> &Samples) {
  std::set<std::string> Keys;
  for (const LayerValues &S : Samples)
    for (const auto &[Key, Value] : S)
      Keys.insert(Key);
  LayerValues Out;
  for (const std::string &Key : Keys) {
    std::vector<double> Values;
    for (const LayerValues &S : Samples) {
      auto It = S.find(Key);
      Values.push_back(It == S.end() ? 0.0 : It->second);
    }
    Out[Key] = median(Values);
  }
  return Out;
}

/// Pins the calling thread to each CPU of its starting affinity mask in
/// turn, and restores that mask when destroyed.
class CpuRotation {
public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(Original), &Original) != 0)
      return;
    for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Original))
        Cpus.push_back(Cpu);
  }
  ~CpuRotation() {
    if (!Cpus.empty())
      sched_setaffinity(0, sizeof(Original), &Original);
  }

  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  /// Moves the thread to the next CPU.  A failure leaves it where it is,
  /// which costs steadiness but not correctness.
  void next() {
    if (Cpus.empty())
      return;
    cpu_set_t Set;
    CPU_ZERO(&Set);
    CPU_SET(Cpus[Turn++ % Cpus.size()], &Set);
    sched_setaffinity(0, sizeof(Set), &Set);
  }

private:
  cpu_set_t Original;
  std::vector<int> Cpus;
  size_t Turn = 0;
};

std::unique_ptr<Workload> makeWorkload(const Options &Opts, Tracer &T) {
  if (Opts.Workload == "paper-pipeline")
    return makePaperPipeline(Opts, T);
  if (Opts.Workload == "replay-sweep")
    return makeReplaySweep(Opts, T);
  if (Opts.Workload == "realheap-replay")
    return makeRealHeapReplay(Opts, T);
  usage("unknown workload " + Opts.Workload);
}

int run(const Options &Opts) {
  Tracer T(Opts.Trace);
  std::unique_ptr<Workload> W = makeWorkload(Opts, T);
  std::printf("lifebench %s seed=%llu scale=%g seconds=%g trace=%d\n",
              Opts.Workload.c_str(), static_cast<unsigned long long>(Opts.Seed),
              Opts.Scale, Opts.Seconds, Opts.Trace ? 1 : 0);

  std::vector<double> SetupTimes;
  std::vector<LayerValues> SetupLayers;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    double Start = Rep == 0 ? ProcessStart : nowSeconds();
    LayerValues L;
    {
      Tracer::Scope S(T, "bench.setup", "bench");
      W->setup(L);
    }
    SetupTimes.push_back(nowSeconds() - Start);
    SetupLayers.push_back(std::move(L));
    std::printf("setup %u: %.4f s\n", Rep, SetupTimes.back());
    std::fflush(stdout);
  }

  std::vector<std::string> Names = W->programNames();
  std::vector<double> PassTimes, ArenaTimes, GeneralTimes, TracedTimes;
  std::vector<LayerValues> PassLayers;
  std::vector<std::map<std::string, double>> SelfTimes;
  double LoopStart = nowSeconds();
  CpuRotation Rotation;
  while (true) {
    Rotation.next();
    for (bool Traced : {false, true}) {
      if (Traced && !Opts.Trace)
        continue;
      T.setEnabled(Traced);
      size_t Mark = T.mark();
      LayerValues L;
      double Start = nowSeconds();
      std::vector<double> Programs;
      {
        Tracer::Scope S(T, "bench.pass", "bench");
        Programs = W->runPass(L);
      }
      double Seconds = nowSeconds() - Start;
      double Arena = 0.0, General = 0.0;
      for (size_t I = 0; I < Programs.size(); ++I)
        (isArenaProgram(Names[I]) ? Arena : General) += Programs[I];
      if (Traced) {
        TracedTimes.push_back(Seconds);
        PassLayers.push_back(std::move(L));
        SelfTimes.push_back(T.selfSeconds(Mark));
      } else {
        PassTimes.push_back(Seconds);
        ArenaTimes.push_back(Arena);
        GeneralTimes.push_back(General);
      }
      std::printf("pass %zu%s: %.4f s (arena programs %.4f s, general "
                  "programs %.4f s; per program",
                  Traced ? TracedTimes.size() : PassTimes.size(),
                  Traced ? " traced" : "", Seconds, Arena, General);
      for (double P : Programs)
        std::printf(" %.4f", P);
      std::printf(")\n");
      std::fflush(stdout);
    }
    // Stop before a round that would end past --seconds, so a run
    // measures for about --seconds whatever the pass length.
    double Round = median(PassTimes) + median(TracedTimes);
    if (PassTimes.size() >= (Opts.Trace ? 2 : MinPasses) &&
        nowSeconds() - LoopStart + Round > Opts.Seconds)
      break;
  }
  T.setEnabled(Opts.Trace);
  W->finish();

  MetricSet Metrics;
  if (!Opts.Trace) {
    Metrics.add("setup_s", median(SetupTimes), "s");
    Metrics.add("pass_s", median(PassTimes), "s");
    Metrics.add("peak_rss_mb", peakRssMb(), "MB");
    Metrics.add("paper_err_pct", W->paperErrorPercent(), "%");
    Metrics.add("arena_programs_s", median(ArenaTimes), "s");
    Metrics.add("general_programs_s", median(GeneralTimes), "s");
  } else {
    LayerValues Extras;
    W->traceExtras(Extras);
    LayerValues Layers = medianValues(SetupLayers);
    for (const auto &[Key, Value] : medianValues(PassLayers))
      Layers[Key] = Value;
    for (const auto &[Key, Value] : Extras)
      Layers[Key] = Value;
    finalizeRates(Layers);
    for (const std::string &Layer : tracedLayers()) {
      std::vector<double> Self;
      for (const auto &PassSelf : SelfTimes) {
        auto It = PassSelf.find(Layer);
        Self.push_back(It == PassSelf.end() ? 0.0 : It->second);
      }
      Layers[Layer + ".self_s"] = median(Self);
    }
    Layers["bench.trace_overhead_s"] = median(TracedTimes) - median(PassTimes);
    for (const LayerMetricSpec &Spec : layerMetricSpecs()) {
      auto It = Layers.find(Spec.Name);
      Metrics.add(Spec.Name, It == Layers.end() ? 0.0 : It->second, Spec.Unit);
    }
  }

  const Checks &C = W->checks();
  for (const std::string &Error : C.Errors)
    std::fprintf(stderr, "check failed: %s\n", Error.c_str());
  std::printf("passes: %zu untraced, %zu traced; operations attempted %llu, "
              "failed %llu\n",
              PassTimes.size(), TracedTimes.size(),
              static_cast<unsigned long long>(C.Attempted),
              static_cast<unsigned long long>(C.Failed));
  for (const Metric &M : Metrics.metrics())
    std::printf("metric %s = %.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::printf("%s\n", resultJson(C.Failed == 0 && C.Attempted > 0,
                                 C.Attempted, C.Failed, Metrics)
                          .c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts = parseOptions(Argc, Argv);
  try {
    return run(Opts);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "lifebench: %s\n", E.what());
    return 1;
  }
}
