//===- perfbench/src/Workload.cpp - Shared workload pieces ----------------===//

#include "Workload.h"

#include "sim/TraceSimulator.h"
#include "workloads/PaperData.h"
#include "workloads/Programs.h"
#include "workloads/WorkloadRunner.h"

using namespace lifepred;
using namespace perfbench;

namespace {

/// Keeps the null pass's checksum live so the pass is not optimised away.
volatile uint64_t NullSink = 0;

} // namespace

void perfbench::nullPass(const EventSchedule &Schedule, Tracer &T,
                         LayerValues &Layers) {
  struct NullConsumer : ScheduleConsumer<NullConsumer> {
    uint64_t Sum = 0;
    void onAlloc(uint32_t Id, uint64_t Clock) { Sum += Id ^ Clock; }
    void onFree(uint32_t Id, uint64_t Clock) { Sum += Id + Clock; }
  };
  NullConsumer Null;
  double Start = nowSeconds();
  {
    Tracer::Scope S(T, "bench.null_pass", "bench");
    forEachEvent(Schedule, Null);
  }
  Layers["_null.s"] += nowSeconds() - Start;
  Layers["_null.events"] += static_cast<double>(Schedule.size());
  NullSink = Null.Sum;
}

bool perfbench::isArenaProgram(const std::string &Name) {
  return Name == "GAWK" || Name == "GHOST";
}

std::vector<std::unique_ptr<ProgramInputs>>
perfbench::generateInputs(const Options &Opts, Tracer &T,
                          LayerValues &Layers) {
  std::vector<std::unique_ptr<ProgramInputs>> All;
  for (const ProgramModel &Model : allPrograms()) {
    auto Inputs = std::make_unique<ProgramInputs>();
    Inputs->Model = Model;
    RunOptions Run;
    Run.Scale = Opts.Scale;
    Run.Seed = Opts.Seed;
    double Start = nowSeconds();
    {
      Tracer::Scope S(T, "workloads.runWorkload", "workloads");
      Run.Kind = RunKind::Train;
      Inputs->Train = runWorkload(Inputs->Model, Run, Inputs->Registry);
      Run.Kind = RunKind::Test;
      Inputs->Test = runWorkload(Inputs->Model, Run, Inputs->Registry);
    }
    Layers["workloads.run_s"] += nowSeconds() - Start;
    Layers["workloads.records"] +=
        static_cast<double>(Inputs->Train.size() + Inputs->Test.size());
    All.push_back(std::move(Inputs));
  }
  return All;
}

std::vector<std::string> Workload::programNames() const {
  std::vector<std::string> Names;
  for (const auto &In : Inputs)
    Names.push_back(In->Model.Name);
  return Names;
}

void Workload::checkCells(const std::vector<Cell> &Cells) {
  if (FirstCells.empty()) {
    FirstCells = Cells;
    return;
  }
  std::string Diff = diffCells(Cells, cellValues(FirstCells));
  C.check(Diff.empty(), "cells differ between passes: " + Diff);
}

std::vector<Cell> perfbench::tableCells(const std::string &Program,
                                        const BaselineSimResult &FirstFit,
                                        const BaselineSimResult &Bsd,
                                        const ArenaSimResult *Self,
                                        const ArenaSimResult &True) {
  const PaperProgramData *Paper = paperData(Program);
  std::vector<Cell> Cells;
  auto Add = [&](const char *Column, double Ours, double PaperValue) {
    Cells.push_back({Program + "." + Column, Ours, PaperValue});
  };
  auto Kb = [](uint64_t Bytes) { return static_cast<double>(Bytes) / 1024.0; };
  Add("t7.arena_alloc_pct", True.arenaAllocPercent(), Paper->ArenaAllocPercent);
  Add("t7.arena_bytes_pct", True.arenaBytesPercent(), Paper->ArenaBytesPercent);
  Add("t8.firstfit_heap_k", Kb(FirstFit.MaxHeapBytes), Paper->FirstFitHeapK);
  if (Self)
    Add("t8.self_arena_heap_k", Kb(Self->MaxHeapBytes), Paper->SelfArenaHeapK);
  Add("t8.true_arena_heap_k", Kb(True.MaxHeapBytes), Paper->TrueArenaHeapK);
  Add("t9.bsd_alloc", Bsd.Instr.Alloc, Paper->BsdAlloc);
  Add("t9.bsd_free", Bsd.Instr.Free, Paper->BsdFree);
  Add("t9.firstfit_alloc", FirstFit.Instr.Alloc, Paper->FirstFitAlloc);
  Add("t9.firstfit_free", FirstFit.Instr.Free, Paper->FirstFitFree);
  Add("t9.arena_len4_alloc", True.InstrLen4.Alloc, Paper->ArenaLen4Alloc);
  Add("t9.arena_len4_free", True.InstrLen4.Free, Paper->ArenaLen4Free);
  Add("t9.arena_cce_alloc", True.InstrCce.Alloc, Paper->ArenaCceAlloc);
  Add("t9.arena_cce_free", True.InstrCce.Free, Paper->ArenaCceFree);
  return Cells;
}

void perfbench::addCompileStats(const CompiledTrace &Test,
                                LayerValues &Layers) {
  Layers["_trace.compile_events"] +=
      static_cast<double>(Test.schedule().size());
  Layers["trace.schedule_mb"] +=
      static_cast<double>(Test.schedule().memoryBytes() +
                          Test.recordKeys().capacity() * sizeof(SiteKey)) /
      1e6;
}

void perfbench::addAllocCounters(const BaselineSimResult &FirstFit,
                                 const ArenaSimResult &Arena,
                                 LayerValues &Layers) {
  const ArenaAllocator::Counters &A = Arena.Arena;
  Layers["alloc.firstfit.search_steps"] +=
      static_cast<double>(FirstFit.FirstFit.SearchSteps);
  Layers["alloc.arena.scan_steps"] += static_cast<double>(A.ScanSteps);
  Layers["alloc.arena.resets"] += static_cast<double>(A.Resets);
  Layers["alloc.arena.fallback_allocs"] += static_cast<double>(A.FallbackAllocs);
  Layers["_alloc.arena.arena_allocs"] += static_cast<double>(A.ArenaAllocs);
  Layers["_alloc.arena.predicted_short"] += static_cast<double>(
      A.ArenaAllocs + A.OversizeAllocs + A.FallbackAllocs);
}

void perfbench::finalizeRates(LayerValues &Layers) {
  auto Get = [&Layers](const std::string &Key) {
    auto It = Layers.find(Key);
    return It == Layers.end() ? 0.0 : It->second;
  };
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0.0; };
  Layers["core.profile.records_per_s"] =
      Ratio(Get("_core.profile_records"), Get("core.profile_s"));
  Layers["trace.compile.events_per_s"] =
      Ratio(Get("_trace.compile_events"), Get("trace.compile_s"));
  double NullRate = Ratio(Get("_null.events"), Get("_null.s"));
  Layers["bench.null_pass.events_per_s"] = NullRate;
  for (const std::string &F : replayFamilies()) {
    double Rate = Ratio(Get("_sim." + F + ".events"), Get("sim." + F + ".replay_s"));
    Layers["sim." + F + ".events_per_s"] = Rate;
    Layers["sim." + F + ".vs_null"] = Ratio(Rate, NullRate);
    Layers["telemetry." + F + ".overhead_ratio"] =
        Ratio(Get("telemetry." + F + ".replay_s"), Get("sim." + F + ".replay_s"));
  }
  Layers["alloc.arena.arena_alloc_ratio"] =
      Ratio(Get("_alloc.arena.arena_allocs"), Get("_alloc.arena.predicted_short"));
  Layers["runtime.arena_hit_ratio"] =
      Ratio(Get("runtime.arena_allocs"), Get("_runtime.predicted_short"));
}

const std::vector<std::string> &perfbench::replayFamilies() {
  static const std::vector<std::string> Families = {
      "firstfit", "bsd", "arena", "multiarena", "arena_online"};
  return Families;
}

const std::vector<std::string> &perfbench::tracedLayers() {
  static const std::vector<std::string> Layers = {
      "bench", "workloads", "core",    "trace",
      "sim",   "telemetry", "runtime", "callchain"};
  return Layers;
}

const std::vector<LayerMetricSpec> &perfbench::layerMetricSpecs() {
  static const std::vector<LayerMetricSpec> Specs = [] {
    std::vector<LayerMetricSpec> S = {
        {"workloads.run_s", "s"},
        {"workloads.records", "count"},
        {"core.profile_s", "s"},
        {"core.profile.records_per_s", "1/s"},
        {"core.train_s", "s"},
        {"core.sites", "count"},
        {"core.db_sites", "count"},
        {"trace.compile_s", "s"},
        {"trace.compile.events_per_s", "1/s"},
        {"trace.schedule_mb", "MB"},
        {"bench.null_pass.events_per_s", "1/s"},
    };
    for (const std::string &F : replayFamilies()) {
      S.push_back({"sim." + F + ".replay_s", "s"});
      S.push_back({"sim." + F + ".events_per_s", "1/s"});
      S.push_back({"sim." + F + ".vs_null", "ratio"});
    }
    S.push_back({"sim.plain_s", "s"});
    for (const char *Name :
         {"alloc.firstfit.search_steps", "alloc.arena.scan_steps",
          "alloc.arena.resets", "alloc.arena.fallback_allocs"})
      S.push_back({Name, "count"});
    S.push_back({"alloc.arena.arena_alloc_ratio", "ratio"});
    for (const std::string &F : replayFamilies()) {
      S.push_back({"telemetry." + F + ".replay_s", "s"});
      S.push_back({"telemetry." + F + ".overhead_ratio", "ratio"});
    }
    S.push_back({"telemetry.instrumented_s", "s"});
    S.push_back({"telemetry.export_s", "s"});
    S.push_back({"telemetry.keys", "count"});
    for (const char *Path : {"arena", "general"})
      for (const char *Op : {"allocate", "deallocate"})
        for (const char *Q : {"p50", "p99"})
          S.push_back({std::string("runtime.") + Path + "." + Op + "_ns." + Q,
                       "ns"});
    for (const char *Name : {"runtime.arena_allocs", "runtime.general_allocs",
                             "runtime.fallbacks", "runtime.resets"})
      S.push_back({Name, "count"});
    S.push_back({"runtime.arena_hit_ratio", "ratio"});
    for (const char *Program : {"cfrac", "espresso", "gawk", "ghost", "perl"})
      S.push_back({std::string("runtime.sim_arena_delta.") + Program, "count"});
    S.push_back({"callchain.frames_pushed", "count"});
    S.push_back({"callchain.harness_s", "s"});
    S.push_back({"bench.opnew.ns_per_op", "ns"});
    for (const std::string &Layer : tracedLayers())
      S.push_back({Layer + ".self_s", "s"});
    S.push_back({"bench.trace_overhead_s", "s"});
    return S;
  }();
  return Specs;
}
