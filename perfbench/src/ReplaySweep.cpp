//===- perfbench/src/ReplaySweep.cpp - The replay-sweep workload ----------===//
//
// Pure sim, alloc and telemetry work.  Set-up generates and compiles every
// test trace and trains the site database, the two-band class database
// and the online route plan.  Each pass replays every compiled schedule
// detached through five families (first fit, BSD, arena, multi-arena and
// arena under the online route plan), then replays the same families with
// a SimTelemetry and StatsRegistry attached and exports the registry.  An
// optimisation in core, workloads or trace must leave this pass unchanged.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "core/LifetimeClassifier.h"
#include "core/Trainer.h"
#include "runtime/Retrainer.h"
#include "sim/CompiledPrediction.h"
#include "sim/MultiArenaSimulator.h"
#include "sim/SimTelemetry.h"
#include "sim/TraceSimulator.h"

using namespace lifepred;
using namespace perfbench;

namespace {

/// Everything a family replay needs, built in set-up.
struct Prepared {
  SiteDatabase DB;
  ClassDatabase Classes;
  std::unique_ptr<CompiledTrace> Test;
  DynamicRouteBits Routes;
  double CallsPerAlloc = 0.0;
};

/// The outcome of one family replay, reduced to what the plain and
/// instrumented runs must agree on.
struct FamilyResult {
  BaselineSimResult Baseline;
  ArenaSimResult Arena;
  MultiArenaSimResult Multi;
};

bool sameMulti(const MultiArenaSimResult &A, const MultiArenaSimResult &B) {
  if (A.MaxHeapBytes != B.MaxHeapBytes || A.MaxLiveBytes != B.MaxLiveBytes ||
      A.GeneralAllocs != B.GeneralAllocs || A.GeneralBytes != B.GeneralBytes ||
      !(A.General == B.General) || A.PerBand.size() != B.PerBand.size())
    return false;
  for (size_t I = 0; I < A.PerBand.size(); ++I) {
    const auto &X = A.PerBand[I];
    const auto &Y = B.PerBand[I];
    if (X.Allocs != Y.Allocs || X.Bytes != Y.Bytes || X.Frees != Y.Frees ||
        X.ScanSteps != Y.ScanSteps || X.Resets != Y.Resets ||
        X.Fallbacks != Y.Fallbacks)
      return false;
  }
  return true;
}

bool sameResult(const FamilyResult &A, const FamilyResult &B) {
  const BaselineSimResult &P = A.Baseline, &Q = B.Baseline;
  const ArenaSimResult &R = A.Arena, &S = B.Arena;
  return P.MaxHeapBytes == Q.MaxHeapBytes && P.MaxLiveBytes == Q.MaxLiveBytes &&
         P.FirstFit == Q.FirstFit && P.Bsd == Q.Bsd &&
         R.MaxHeapBytes == S.MaxHeapBytes && R.MaxLiveBytes == S.MaxLiveBytes &&
         R.Arena == S.Arena && R.General == S.General &&
         sameMulti(A.Multi, B.Multi);
}

/// The two-band geometry of the multi-arena family: the 64 KB area split
/// between the under-16 KB and the 16-32 KB lifetime bands.
MultiArenaAllocator::Config multiArenaConfig() {
  MultiArenaAllocator::Config Config;
  Config.Bands = {{32 * 1024, 8}, {32 * 1024, 8}};
  return Config;
}

class ReplaySweep : public Workload {
public:
  using Workload::Workload;

  void setup(LayerValues &Layers) override;
  std::vector<double> runPass(LayerValues &Layers) override;
  void traceExtras(LayerValues &Layers) override;

private:
  FamilyResult replay(const std::string &Family, const Prepared &P,
                      SimTelemetry *Telemetry) const;

  const SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  std::vector<Prepared> Programs;
};

void ReplaySweep::setup(LayerValues &L) {
  Programs.clear();
  Inputs.clear();
  Inputs = generateInputs(Opts, T, L);
  for (const auto &In : Inputs) {
    Prepared P;
    P.CallsPerAlloc = In->Model.CallsPerAlloc;
    Profile TrainProfile;
    {
      StageTimer Timer(T, L, "core.profile_s", "core.profileTrace", "core");
      TrainProfile = profileTrace(In->Train, Policy);
    }
    L["_core.profile_records"] += static_cast<double>(In->Train.size());
    L["core.sites"] += static_cast<double>(TrainProfile.Sites.size());
    {
      StageTimer Timer(T, L, "core.train_s", "core.trainDatabase", "core");
      P.DB = trainDatabase(TrainProfile, Policy);
      P.Classes = trainClassDatabase(TrainProfile, Policy,
                                     {16 * 1024, 32 * 1024});
    }
    L["core.db_sites"] += static_cast<double>(P.DB.size() + P.Classes.size());
    {
      StageTimer Timer(T, L, "trace.compile_s", "trace.compile", "trace");
      P.Test = std::make_unique<CompiledTrace>(In->Test, Policy);
    }
    addCompileStats(*P.Test, L);
    {
      Tracer::Scope S(T, "runtime.compileOnlineRoutes", "runtime");
      OnlinePredictorConfig Config;
      Config.WarmStart = &P.DB;
      P.Routes = DynamicRouteBits(compileOnlineRoutes(*P.Test, Config).RouteWords);
    }
    Programs.push_back(std::move(P));
  }
}

FamilyResult ReplaySweep::replay(const std::string &Family, const Prepared &P,
                                 SimTelemetry *Telemetry) const {
  const CostModel Costs;
  FamilyResult R;
  const CompiledTrace &Test = *P.Test;
  if (Family == "firstfit")
    R.Baseline = simulateFirstFit(Test, Costs, FirstFitAllocator::Config(),
                                  Telemetry);
  else if (Family == "bsd")
    R.Baseline = simulateBsd(Test, Costs, BsdAllocator::Config(), Telemetry);
  else if (Family == "arena")
    R.Arena = simulateArena(Test, P.DB, P.CallsPerAlloc, Costs,
                            ArenaAllocator::Config(), Telemetry);
  else if (Family == "multiarena")
    R.Multi = simulateMultiArena(Test, P.Classes, multiArenaConfig(), Telemetry);
  else
    R.Arena = simulateArena(Test, P.DB, P.Routes, P.CallsPerAlloc, Costs,
                            ArenaAllocator::Config(), Telemetry);
  return R;
}

std::vector<double> ReplaySweep::runPass(LayerValues &L) {
  static const char *const SimSpans[] = {"sim.firstfit", "sim.bsd", "sim.arena",
                                         "sim.multiarena", "sim.arena_online"};
  static const char *const TelemetrySpans[] = {
      "telemetry.firstfit", "telemetry.bsd", "telemetry.arena",
      "telemetry.multiarena", "telemetry.arena_online"};
  const std::vector<std::string> &Families = replayFamilies();

  std::vector<double> Seconds;
  std::vector<Cell> Cells;
  for (size_t Index = 0; Index < Programs.size(); ++Index) {
    const Prepared &P = Programs[Index];
    const std::string &Name = Inputs[Index]->Model.Name;
    double Events = static_cast<double>(P.Test->schedule().size());
    double Start = nowSeconds();
    Tracer::Scope Program(T, "bench.program", "bench");

    std::vector<FamilyResult> Plain;
    double PlainStart = nowSeconds();
    for (size_t F = 0; F < Families.size(); ++F) {
      StageTimer Timer(T, L, "sim." + Families[F] + ".replay_s", SimSpans[F],
                       "sim");
      Plain.push_back(replay(Families[F], P, nullptr));
      L["_sim." + Families[F] + ".events"] += Events;
    }
    L["sim.plain_s"] += nowSeconds() - PlainStart;

    double InstrumentedStart = nowSeconds();
    for (size_t F = 0; F < Families.size(); ++F) {
      StatsRegistry Registry;
      SimTelemetry Telemetry;
      Telemetry.Registry = &Registry;
      FamilyResult Instrumented;
      {
        StageTimer Timer(T, L, "telemetry." + Families[F] + ".replay_s",
                         TelemetrySpans[F], "telemetry");
        Instrumented = replay(Families[F], P, &Telemetry);
      }
      std::string Exported;
      {
        StageTimer Timer(T, L, "telemetry.export_s", "telemetry.export",
                         "telemetry");
        Registry.writeJson(Exported, "");
      }
      L["telemetry.keys"] += static_cast<double>(Registry.metricCount());
      C.check(sameResult(Plain[F], Instrumented) && !Exported.empty(),
              Name + "." + Families[F] +
                  ": instrumented counters differ from the plain replay");
    }
    L["telemetry.instrumented_s"] += nowSeconds() - InstrumentedStart;

    const FamilyResult &FF = Plain[0], &Bsd = Plain[1], &Arena = Plain[2];
    addAllocCounters(FF.Baseline, Arena.Arena, L);

    std::vector<Cell> ProgramCells =
        tableCells(Name, FF.Baseline, Bsd.Baseline, nullptr, Arena.Arena);
    Cells.insert(Cells.end(), ProgramCells.begin(), ProgramCells.end());
    Seconds.push_back(nowSeconds() - Start);
  }

  checkCells(Cells);
  return Seconds;
}

void ReplaySweep::traceExtras(LayerValues &L) {
  for (const Prepared &P : Programs)
    nullPass(P.Test->schedule(), T, L);
}

} // namespace

std::unique_ptr<Workload> perfbench::makeReplaySweep(const Options &Opts,
                                                     Tracer &T) {
  return std::make_unique<ReplaySweep>(Opts, T);
}
