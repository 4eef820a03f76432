//===- perfbench/src/PaperPipeline.cpp - The paper-pipeline workload ------===//
//
// What a user waits for when regenerating Tables 7-9.  Set-up generates
// the train and test traces of all five programs.  Each pass, per program:
// profile both traces under complete-chain keys, train the self and true
// databases, compile the test trace with keys, replay it through first
// fit, BSD and the arena allocator under each database, and compute the
// Table 7, 8 and 9 cells.  The runtime layer is never touched.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "core/PredictionEvaluator.h"
#include "core/Trainer.h"
#include "sim/TraceSimulator.h"

#include <fstream>

using namespace lifepred;
using namespace perfbench;

namespace {

class PaperPipeline : public Workload {
public:
  using Workload::Workload;

  void setup(LayerValues &Layers) override {
    Inputs.clear();
    Inputs = generateInputs(Opts, T, Layers);
  }

  std::vector<double> runPass(LayerValues &Layers) override;
  void traceExtras(LayerValues &Layers) override;
  void finish() override;

private:
  const SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
};

std::vector<double> PaperPipeline::runPass(LayerValues &L) {
  std::vector<double> Seconds;
  std::vector<Cell> Cells;
  const CostModel Costs;
  for (const auto &In : Inputs) {
    const std::string &Name = In->Model.Name;
    double Start = nowSeconds();
    Tracer::Scope Program(T, "bench.program", "bench");

    Profile TrainProfile, TestProfile;
    {
      StageTimer Timer(T, L, "core.profile_s", "core.profileTrace", "core");
      TrainProfile = profileTrace(In->Train, Policy);
      TestProfile = profileTrace(In->Test, Policy);
    }
    L["_core.profile_records"] +=
        static_cast<double>(In->Train.size() + In->Test.size());
    L["core.sites"] += static_cast<double>(TrainProfile.Sites.size() +
                                           TestProfile.Sites.size());

    SiteDatabase SelfDB, TrueDB;
    {
      StageTimer Timer(T, L, "core.train_s", "core.trainDatabase", "core");
      SelfDB = trainDatabase(TestProfile, Policy);
      TrueDB = trainDatabase(TrainProfile, Policy);
    }
    L["core.db_sites"] += static_cast<double>(SelfDB.size() + TrueDB.size());

    std::unique_ptr<CompiledTrace> Test;
    {
      StageTimer Timer(T, L, "trace.compile_s", "trace.compile", "trace");
      Test = std::make_unique<CompiledTrace>(In->Test, Policy);
    }
    addCompileStats(*Test, L);
    double Events = static_cast<double>(Test->schedule().size());

    double CallsPerAlloc = In->Model.CallsPerAlloc;
    BaselineSimResult FF, Bsd;
    ArenaSimResult Self, True;
    double PlainStart = nowSeconds();
    {
      StageTimer Timer(T, L, "sim.firstfit.replay_s", "sim.firstfit", "sim");
      FF = simulateFirstFit(*Test, Costs);
    }
    {
      StageTimer Timer(T, L, "sim.bsd.replay_s", "sim.bsd", "sim");
      Bsd = simulateBsd(*Test, Costs);
    }
    {
      StageTimer Timer(T, L, "sim.arena.replay_s", "sim.arena", "sim");
      Self = simulateArena(*Test, SelfDB, CallsPerAlloc, Costs);
      True = simulateArena(*Test, TrueDB, CallsPerAlloc, Costs);
    }
    L["sim.plain_s"] += nowSeconds() - PlainStart;
    L["_sim.firstfit.events"] += Events;
    L["_sim.bsd.events"] += Events;
    L["_sim.arena.events"] += 2 * Events;

    addAllocCounters(FF, True, L);

    std::vector<Cell> ProgramCells = tableCells(Name, FF, Bsd, &Self, True);
    Cells.insert(Cells.end(), ProgramCells.begin(), ProgramCells.end());

    // Output checks: every object lands in the arena or the general heap,
    // and no heap is smaller than the live data it held.
    uint64_t Records = In->Test.size();
    bool Ok = Self.Arena.ArenaAllocs + Self.Arena.GeneralAllocs == Records &&
              True.Arena.ArenaAllocs + True.Arena.GeneralAllocs == Records &&
              FF.MaxHeapBytes >= FF.MaxLiveBytes &&
              Bsd.MaxHeapBytes >= Bsd.MaxLiveBytes &&
              Self.MaxHeapBytes >= Self.MaxLiveBytes &&
              True.MaxHeapBytes >= True.MaxLiveBytes;
    C.check(Ok, Name + ": allocation count or heap/live invariant broken");
    Seconds.push_back(nowSeconds() - Start);
  }

  checkCells(Cells);
  return Seconds;
}

void PaperPipeline::traceExtras(LayerValues &L) {
  for (const auto &In : Inputs)
    nullPass(CompiledTrace(In->Test).schedule(), T, L);
}

void PaperPipeline::finish() {
  // The self database is trained on the trace it predicts, so it never
  // predicts a long-lived object short.
  for (const auto &In : Inputs) {
    SiteDatabase SelfDB = trainDatabase(profileTrace(In->Test, Policy), Policy);
    PredictionReport Report = evaluatePrediction(In->Test, SelfDB);
    C.check(Report.ErrorBytes == 0,
            In->Model.Name + ": nonzero self-prediction error");
  }

  if (!Opts.WriteCellsPath.empty()) {
    std::ofstream Out(Opts.WriteCellsPath);
    writeCells(Out,
               "lifebench paper-pipeline cells, seed " +
                   std::to_string(Opts.Seed) + ", scale " +
                   std::to_string(Opts.Scale),
               FirstCells);
    C.check(static_cast<bool>(Out), "cannot write " + Opts.WriteCellsPath);
  }
  if (Opts.Seed != DefaultSeed || Opts.Scale != DefaultScale ||
      Opts.ExpectedCellsPath.empty())
    return;
  std::ifstream In(Opts.ExpectedCellsPath);
  std::vector<std::pair<std::string, double>> Expected;
  std::string Error;
  if (!In)
    Error = "cannot read " + Opts.ExpectedCellsPath;
  else if (readCells(In, Expected, Error))
    Error = diffCells(FirstCells, Expected);
  C.check(Error.empty(), "expected cells: " + Error);
}

} // namespace

std::unique_ptr<Workload> perfbench::makePaperPipeline(const Options &Opts,
                                                       Tracer &T) {
  return std::make_unique<PaperPipeline>(Opts, T);
}
