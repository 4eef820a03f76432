//===- tests/online_predictor_test.cpp - Online prediction differentials ---===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential battery that proves the online adaptive predictor
/// correct (DESIGN.md §17):
///
///  * Frozen differential — a warm-started predictor with ReactToDrift
///    off IS the static path: its route plan must match the compiled
///    PredictedShortBits bit-for-bit, on every paper workload and every
///    corpus trace, over both the oracle and compiled drivers.
///  * Driver differential — the oracle-path and compiled-path route
///    plans of the *reactive* model must be value-identical (routes,
///    retrain log, epochs, per-site forensics), because the two event
///    streams are bit-identical by the CompiledTrace contract.
///  * Drift reaction — on an engineered drift trace the model must flag
///    the drifting site, re-route it within one window of the flag, and
///    strictly beat the static database's accuracy.
///  * Invariant checks — the online-routed arena replay passes the
///    shadow oracle on the corpus.
///
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "runtime/Retrainer.h"
#include "sim/CompiledPrediction.h"
#include "trace/TraceBinaryIO.h"
#include "verify/ShadowSim.h"
#include "workloads/Programs.h"
#include "workloads/WorkloadRunner.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>

using namespace lifepred;

#ifndef LIFEPRED_CORPUS_DIR
#error "LIFEPRED_CORPUS_DIR must be defined by the build"
#endif

namespace {

std::vector<std::string> corpusFiles() {
  std::vector<std::string> Files;
  std::error_code EC;
  for (const auto &Entry :
       std::filesystem::directory_iterator(LIFEPRED_CORPUS_DIR, EC))
    if (Entry.path().extension() == ".lptrace")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  return Files;
}

AllocationTrace loadCorpusTrace(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  EXPECT_TRUE(IS) << "cannot open " << Path;
  std::optional<AllocationTrace> Trace = readTraceBinary(IS);
  EXPECT_TRUE(Trace.has_value()) << Path << " is not a binary trace";
  return Trace ? *Trace : AllocationTrace();
}

/// Train/test pair for one paper workload at a small scale.
struct WorkloadPair {
  AllocationTrace Train, Test;
};

ProgramModel findProgram(const std::string &Name) {
  for (const ProgramModel &Model : allPrograms())
    if (Model.Name == Name)
      return Model;
  ADD_FAILURE() << "no program named " << Name;
  return allPrograms().front();
}

std::vector<std::string> programNames() {
  std::vector<std::string> Names;
  for (const ProgramModel &Model : allPrograms())
    Names.push_back(Model.Name);
  return Names;
}

WorkloadPair makeWorkload(const ProgramModel &Model, double Scale = 0.02) {
  WorkloadPair Pair;
  FunctionRegistry Functions;
  RunOptions Options;
  Options.Scale = Scale;
  Options.Kind = RunKind::Train;
  Pair.Train = runWorkload(Model, Options, Functions);
  Options.Kind = RunKind::Test;
  Pair.Test = runWorkload(Model, Options, Functions);
  return Pair;
}

/// Self-trains a database over \p Trace (corpus traces have no split).
SiteDatabase selfTrain(const AllocationTrace &Trace,
                       const SiteKeyPolicy &Policy) {
  return trainDatabase(profileTrace(Trace, Policy), Policy);
}

/// Post-drift lifetime of the churn site: past the threshold, but small
/// enough that death evidence reaches the model within a few windows of
/// the drift (an object can only be observed when it dies).
constexpr uint64_t DriftedLifetime = 120000;

/// A two-phase drift trace from two sites: the churn site's lifetimes are
/// arena-short for the first half, then jump past the threshold; a
/// stable long-lived site rides along.  Training sees only the early
/// phase, so the static database routes the churn site short forever.
AllocationTrace driftTrace(size_t Objects, bool LatePhase) {
  AllocationTrace T;
  uint32_t ChurnChain = T.internChain(CallChain{10, 20});
  uint32_t NodeChain = T.internChain(CallChain{10, 30});
  for (size_t I = 0; I < Objects; ++I) {
    bool Late = LatePhase && I >= Objects / 2;
    if (I % 8 != 0)
      T.append({Late ? DriftedLifetime : uint64_t(512), 64, ChurnChain, 1});
    else
      T.append({uint64_t(600000), 64, NodeChain, 1});
  }
  return T;
}

} // namespace

//===----------------------------------------------------------------------===//
// Frozen differential: warm start + no reaction == the static path
//===----------------------------------------------------------------------===//

class PaperWorkloadOnlineTest : public testing::TestWithParam<ProgramModel> {};

TEST_P(PaperWorkloadOnlineTest, FrozenWarmStartMatchesStaticBits) {
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  WorkloadPair Pair = makeWorkload(GetParam());
  SiteDatabase DB = selfTrain(Pair.Train, Policy);
  CompiledTrace Compiled(Pair.Test, Policy);
  PredictedShortBits Static(Compiled, DB);

  OnlinePredictorConfig Frozen;
  Frozen.WarmStart = &DB;
  Frozen.ReactToDrift = false;

  OnlineRoutePlan CompiledPlan = compileOnlineRoutes(Compiled, Frozen);
  OnlineRoutePlan OraclePlan =
      replayOnlineRoutesOracle(Pair.Test, Policy, Frozen);
  EXPECT_EQ(CompiledPlan, OraclePlan);
  EXPECT_EQ(CompiledPlan.Epochs, 0u);
  EXPECT_TRUE(CompiledPlan.Retrains.empty());
  ASSERT_EQ(CompiledPlan.Records, Pair.Test.size());
  for (size_t Id = 0; Id < Pair.Test.size(); ++Id)
    ASSERT_EQ(CompiledPlan.testShort(Id), Static.test(Id))
        << "record " << Id << " of " << GetParam().Name;
}

TEST_P(PaperWorkloadOnlineTest, ReactiveOracleAndCompiledPlansAgree) {
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  WorkloadPair Pair = makeWorkload(GetParam());
  SiteDatabase DB = selfTrain(Pair.Train, Policy);
  CompiledTrace Compiled(Pair.Test, Policy);

  OnlinePredictorConfig Config;
  Config.WarmStart = &DB;
  OnlineRoutePlan CompiledPlan = compileOnlineRoutes(Compiled, Config);
  OnlineRoutePlan OraclePlan =
      replayOnlineRoutesOracle(Pair.Test, Policy, Config);
  EXPECT_EQ(CompiledPlan, OraclePlan);
}

INSTANTIATE_TEST_SUITE_P(Programs, PaperWorkloadOnlineTest,
                         testing::ValuesIn(allPrograms()),
                         [](const auto &Info) {
                           return std::string(Info.param.Name);
                         });

/// Parameterised by program name rather than by ProgramModel: gtest lists
/// a ProgramModel parameter as its raw bytes, which hold heap addresses, so
/// the listed test names would change with every heap layout.
class PaperWorkloadOnlineAccuracyTest
    : public testing::TestWithParam<std::string> {};

TEST_P(PaperWorkloadOnlineAccuracyTest, OnlineNeverLosesToStatic) {
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  WorkloadPair Pair = makeWorkload(findProgram(GetParam()), 0.05);
  SiteDatabase DB = selfTrain(Pair.Train, Policy);
  CompiledTrace Compiled(Pair.Test, Policy);
  PredictedShortBits Static(Compiled, DB);

  OnlinePredictorConfig Config;
  Config.WarmStart = &DB;
  OnlineRoutePlan Plan = compileOnlineRoutes(Compiled, Config);

  RouteScore StaticScore =
      scoreRoutes(Pair.Test, DB.threshold(),
                  [&Static](uint64_t Id) { return Static.test(Id); });
  RouteScore OnlineScore =
      scoreRoutes(Pair.Test, DB.threshold(),
                  [&Plan](uint64_t Id) { return Plan.testShort(Id); });
  EXPECT_GE(OnlineScore.accuracyPpm(), StaticScore.accuracyPpm())
      << GetParam() << ": online adaptation lost to its warm start";
}

INSTANTIATE_TEST_SUITE_P(Programs, PaperWorkloadOnlineAccuracyTest,
                         testing::ValuesIn(programNames()),
                         [](const auto &Info) { return Info.param; });

//===----------------------------------------------------------------------===//
// Corpus differentials
//===----------------------------------------------------------------------===//

class CorpusOnlineTest : public testing::TestWithParam<std::string> {};

TEST_P(CorpusOnlineTest, FrozenAndReactivePlansDifferentialOnCorpus) {
  AllocationTrace Trace = loadCorpusTrace(GetParam());
  ASSERT_GT(Trace.size(), 0u);
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  SiteDatabase DB = selfTrain(Trace, Policy);
  CompiledTrace Compiled(Trace, Policy);
  PredictedShortBits Static(Compiled, DB);

  // Frozen == static, over both drivers.
  OnlinePredictorConfig Frozen;
  Frozen.WarmStart = &DB;
  Frozen.ReactToDrift = false;
  OnlineRoutePlan FrozenCompiled = compileOnlineRoutes(Compiled, Frozen);
  OnlineRoutePlan FrozenOracle =
      replayOnlineRoutesOracle(Trace, Policy, Frozen);
  EXPECT_EQ(FrozenCompiled, FrozenOracle);
  for (size_t Id = 0; Id < Trace.size(); ++Id)
    ASSERT_EQ(FrozenCompiled.testShort(Id), Static.test(Id)) << "record "
                                                             << Id;

  // Reactive oracle == reactive compiled.
  OnlinePredictorConfig Reactive;
  Reactive.WarmStart = &DB;
  EXPECT_EQ(compileOnlineRoutes(Compiled, Reactive),
            replayOnlineRoutesOracle(Trace, Policy, Reactive));
}

TEST_P(CorpusOnlineTest, OnlineRoutedArenaPassesShadowOracle) {
  AllocationTrace Trace = loadCorpusTrace(GetParam());
  ASSERT_GT(Trace.size(), 0u);
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  SiteDatabase DB = selfTrain(Trace, Policy);
  OnlinePredictorConfig Config;
  Config.WarmStart = &DB;
  for (ReplayPath Path : {ReplayPath::Oracle, ReplayPath::Compiled}) {
    ShadowReport Report =
        shadowCheckArenaOnline(Trace, DB, Config, {}, Path);
    EXPECT_TRUE(Report.clean())
        << GetParam() << ": " << Report.summary()
        << (Report.Violations.empty()
                ? ""
                : "; first: " + Report.Violations[0].Invariant + ": " +
                      Report.Violations[0].Detail);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusOnlineTest,
                         testing::ValuesIn(corpusFiles()),
                         [](const auto &Info) {
                           std::string Stem =
                               std::filesystem::path(Info.param)
                                   .stem()
                                   .string();
                           std::replace_if(
                               Stem.begin(), Stem.end(),
                               [](char C) { return !std::isalnum(C); }, '_');
                           return Stem;
                         });

//===----------------------------------------------------------------------===//
// Drift reaction
//===----------------------------------------------------------------------===//

TEST(OnlineDriftReactionTest, FlaggedSiteReRoutesWithinOneWindow) {
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  // Train on the steady phase only; test drifts at the midpoint.
  AllocationTrace Train = driftTrace(20000, /*LatePhase=*/false);
  AllocationTrace Test = driftTrace(20000, /*LatePhase=*/true);
  SiteDatabase DB = selfTrain(Train, Policy);
  CompiledTrace Compiled(Test, Policy);

  // The churn site must start short (the whole point of the setup).
  PredictedShortBits Static(Compiled, DB);
  ASSERT_TRUE(Static.test(1)); // Record 1 is a churn alloc.
  ASSERT_FALSE(Static.test(0)); // Record 0 is the long-lived site.

  OnlinePredictorConfig Config;
  Config.WarmStart = &DB;
  OnlineRoutePlan Plan = compileOnlineRoutes(Compiled, Config);

  // The model must have flagged and re-routed the churn site short->long.
  ASSERT_FALSE(Plan.Retrains.empty()) << "drift never flagged";
  const RetrainEvent *Flip = nullptr;
  for (const RetrainEvent &Event : Plan.Retrains)
    if (Event.OldRoute && !Event.NewRoute) {
      Flip = &Event;
      break;
    }
  ASSERT_NE(Flip, nullptr) << "no short->long re-route applied";

  // Re-routing happens AT the window close that trips the CUSUM, so the
  // re-route is within one window of the flag by construction.  Pin the
  // end-to-end lag too: evidence of the drift first arrives when the
  // first drifted object *dies* — one DriftedLifetime after the onset —
  // and the flip must land within two windows of that (one to fill the
  // window holding the first long deaths, one for the decision close).
  uint64_t DriftClock = Test.totalBytes() / 2;
  uint64_t FirstEvidence = DriftClock + DriftedLifetime;
  EXPECT_GE(Flip->Clock, DriftClock - Plan.WindowBytes);
  EXPECT_LE(Flip->Clock, FirstEvidence + 2 * Plan.WindowBytes);

  // After the flip, every churn allocation routes long: accuracy must
  // strictly beat the static database, which mispredicts the entire
  // late phase.
  RouteScore StaticScore =
      scoreRoutes(Test, DB.threshold(),
                  [&Static](uint64_t Id) { return Static.test(Id); });
  RouteScore OnlineScore =
      scoreRoutes(Test, DB.threshold(),
                  [&Plan](uint64_t Id) { return Plan.testShort(Id); });
  EXPECT_GT(OnlineScore.accuracyPpm(), StaticScore.accuracyPpm())
      << "online adaptation did not improve on an engineered drift";
  EXPECT_GE(Plan.Epochs, 1u);
}

TEST(OnlineDriftReactionTest, ColdStartLearnsShortSite) {
  // No warm-start database: every site starts long.  A site whose deaths
  // are all arena-short must be re-routed short once evidence arrives.
  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  AllocationTrace Test = driftTrace(20000, /*LatePhase=*/false);
  CompiledTrace Compiled(Test, Policy);

  OnlinePredictorConfig Config; // Cold start, default threshold.
  OnlineRoutePlan Plan = compileOnlineRoutes(Compiled, Config);
  ASSERT_FALSE(Plan.Retrains.empty());
  EXPECT_TRUE(Plan.Retrains[0].NewRoute) << "short site not learned";
  // Late records of the churn site route short.
  EXPECT_TRUE(Plan.testShort(Test.size() - 2));
}

