//===- tests/drift_test.cpp - Prediction drift observatory tests -----------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// Covers the windowed time-series substrate (window-edge placement, empty
// trailing windows, ring mode) and the drift observatory built on it: a
// hand-computed golden drift JSON over a small trace with an engineered
// mid-trace lifetime shift, the CUSUM change-point localizer, per-site
// observed-vs-trained divergence scoring, the ESPRESSO acceptance run,
// and the DriftSampleLog / PredictingHeap /
// RuntimeProfiler::quantileProbes live-run path.
//
//===----------------------------------------------------------------------===//

#include "callchain/FunctionRegistry.h"
#include "core/Pipeline.h"
#include "runtime/Instrument.h"
#include "runtime/PredictingHeap.h"
#include "runtime/RuntimeProfiler.h"
#include "sim/SimTelemetry.h"
#include "sim/TraceSimulator.h"
#include "telemetry/DriftObservatory.h"
#include "telemetry/StatsRegistry.h"
#include "telemetry/TimeSeries.h"
#include "trace/CompiledTrace.h"
#include "workloads/Programs.h"
#include "workloads/WorkloadRunner.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

using namespace lifepred;

//===----------------------------------------------------------------------===//
// TimeSeries: window geometry
//===----------------------------------------------------------------------===//

TEST(TimeSeriesTest, EventExactlyOnEdgeOpensItsWindow) {
  // Clock W * Width belongs to window W, not W - 1: the window an edge
  // clock *opens*.
  EXPECT_EQ(TimeSeries::windowIndexFor(0, 100), 0u);
  EXPECT_EQ(TimeSeries::windowIndexFor(99, 100), 0u);
  EXPECT_EQ(TimeSeries::windowIndexFor(100, 100), 1u);
  EXPECT_EQ(TimeSeries::windowIndexFor(200, 100), 2u);

  TimeSeries::Config C;
  C.WindowBytes = 100;
  C.CounterLanes = 1;
  TimeSeries Ts(C);
  Ts.add(100, 0, 7);
  EXPECT_EQ(Ts.counter(0, 0), 0u);
  EXPECT_EQ(Ts.counter(1, 0), 7u);
}

TEST(TimeSeriesTest, EmptyTrailingWindowsAreMaterialized) {
  TimeSeries::Config C;
  C.WindowBytes = 100;
  C.CounterLanes = 1;
  TimeSeries Ts(C);
  Ts.add(50, 0, 1);
  EXPECT_EQ(Ts.windowCount(), 1u);
  // A quiet tail still shows up as explicit zero windows through the end
  // clock — including the edge clock 1000, which opens window 10.
  Ts.extendToClock(1000);
  EXPECT_EQ(Ts.windowCount(), 11u);
  for (uint64_t W = 1; W <= 10; ++W)
    EXPECT_EQ(Ts.counter(W, 0), 0u) << "window " << W;
  // Out-of-range reads are 0, not UB.
  EXPECT_EQ(Ts.counter(99, 0), 0u);
  EXPECT_EQ(Ts.histogram(99, 0), nullptr);
}

TEST(TimeSeriesTest, RingModeKeepsTrailingWindowsOnly) {
  TimeSeries::Config C;
  C.WindowBytes = 10;
  C.CounterLanes = 1;
  C.RingWindows = 3;
  TimeSeries Ts(C);
  for (uint64_t W = 0; W < 8; ++W)
    Ts.addWindow(W, 0, W + 1);
  EXPECT_EQ(Ts.firstWindow(), 5u);
  EXPECT_EQ(Ts.windowCount(), 3u);
  EXPECT_EQ(Ts.droppedWindows(), 5u);
  EXPECT_EQ(Ts.counter(5, 0), 6u);
  EXPECT_EQ(Ts.counter(7, 0), 8u);
  // Dropped windows read as zero; a late write below the base is counted
  // and otherwise ignored.
  EXPECT_EQ(Ts.counter(0, 0), 0u);
  Ts.addWindow(1, 0, 99);
  EXPECT_EQ(Ts.lateDrops(), 1u);
  EXPECT_EQ(Ts.counter(1, 0), 0u);
}

//===----------------------------------------------------------------------===//
// DriftObservatory: hand-computed golden
//===----------------------------------------------------------------------===//

namespace {

/// The six-event micro scenario: window width 100, end clock 1000,
/// threshold 50.  Site 7 is predicted short and flips from short-lived to
/// a 400-byte overstay mid-trace (the engineered lifetime shift).
DriftObservatory goldenObservatory() {
  DriftConfig C;
  C.EndClock = 1000;
  C.WindowBytes = 100;
  C.Threshold = 50;
  DriftObservatory Obs(C);
  // (clock, site, size, predicted, lifetime, actually short)
  Obs.recordAlloc(0, 7, 16, true, 10, true);     // w0: true short
  Obs.recordAlloc(100, 7, 16, true, 10, true);   // edge clock -> w1
  Obs.recordAlloc(250, 9, 32, false, 20, true);  // w2: missed short
  Obs.recordAlloc(300, 7, 16, true, 400, false); // w3: false short, pins
  Obs.recordAlloc(500, 11, 8, false, 600, false); // w5: true long
  Obs.recordAlloc(999, 7, 16, true, 0, true);    // w9: zero-lifetime TS
  return Obs;
}

} // namespace

TEST(DriftObservatoryTest, HandComputedWindowRows) {
  DriftObservatory Obs = goldenObservatory();
  EXPECT_EQ(Obs.windowCount(), 11u); // Windows 0..10, trailing w10 empty.
  EXPECT_EQ(Obs.totalObjects(), 6u);
  EXPECT_EQ(Obs.sites().size(), 3u);

  DriftReport R = buildDriftReport(Obs, nullptr, "golden");
  ASSERT_EQ(R.Windows.size(), 11u);
  EXPECT_EQ(R.TrueShort, 3u);
  EXPECT_EQ(R.FalseShort, 1u);
  EXPECT_EQ(R.MissedShort, 1u);
  EXPECT_EQ(R.TrueLong, 1u);
  EXPECT_EQ(R.FalseShortBytes, 16u);
  EXPECT_EQ(R.MissedShortBytes, 32u);
  // The false short born at 300 with observed lifetime 400 pins its arena
  // over [300 + 50, 300 + 400) = clocks 350..699 -> windows 3, 4, 5, 6.
  EXPECT_EQ(R.PinnedBytes, 4u * 16u);
  for (uint64_t W : {3u, 4u, 5u, 6u})
    EXPECT_EQ(R.Windows[W].PinnedBytes, 16u) << "window " << W;
  EXPECT_EQ(R.Windows[7].PinnedBytes, 0u);
  // 4 correct of 6 -> 666666 ppm (integer division).
  EXPECT_EQ(R.MeanAccuracyPpm, 666666);
  // Empty windows carry the no-data sentinel, not zero accuracy.
  EXPECT_EQ(R.Windows[4].AccuracyPpm, -1);
  EXPECT_EQ(R.Windows[10].AccuracyPpm, -1);
  EXPECT_EQ(R.Windows[0].AccuracyPpm, 1000000);
  EXPECT_EQ(R.Windows[2].AccuracyPpm, 0);
}

TEST(DriftObservatoryTest, GoldenDriftJson) {
  // The full report serialization, hand-computed byte for byte.  With six
  // events and a mean of 666666 ppm every populated window deviates more
  // than the CUSUM decision threshold, so each one trips and resets.
  DriftReport R = buildDriftReport(goldenObservatory(), nullptr, "golden");
  std::string Json;
  writeDriftJson(R, Json, "");
  const std::string Expected =
      "{\n"
      "  \"label\": \"golden\",\n"
      "  \"window_bytes\": 100,\n"
      "  \"end_clock\": 1000,\n"
      "  \"threshold\": 50,\n"
      "  \"windows\": 11,\n"
      "  \"objects\": 6,\n"
      "  \"sites\": 3,\n"
      "  \"true_short\": 3,\n"
      "  \"false_short\": 1,\n"
      "  \"missed_short\": 1,\n"
      "  \"true_long\": 1,\n"
      "  \"false_short_bytes\": 16,\n"
      "  \"missed_short_bytes\": 32,\n"
      "  \"pinned_bytes\": 64,\n"
      "  \"accuracy_mean_ppm\": 666666,\n"
      "  \"changepoint_count\": 6,\n"
      "  \"changepoints\": [0, 1, 2, 3, 5, 9],\n"
      "  \"scored_site_windows\": 0,\n"
      "  \"worst_site\": null,\n"
      "  \"top_sites\": [],\n"
      "  \"series\": [\n"
      "    {\"w\": 0, \"start\": 0, \"ts\": 1, \"fs\": 0, \"ms\": 0, "
      "\"tl\": 0, \"acc_ppm\": 1000000, \"false_short_bytes\": 0, "
      "\"missed_short_bytes\": 0, \"pinned_bytes\": 0, \"changepoint\": "
      "true},\n"
      "    {\"w\": 1, \"start\": 100, \"ts\": 1, \"fs\": 0, \"ms\": 0, "
      "\"tl\": 0, \"acc_ppm\": 1000000, \"false_short_bytes\": 0, "
      "\"missed_short_bytes\": 0, \"pinned_bytes\": 0, \"changepoint\": "
      "true},\n"
      "    {\"w\": 2, \"start\": 200, \"ts\": 0, \"fs\": 0, \"ms\": 1, "
      "\"tl\": 0, \"acc_ppm\": 0, \"false_short_bytes\": 0, "
      "\"missed_short_bytes\": 32, \"pinned_bytes\": 0, \"changepoint\": "
      "true},\n"
      "    {\"w\": 3, \"start\": 300, \"ts\": 0, \"fs\": 1, \"ms\": 0, "
      "\"tl\": 0, \"acc_ppm\": 0, \"false_short_bytes\": 16, "
      "\"missed_short_bytes\": 0, \"pinned_bytes\": 16, \"changepoint\": "
      "true},\n"
      "    {\"w\": 4, \"start\": 400, \"ts\": 0, \"fs\": 0, \"ms\": 0, "
      "\"tl\": 0, \"acc_ppm\": -1, \"false_short_bytes\": 0, "
      "\"missed_short_bytes\": 0, \"pinned_bytes\": 16, \"changepoint\": "
      "false},\n"
      "    {\"w\": 5, \"start\": 500, \"ts\": 0, \"fs\": 0, \"ms\": 0, "
      "\"tl\": 1, \"acc_ppm\": 1000000, \"false_short_bytes\": 0, "
      "\"missed_short_bytes\": 0, \"pinned_bytes\": 16, \"changepoint\": "
      "true},\n"
      "    {\"w\": 6, \"start\": 600, \"ts\": 0, \"fs\": 0, \"ms\": 0, "
      "\"tl\": 0, \"acc_ppm\": -1, \"false_short_bytes\": 0, "
      "\"missed_short_bytes\": 0, \"pinned_bytes\": 16, \"changepoint\": "
      "false},\n"
      "    {\"w\": 7, \"start\": 700, \"ts\": 0, \"fs\": 0, \"ms\": 0, "
      "\"tl\": 0, \"acc_ppm\": -1, \"false_short_bytes\": 0, "
      "\"missed_short_bytes\": 0, \"pinned_bytes\": 0, \"changepoint\": "
      "false},\n"
      "    {\"w\": 8, \"start\": 800, \"ts\": 0, \"fs\": 0, \"ms\": 0, "
      "\"tl\": 0, \"acc_ppm\": -1, \"false_short_bytes\": 0, "
      "\"missed_short_bytes\": 0, \"pinned_bytes\": 0, \"changepoint\": "
      "false},\n"
      "    {\"w\": 9, \"start\": 900, \"ts\": 1, \"fs\": 0, \"ms\": 0, "
      "\"tl\": 0, \"acc_ppm\": 1000000, \"false_short_bytes\": 0, "
      "\"missed_short_bytes\": 0, \"pinned_bytes\": 0, \"changepoint\": "
      "true},\n"
      "    {\"w\": 10, \"start\": 1000, \"ts\": 0, \"fs\": 0, \"ms\": 0, "
      "\"tl\": 0, \"acc_ppm\": -1, \"false_short_bytes\": 0, "
      "\"missed_short_bytes\": 0, \"pinned_bytes\": 0, \"changepoint\": "
      "false}\n"
      "  ]\n"
      "}";
  EXPECT_EQ(Json, Expected);
}

TEST(DriftObservatoryTest, CusumLocalizesEngineeredShift) {
  // 100 windows of 10 predicted-short objects each; the database goes
  // stale at window 98 (every allocation suddenly outlives the
  // threshold).  The majority phase sits within CUSUM slack of the run
  // mean (980000 ppm), so only the shifted tail trips.
  DriftConfig C;
  C.EndClock = 9999;
  C.WindowBytes = 100;
  C.Threshold = 50;
  DriftObservatory Obs(C);
  for (uint64_t W = 0; W < 100; ++W)
    for (uint64_t J = 0; J < 10; ++J) {
      bool Stale = W >= 98;
      Obs.recordAlloc(W * 100 + J, 7, 16, true, Stale ? 100000 : 10,
                      !Stale);
    }
  DriftReport R = buildDriftReport(Obs, nullptr, "shift");
  EXPECT_EQ(R.MeanAccuracyPpm, 980000);
  ASSERT_EQ(R.changePointCount(), 2u);
  EXPECT_EQ(R.ChangePointWindows[0], 98u);
  EXPECT_EQ(R.ChangePointWindows[1], 99u);
  for (uint64_t W = 0; W < 98; ++W)
    EXPECT_FALSE(R.Windows[W].ChangePoint) << "window " << W;
}

TEST(DriftObservatoryTest, SiteDivergenceScoredAgainstTrainedQuantiles) {
  DriftConfig C;
  C.EndClock = 1000;
  C.WindowBytes = 100;
  C.Threshold = 50;
  DriftObservatory Obs(C);
  // Site 5: four same-window objects observed living ~1000 bytes; site 6
  // has only three objects, below the scoring floor.
  for (int I = 0; I < 4; ++I)
    Obs.recordAlloc(10 + I, 5, 16, true, 800, false);
  for (int I = 0; I < 3; ++I)
    Obs.recordAlloc(40 + I, 6, 16, true, 800, false);

  TrainedQuantileMap Trained;
  TrainedSiteQuantiles Q;
  Q.Objects = 100;
  Q.Q25 = 8;
  Q.Q50 = 10;
  Q.Q75 = 12;
  Trained.emplace(5, Q);
  Trained.emplace(6, Q);

  DriftReport R = buildDriftReport(Obs, &Trained, "sites");
  EXPECT_EQ(R.ScoredSiteWindows, 1u);
  ASSERT_TRUE(R.hasWorstSite());
  EXPECT_EQ(R.worstSite().Site, 5u);
  EXPECT_EQ(R.worstSite().Window, 0u);
  EXPECT_EQ(R.worstSite().Objects, 4u);
  EXPECT_DOUBLE_EQ(R.worstSite().TrainQ50, 10.0);
  // Observed ~800 vs trained ~10: better than five doublings of drift.
  EXPECT_GT(R.worstSite().Score, 5.0);
}

TEST(DriftObservatoryTest, QuantileDriftScoreSkipsUntrainedQuantiles) {
  TrainedSiteQuantiles Q;
  Q.Q25 = 1.0;  // Observed 3: |log2(4 / 2)| = 1.
  Q.Q50 = -1.0; // Unseen in training: skipped.
  Q.Q75 = 7.0;  // Observed 1: |log2(2 / 8)| = 2.
  Q.Objects = 1;
  EXPECT_DOUBLE_EQ(quantileDriftScore(3, 100, 1, Q), 2.0);
  TrainedSiteQuantiles Unseen;
  EXPECT_EQ(quantileDriftScore(3, 5, 9, Unseen), 0.0);
}

TEST(DriftObservatoryTest, TelemetryExportKeys) {
  StatsRegistry Registry;
  DriftReport R = buildDriftReport(goldenObservatory(), nullptr, "golden");
  exportDriftTelemetry(R, Registry, "drift.");
  EXPECT_EQ(Registry.counter("drift.windows"), 11u);
  EXPECT_EQ(Registry.counter("drift.objects"), 6u);
  EXPECT_EQ(Registry.counter("drift.changepoints"), 6u);
  EXPECT_EQ(Registry.counter("drift.pinned_bytes"), 64u);
  EXPECT_EQ(Registry.gauge("drift.accuracy_mean_ppm"), 666666u);
}

//===----------------------------------------------------------------------===//
// ESPRESSO acceptance run
//===----------------------------------------------------------------------===//

TEST(DriftShapeTest, EspressoLocalizesChangePointWithNamedSite) {
  // The acceptance run: ESPRESSO's drift report must localize at least
  // one change-point window and name a worst-drift site.
  ProgramModel Espresso;
  bool Found = false;
  for (const ProgramModel &Model : allPrograms())
    if (std::string(Model.Name) == "ESPRESSO") {
      Espresso = Model;
      Found = true;
    }
  ASSERT_TRUE(Found);
  RunOptions Run;
  Run.Scale = 0.05;
  Run.Seed = 0x1993;
  Run.Kind = RunKind::Train;
  FunctionRegistry Registry;
  AllocationTrace Train = runWorkload(Espresso, Run, Registry);
  Run.Kind = RunKind::Test;
  AllocationTrace Test = runWorkload(Espresso, Run, Registry);

  SiteKeyPolicy Policy = SiteKeyPolicy::completeChain();
  Profile TrainProfile = profileTrace(Train, Policy);
  SiteDatabase DB = trainDatabase(TrainProfile, Policy);
  CompiledTrace Compiled(Test, Policy);

  DriftConfig Config;
  Config.EndClock = Compiled.schedule().endClock();
  Config.Threshold = DB.threshold();
  DriftObservatory Obs(Config);
  SimTelemetry Telemetry;
  Telemetry.Drift = &Obs;
  simulateArena(Compiled, DB, Espresso.CallsPerAlloc, {}, {}, &Telemetry);

  TrainedQuantileMap Trained =
      buildTrainedQuantiles(Test, TrainProfile, Policy);
  DriftReport R = buildDriftReport(Obs, &Trained, "ESPRESSO.arena");
  EXPECT_GE(R.changePointCount(), 1u);
  ASSERT_TRUE(R.hasWorstSite());
  EXPECT_GT(R.worstSite().Objects, 0u);
  EXPECT_GT(R.worstSite().Score, 0.0);
}

//===----------------------------------------------------------------------===//
// Live-run path: DriftSampleLog, PredictingHeap, RuntimeProfiler probes
//===----------------------------------------------------------------------===//

TEST(DriftSampleLogTest, BuildMatchesDirectFill) {
  DriftSampleLog Log;
  Log.recordAlloc(1, 0, 7, 16, true);
  Log.recordFree(1, 10); // Lifetime 10.
  Log.recordAlloc(2, 300, 7, 16, true);
  Log.recordFree(2, 700); // Lifetime 400.
  Log.recordAlloc(3, 500, 9, 8, false); // Never freed.
  Log.finish(1000);
  EXPECT_EQ(Log.endClock(), 1000u);

  DriftObservatory Built = Log.build(100, 50);
  DriftConfig C;
  C.EndClock = 1000;
  C.WindowBytes = 100;
  C.Threshold = 50;
  DriftObservatory Direct(C);
  Direct.recordAlloc(0, 7, 16, true, 10, true);
  Direct.recordAlloc(300, 7, 16, true, 400, false);
  // Never freed clamps to exit: observed 500, actually long.
  Direct.recordAlloc(500, 9, 8, false, ~uint64_t(0), false);
  EXPECT_TRUE(Built == Direct);
}

namespace {

/// An instrumented "application" driving a profiler or a predicting heap
/// behind shadow-stack frames (runtime_test's shape), with a mid-run
/// behaviour shift: temporaries start leaking into a retained list.
struct DriftApp {
  RuntimeProfiler *Profiler = nullptr;
  PredictingHeap *Heap = nullptr;
  std::vector<void *> Retained;
  uintptr_t NextFake = 0x1000;

  void *alloc(uint32_t Size) {
    if (Heap)
      return Heap->allocate(Size);
    auto *P = reinterpret_cast<void *>(NextFake += 64);
    Profiler->recordAlloc(P, Size);
    return P;
  }
  void release(void *P) {
    if (Heap)
      Heap->deallocate(P);
    else
      Profiler->recordFree(P);
  }

  void makeTemporary(bool Leak) {
    LIFEPRED_NAMED_FUNCTION("makeTemporary");
    void *P = alloc(24);
    if (Leak)
      Retained.push_back(P);
    else
      release(P);
  }

  void run(int Iterations, bool ShiftAtHalf) {
    LIFEPRED_NAMED_FUNCTION("run");
    for (int I = 0; I < Iterations; ++I)
      makeTemporary(ShiftAtHalf && I >= Iterations / 2);
  }
};

} // namespace

TEST(DriftRuntimeTest, PredictingHeapFeedsSampleLogAndProbesScoreIt) {
  ShadowStack::current().clear();

  // Train on well-behaved churn: temporaries die instantly, so their site
  // trains short-lived with tiny quantiles.
  RuntimeProfiler Profiler(SiteKeyPolicy::lastN(4));
  DriftApp TrainApp;
  TrainApp.Profiler = &Profiler;
  TrainApp.run(4000, /*ShiftAtHalf=*/false);
  TrainedQuantileMap Probes = Profiler.quantileProbes();
  EXPECT_FALSE(Probes.empty());
  SiteDatabase DB = Profiler.train();
  ASSERT_GE(DB.size(), 1u);

  // Optimized run with a drift log attached; halfway through, the same
  // site's objects start living to program exit.
  PredictingHeap Heap(DB);
  DriftSampleLog Log;
  Heap.attachDriftLog(&Log);
  DriftApp TestApp;
  TestApp.Heap = &Heap;
  TestApp.run(4000, /*ShiftAtHalf=*/true);
  Heap.finishRecording();
  EXPECT_EQ(Log.size(), 4000u);
  EXPECT_GT(Log.endClock(), 0u);

  // Score the live run against the profiler's live-database probes: the
  // leaked second half shows up as false shorts with pinned bytes, and
  // the worst-drift site is named.
  DriftObservatory Obs = Log.build(0, DB.threshold());
  DriftReport R = buildDriftReport(Obs, &Probes, "live");
  EXPECT_EQ(R.TotalObjects, 4000u);
  EXPECT_GT(R.TrueShort, 0u);
  EXPECT_GT(R.FalseShort, 0u);
  EXPECT_GT(R.PinnedBytes, 0u);
  ASSERT_TRUE(R.hasWorstSite());
  EXPECT_GT(R.worstSite().Score, 0.0);
  // The leak starts at the midpoint, so the CUSUM flags change points in
  // the shifted back half.  (The front half legitimately flags too: with
  // a balanced two-phase run, both phases deviate from the global mean.)
  ASSERT_GE(R.changePointCount(), 1u);
  uint64_t Half = R.Windows.size() / 2;
  EXPECT_TRUE(std::any_of(R.ChangePointWindows.begin(),
                          R.ChangePointWindows.end(),
                          [Half](uint64_t W) { return W >= Half; }));

  // Detach and confirm the heap keeps working.
  Heap.attachDriftLog(nullptr);
  void *P = Heap.allocate(24);
  ASSERT_NE(P, nullptr);
  Heap.deallocate(P);
  for (void *Leaked : TestApp.Retained)
    Heap.deallocate(Leaked);
}
