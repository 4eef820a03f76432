//===- sim/TraceSimulator.cpp - Trace-driven allocator simulation ----------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
// Replays run over the compiled flat schedule (trace/CompiledTrace.h) with
// concrete consumer types, so the per-event path has no virtual dispatch.
// Each simulator has a plain consumer — the branch-lean hot path used when
// no SimTelemetry is attached — and an instrumented consumer carrying the
// telemetry, timeline, and flight-recorder hooks.  The two make identical
// allocator calls in identical order, so Counters agree bit-for-bit; only
// the observation differs.
//
//===----------------------------------------------------------------------===//

#include "sim/TraceSimulator.h"

#include "core/Profiler.h"
#include "sim/CompiledPrediction.h"
#include "sim/SimTelemetry.h"
#include "telemetry/DriftObservatory.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/LatencyRecorder.h"

#include <unordered_set>
#include <vector>

using namespace lifepred;

namespace {

/// Uninstrumented replay into any concrete allocator: the hot path.
template <typename AllocatorT>
class PlainBaselineConsumer
    : public ScheduleConsumer<PlainBaselineConsumer<AllocatorT>> {
public:
  PlainBaselineConsumer(AllocatorT &Allocator, const AllocationTrace &Trace)
      : Allocator(Allocator), Records(Trace.records().data()) {
    Addresses.resize(Trace.size());
  }

  void onAlloc(uint32_t Id, uint64_t) {
    Addresses[Id] = Allocator.allocate(Records[Id].Size);
    raisePeak(MaxLive, Allocator.liveBytes());
  }

  void onFree(uint32_t Id, uint64_t) { Allocator.free(Addresses[Id]); }

  uint64_t maxLiveBytes() const { return MaxLive; }

private:
  AllocatorT &Allocator;
  const AllocRecord *Records;
  std::vector<uint64_t> Addresses;
  uint64_t MaxLive = 0;
};

/// Instrumented replay: identical allocator calls plus timeline sampling.
template <typename AllocatorT>
class InstrumentedBaselineConsumer
    : public ScheduleConsumer<InstrumentedBaselineConsumer<AllocatorT>> {
public:
  InstrumentedBaselineConsumer(AllocatorT &Allocator,
                               const AllocationTrace &Trace,
                               SimTelemetry *Telemetry)
      : Allocator(Allocator), Records(Trace.records().data()),
        Telemetry(Telemetry),
        Latency(Telemetry ? Telemetry->Latency : nullptr) {
    Addresses.resize(Trace.size());
  }

  void onAlloc(uint32_t Id, uint64_t Clock) {
    Addresses[Id] = timedAllocatorOp(Latency, LatencyRecorder::OpAlloc, [&] {
      return Allocator.allocate(Records[Id].Size);
    });
    raisePeak(MaxLive, Allocator.liveBytes());
    observeSample(Telemetry, Clock, Allocator, /*ArenaBytes=*/0);
  }

  void onFree(uint32_t Id, uint64_t Clock) {
    timedAllocatorOp(Latency, LatencyRecorder::OpFree,
                     [&] { Allocator.free(Addresses[Id]); });
    // Frees shatter and coalesce spans, so the observatory samples on
    // both event kinds — the trace tail is all frees, and alloc-only
    // sampling would never see the heap drain.
    observeSample(Telemetry, Clock, Allocator, /*ArenaBytes=*/0);
  }

  uint64_t maxLiveBytes() const { return MaxLive; }

private:
  AllocatorT &Allocator;
  const AllocRecord *Records;
  SimTelemetry *Telemetry;
  LatencyRecorder *Latency;
  std::vector<uint64_t> Addresses;
  uint64_t MaxLive = 0;
};

/// Runs a baseline replay over \p Compiled, instrumented only when
/// \p Telemetry is attached, and returns the max live bytes observed.
template <typename AllocatorT>
uint64_t replayBaseline(const CompiledTrace &Compiled, AllocatorT &Allocator,
                        SimTelemetry *Telemetry) {
  if (!Telemetry) {
    PlainBaselineConsumer<AllocatorT> Consumer(Allocator, Compiled.trace());
    forEachEvent(Compiled.schedule(), Consumer);
    return Consumer.maxLiveBytes();
  }
  InstrumentedBaselineConsumer<AllocatorT> Consumer(Allocator,
                                                    Compiled.trace(),
                                                    Telemetry);
  forEachEvent(Compiled.schedule(), Consumer);
  return Consumer.maxLiveBytes();
}

/// Uninstrumented arena replay: the predicted-short verdict is one bit
/// load, the allocate/free calls are non-virtual, nothing else happens.
/// Templated over the bits provider so the static lane
/// (PredictedShortBits) and the online dynamic-override lane
/// (DynamicRouteBits) replay through the identical code path.
template <typename BitsT>
class PlainArenaConsumer : public ScheduleConsumer<PlainArenaConsumer<BitsT>> {
public:
  PlainArenaConsumer(ArenaAllocator &Allocator, const AllocationTrace &Trace,
                     const BitsT &Predicted)
      : Allocator(Allocator), Records(Trace.records().data()),
        Predicted(Predicted) {
    Addresses.resize(Trace.size());
  }

  void onAlloc(uint32_t Id, uint64_t) {
    Addresses[Id] = Allocator.allocate(Records[Id].Size, Predicted.test(Id));
    raisePeak(MaxLive, Allocator.liveBytes());
  }

  void onFree(uint32_t Id, uint64_t) { Allocator.free(Addresses[Id]); }

  uint64_t maxLiveBytes() const { return MaxLive; }

private:
  ArenaAllocator &Allocator;
  const AllocRecord *Records;
  const BitsT &Predicted;
  std::vector<uint64_t> Addresses;
  uint64_t MaxLive = 0;
};

/// Instrumented arena replay: prediction outcomes, timeline, recorder.
template <typename BitsT>
class InstrumentedArenaConsumer
    : public ScheduleConsumer<InstrumentedArenaConsumer<BitsT>> {
public:
  InstrumentedArenaConsumer(ArenaAllocator &Allocator,
                            const AllocationTrace &Trace,
                            const SiteDatabase &DB,
                            const BitsT &Predicted,
                            SimTelemetry *Telemetry)
      : Allocator(Allocator), Records(Trace.records().data()), DB(DB),
        Predicted(Predicted), Telemetry(Telemetry),
        Recorder(Telemetry ? Telemetry->Recorder : nullptr),
        Latency(Telemetry ? Telemetry->Latency : nullptr) {
    Addresses.resize(Trace.size());
  }

  void onAlloc(uint32_t Id, uint64_t Clock) {
    const AllocRecord &Record = Records[Id];
    bool PredictedShort = Predicted.test(Id);
    if (Recorder)
      // Pin/reset callbacks fire from inside allocate(); give them the
      // clock this allocation will be recorded at.
      Recorder->beginEvent(Clock);
    Addresses[Id] = timedAllocatorOp(Latency, LatencyRecorder::OpAlloc, [&] {
      return Allocator.allocate(Record.Size, PredictedShort);
    });
    raisePeak(MaxLive, Allocator.liveBytes());
    if (Telemetry) {
      // NeverFreed is the maximal lifetime, so never-freed objects always
      // classify as actually long-lived.
      bool ActuallyShort = Record.Lifetime <= DB.threshold();
      Telemetry->Outcomes.add(PredictedShort, ActuallyShort);
      Telemetry->PerSite[Record.ChainIndex].add(PredictedShort, ActuallyShort);
      if (Telemetry->Drift)
        Telemetry->Drift->recordAlloc(Clock, Record.ChainIndex, Record.Size,
                                      PredictedShort, Record.Lifetime,
                                      ActuallyShort);
      observeSample(Telemetry, Clock, Allocator, Allocator.arenaLiveBytes());
    }
    if (Recorder) {
      AuditPlacement Placement;
      uint64_t Addr = Addresses[Id];
      if (Allocator.isArenaAddress(Addr)) {
        Placement.ArenaIndex = Allocator.arenaIndexFor(Addr);
        Placement.Generation = Allocator.arenaGeneration(Placement.ArenaIndex);
      }
      Recorder->recordAlloc(Id, Clock, Record.ChainIndex, Record.Size,
                            PredictedShort, DB.threshold(), Placement);
    }
  }

  void onFree(uint32_t Id, uint64_t Clock) {
    timedAllocatorOp(Latency, LatencyRecorder::OpFree,
                     [&] { Allocator.free(Addresses[Id]); });
    if (Telemetry)
      observeSample(Telemetry, Clock, Allocator, Allocator.arenaLiveBytes());
    if (Recorder)
      Recorder->recordFree(Id, Clock);
  }

  void onEnd(uint64_t Clock) {
    if (Recorder)
      Recorder->finish(Clock);
  }

  uint64_t maxLiveBytes() const { return MaxLive; }

private:
  ArenaAllocator &Allocator;
  const AllocRecord *Records;
  const SiteDatabase &DB;
  const BitsT &Predicted;
  SimTelemetry *Telemetry;
  FlightRecorder *Recorder;
  LatencyRecorder *Latency;
  std::vector<uint64_t> Addresses;
  uint64_t MaxLive = 0;
};

/// Shared arena replay body: identical allocator calls for either bits
/// provider, so the static and online lanes differ only in the verdict
/// each record carries.
template <typename BitsT>
ArenaSimResult simulateArenaWith(const CompiledTrace &Compiled,
                                 const SiteDatabase &DB,
                                 const BitsT &Predicted, double CallsPerAlloc,
                                 const CostModel &Costs,
                                 ArenaAllocator::Config Config,
                                 SimTelemetry *Telemetry) {
  ArenaAllocator Allocator(Config);
  if (Telemetry && Telemetry->Registry)
    Allocator.attachTelemetry(*Telemetry->Registry, "arena.");
  if (Telemetry && Telemetry->Recorder) {
    Telemetry->Recorder->setArenaGeometry(AuditPlacement::DefaultBand,
                                          Allocator.arenaBytes());
    Allocator.attachLifecycle(Telemetry->Recorder);
  }
  uint64_t MaxLive = 0;
  if (!Telemetry) {
    PlainArenaConsumer<BitsT> Consumer(Allocator, Compiled.trace(), Predicted);
    forEachEvent(Compiled.schedule(), Consumer);
    MaxLive = Consumer.maxLiveBytes();
  } else {
    InstrumentedArenaConsumer<BitsT> Consumer(Allocator, Compiled.trace(), DB,
                                              Predicted, Telemetry);
    forEachEvent(Compiled.schedule(), Consumer);
    MaxLive = Consumer.maxLiveBytes();
  }
  if (Telemetry && Telemetry->Registry) {
    Allocator.exportTelemetry(*Telemetry->Registry, "arena.");
    Telemetry->Outcomes.exportTelemetry(*Telemetry->Registry, "arena.pred.");
    raisePeak(Telemetry->Registry->gauge("arena.pred.sites"),
              Telemetry->PerSite.size());
    exportObservatory(Telemetry, "arena.");
  }

  ArenaSimResult Result;
  Result.MaxHeapBytes = Allocator.maxHeapBytes();
  Result.MaxLiveBytes = MaxLive;
  Result.Arena = Allocator.counters();
  Result.General = Allocator.general().counters();
  Result.InstrLen4 = Costs.arena(Result.Arena, Result.General,
                                 /*UseCce=*/false, CallsPerAlloc);
  Result.InstrCce = Costs.arena(Result.Arena, Result.General,
                                /*UseCce=*/true, CallsPerAlloc);
  return Result;
}

} // namespace

BaselineSimResult
lifepred::simulateFirstFit(const CompiledTrace &Compiled,
                           const CostModel &Costs,
                           FirstFitAllocator::Config Config,
                           SimTelemetry *Telemetry) {
  FirstFitAllocator Allocator(Config);
  if (Telemetry && Telemetry->Registry)
    Allocator.attachTelemetry(*Telemetry->Registry, "firstfit.");
  uint64_t MaxLive = replayBaseline(Compiled, Allocator, Telemetry);
  if (Telemetry && Telemetry->Registry) {
    Allocator.exportTelemetry(*Telemetry->Registry, "firstfit.");
    exportObservatory(Telemetry, "firstfit.");
  }

  BaselineSimResult Result;
  Result.MaxHeapBytes = Allocator.maxHeapBytes();
  Result.MaxLiveBytes = MaxLive;
  Result.FirstFit = Allocator.counters();
  Result.Instr = Costs.firstFit(Allocator.counters());
  return Result;
}

BaselineSimResult
lifepred::simulateFirstFit(const AllocationTrace &Trace,
                           const CostModel &Costs,
                           FirstFitAllocator::Config Config,
                           SimTelemetry *Telemetry) {
  return simulateFirstFit(CompiledTrace(Trace), Costs, Config, Telemetry);
}

BaselineSimResult lifepred::simulateBsd(const CompiledTrace &Compiled,
                                        const CostModel &Costs,
                                        BsdAllocator::Config Config,
                                        SimTelemetry *Telemetry) {
  BsdAllocator Allocator(Config);
  if (Telemetry && Telemetry->Registry)
    Allocator.attachTelemetry(*Telemetry->Registry, "bsd.");
  uint64_t MaxLive = replayBaseline(Compiled, Allocator, Telemetry);
  if (Telemetry && Telemetry->Registry) {
    Allocator.exportTelemetry(*Telemetry->Registry, "bsd.");
    exportObservatory(Telemetry, "bsd.");
  }

  BaselineSimResult Result;
  Result.MaxHeapBytes = Allocator.maxHeapBytes();
  Result.MaxLiveBytes = MaxLive;
  Result.Bsd = Allocator.counters();
  Result.Instr = Costs.bsd(Allocator.counters());
  return Result;
}

BaselineSimResult lifepred::simulateBsd(const AllocationTrace &Trace,
                                        const CostModel &Costs,
                                        BsdAllocator::Config Config,
                                        SimTelemetry *Telemetry) {
  return simulateBsd(CompiledTrace(Trace), Costs, Config, Telemetry);
}

ArenaSimResult lifepred::simulateArena(const CompiledTrace &Compiled,
                                       const SiteDatabase &DB,
                                       double CallsPerAlloc,
                                       const CostModel &Costs,
                                       ArenaAllocator::Config Config,
                                       SimTelemetry *Telemetry) {
  PredictedShortBits Predicted(Compiled, DB);
  return simulateArenaWith(Compiled, DB, Predicted, CallsPerAlloc, Costs,
                           Config, Telemetry);
}

ArenaSimResult lifepred::simulateArena(const CompiledTrace &Compiled,
                                       const SiteDatabase &DB,
                                       const DynamicRouteBits &Routes,
                                       double CallsPerAlloc,
                                       const CostModel &Costs,
                                       ArenaAllocator::Config Config,
                                       SimTelemetry *Telemetry) {
  return simulateArenaWith(Compiled, DB, Routes, CallsPerAlloc, Costs,
                           Config, Telemetry);
}

ArenaSimResult lifepred::simulateArena(const AllocationTrace &Trace,
                                       const SiteDatabase &DB,
                                       double CallsPerAlloc,
                                       const CostModel &Costs,
                                       ArenaAllocator::Config Config,
                                       SimTelemetry *Telemetry) {
  return simulateArena(CompiledTrace(Trace, DB.policy()), DB, CallsPerAlloc,
                       Costs, Config, Telemetry);
}

TrainedQuantileMap
lifepred::buildTrainedQuantiles(const AllocationTrace &Trace,
                                const Profile &Trained,
                                const SiteKeyPolicy &Policy) {
  TrainedQuantileMap Map;
  std::unordered_set<uint32_t> Seen;
  for (const AllocRecord &Record : Trace.records()) {
    if (!Seen.insert(Record.ChainIndex).second)
      continue;
    SiteKey Key = siteKey(Policy, Trace.chain(Record.ChainIndex), Record.Size,
                          Record.TypeId);
    auto It = Trained.Sites.find(Key);
    if (It == Trained.Sites.end())
      continue;
    const SiteStats &Stats = It->second;
    TrainedSiteQuantiles Quantiles;
    Quantiles.Objects = Stats.Objects;
    Quantiles.Q25 = Stats.Lifetimes.quantile(0.25);
    Quantiles.Q50 = Stats.Lifetimes.quantile(0.50);
    Quantiles.Q75 = Stats.Lifetimes.quantile(0.75);
    Map.emplace(Record.ChainIndex, Quantiles);
  }
  return Map;
}
