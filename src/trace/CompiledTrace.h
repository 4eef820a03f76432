//===- trace/CompiledTrace.h - Precompiled trace replay schedule -*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-time "trace compilation": the interleaved alloc/free event stream of
/// a trace, materialized as a flat structure-of-arrays schedule that can be
/// replayed any number of times with no per-event scheduling work and no
/// virtual dispatch.
///
/// The paper's entire evaluation is trace-driven replay, and the benches
/// replay the *same* trace dozens of times — threshold sweeps,
/// arena-fraction grids, chain-length ablations.  The interleaving of
/// births and deaths is a pure function of the trace (sizes and lifetimes),
/// independent of allocator and configuration, so replayTrace's per-replay
/// std::priority_queue death scheduling and per-event virtual TraceConsumer
/// call are pure overhead after the first replay.  Compiling once turns
/// every subsequent replay into a linear scan of two arrays.
///
/// Determinism: replayTrace (the reference oracle, see TraceReplayer.h)
/// pops deaths from a min-heap ordered by (death clock, object id) — ties
/// resolve to the earlier-born object — and a death fires before the first
/// allocation whose post-alloc clock strictly exceeds the death clock.
/// Because birth clocks are non-decreasing in object id and an object's
/// death clock is at least its birth clock, every death with clock D
/// strictly below an allocation's post-alloc clock B belongs to an object
/// born strictly earlier; the heap therefore always contains *all* not-yet-
/// emitted deaths below B when that allocation is processed.  A single
/// deterministic sort of the complete death set by (death clock, object id)
/// merged against the birth sequence hence reproduces the oracle's event
/// order bit-for-bit (asserted by differential tests in tests/sim_test.cpp).
/// The one precondition is that death clocks do not wrap uint64_t, which
/// holds for any real trace: lifetimes are measured in bytes allocated and
/// are bounded by the trace's total bytes (never-freed objects carry the
/// NeverFreed sentinel and enter no death set).  Compilation asserts this.
///
/// Memory footprint: 12 bytes per event (4-byte tagged object id + 8-byte
/// clock), i.e. ~23 MB per million trace records for a fully-freed trace
/// (two events per record).  Compare against re-running the priority queue:
/// the schedule is built once and shared read-only across every replay and
/// every bench worker thread.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_TRACE_COMPILEDTRACE_H
#define LIFEPRED_TRACE_COMPILEDTRACE_H

#include "callchain/SiteKey.h"
#include "trace/AllocationTrace.h"

#include <cstdint>
#include <vector>

namespace lifepred {

/// The interleaved alloc/free event stream of one trace, flattened.  Each
/// event is a tagged object id (high bit = free, low 31 bits = the record's
/// trace index) plus the byte clock of the event — for an allocation the
/// clock *after* it, for a free the object's death clock, exactly the
/// values replayTrace hands its consumer.
class EventSchedule {
public:
  /// Tag bit marking a free event in taggedIds(); traces are limited to
  /// 2^31 - 1 records (a multi-billion-object trace would not fit in
  /// memory long before this matters).
  static constexpr uint32_t FreeBit = 0x80000000u;

  EventSchedule() = default;

  /// Compiles \p Trace's event stream.  O(n log n) in the number of freed
  /// objects (one sort), run once per trace.
  explicit EventSchedule(const AllocationTrace &Trace);

  /// Number of events (allocations plus derived frees).
  size_t size() const { return TaggedIds.size(); }

  /// The byte clock after the last allocation (replayTrace's onEnd value).
  uint64_t endClock() const { return EndClock; }

  /// Sum of all allocation payload sizes (equals endClock()).
  uint64_t totalAllocBytes() const { return TotalAllocBytes; }

  bool isFree(size_t Event) const { return TaggedIds[Event] & FreeBit; }
  uint32_t objectId(size_t Event) const { return TaggedIds[Event] & ~FreeBit; }
  uint64_t clock(size_t Event) const { return Clocks[Event]; }

  /// Raw arrays for the replay core's hot loop.
  const uint32_t *taggedIds() const { return TaggedIds.data(); }
  const uint64_t *clocks() const { return Clocks.data(); }

  /// Bytes held by the schedule's arrays (see the footprint note above).
  uint64_t memoryBytes() const {
    return TaggedIds.capacity() * sizeof(uint32_t) +
           Clocks.capacity() * sizeof(uint64_t);
  }

private:
  std::vector<uint32_t> TaggedIds;
  std::vector<uint64_t> Clocks;
  uint64_t EndClock = 0;
  uint64_t TotalAllocBytes = 0;
};

/// A compiled trace: the event schedule plus the per-record artifacts the
/// simulators would otherwise re-derive on every replay — today the full
/// SiteKey of every record under one key policy (the table SiteKeyCache
/// used to rebuild per simulator).  Immutable once built; share it
/// read-only across threads and replay it as often as needed.  Holds a
/// pointer to the trace, which must outlive it.
class CompiledTrace {
public:
  CompiledTrace() = default;

  /// Compiles the schedule only (enough for the baseline simulators).
  explicit CompiledTrace(const AllocationTrace &Trace)
      : Source(&Trace), Schedule(Trace) {}

  /// Compiles the schedule plus per-record site keys under \p Policy.
  /// The key memo is a per-chain *sorted* small-vector probed by binary
  /// search, replacing SiteKeyCache's linear scan per record.
  CompiledTrace(const AllocationTrace &Trace, const SiteKeyPolicy &Policy);

  /// False for a default-constructed placeholder slot.
  bool valid() const { return Source != nullptr; }

  const AllocationTrace &trace() const { return *Source; }
  const EventSchedule &schedule() const { return Schedule; }

  /// True when site keys were compiled (the two-argument constructor).
  bool hasKeys() const { return HasKeys; }

  /// The policy the keys were compiled under.  Only valid with hasKeys().
  const SiteKeyPolicy &keyPolicy() const { return Policy; }

  /// The full site key of record \p Id.  Only valid with hasKeys().
  SiteKey keyFor(uint64_t Id) const { return RecordKeys[Id]; }

  /// All record keys in trace order.  Only valid with hasKeys().
  const std::vector<SiteKey> &recordKeys() const { return RecordKeys; }

private:
  const AllocationTrace *Source = nullptr;
  EventSchedule Schedule;
  SiteKeyPolicy Policy;
  bool HasKeys = false;
  std::vector<SiteKey> RecordKeys;
};

/// Optional CRTP convenience base for forEachEvent consumers: supplies the
/// no-op onEnd so consumers that do not care about the final clock need not
/// declare it.
template <typename DerivedT> class ScheduleConsumer {
public:
  void onEnd(uint64_t Clock) { (void)Clock; }
};

/// Replays \p Schedule into \p Consumer with no virtual dispatch.  The
/// consumer provides onAlloc(uint32_t Id, uint64_t Clock), onFree(uint32_t
/// Id, uint64_t Clock), and onEnd(uint64_t Clock); calls inline into the
/// loop, so an uninstrumented consumer compiles to a branch-lean scan of
/// the two schedule arrays.  Event order is bit-identical to replayTrace's.
template <typename ConsumerT>
inline void forEachEvent(const EventSchedule &Schedule, ConsumerT &&Consumer) {
  const uint32_t *Ids = Schedule.taggedIds();
  const uint64_t *Clocks = Schedule.clocks();
  const size_t Count = Schedule.size();
  for (size_t Event = 0; Event < Count; ++Event) {
    uint32_t Tagged = Ids[Event];
    if (Tagged & EventSchedule::FreeBit)
      Consumer.onFree(Tagged & ~EventSchedule::FreeBit, Clocks[Event]);
    else
      Consumer.onAlloc(Tagged, Clocks[Event]);
  }
  Consumer.onEnd(Schedule.endClock());
}

} // namespace lifepred

#endif // LIFEPRED_TRACE_COMPILEDTRACE_H
