//===- sim/StreamReplay.h - Streamed schedule-file replay -------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays on-disk schedule files (trace/ScheduleFile.h): the billion-event
/// tier.  Three replay shapes, in increasing speed:
///
///  * **Sequential streamed** (streamSimulateFirstFit / streamSimulateBsd):
///    chunk-by-chunk replay making exactly the allocator calls the
///    in-memory simulators make, in exactly the same order, with the same
///    telemetry hooks.  Counters and the exported registry are therefore
///    byte-identical to simulateFirstFit/simulateBsd on the same trace —
///    the equivalence the schedule tests pin — while resident memory stays
///    O(chunk + live slots): each chunk's pages are dropped (madvise) once
///    replayed, and the address table is indexed by *slot*, whose count is
///    the live-object high-water mark, not the trace length.
///
///  * **Batched streamed** (streamSimulateBsdBatched): the Kingsley fast
///    path.  Events are processed in batches, stably partitioned by size
///    class (BatchedKingsley::replayBatched gives the invariance
///    argument), the per-class free lists are bitmaps
///    (support/BitmapFreeList.h), and the live map is a flat slot-indexed
///    array — no hash map on the hot path.  Counters and exported
///    registry values remain bit-identical to the sequential BSD replay;
///    live-byte peaks come from the file header.
///
///  * **Sharded** (streamReplayBsdSharded): shards of a *fixed* number of
///    chunks replay independently — each worker warms a fresh allocator
///    from the chunk's live-in table, then replays its chunks — and shard
///    telemetry merges in shard index order.  The partition depends only
///    on the file and ChunksPerShard, never on the worker count, so the
///    merged output is bit-identical at any --jobs.  Shard placement is
///    *not* the sequential placement (each shard's heap starts empty);
///    what sharding answers is throughput scaling, with self-consistent
///    per-shard telemetry.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_SIM_STREAMREPLAY_H
#define LIFEPRED_SIM_STREAMREPLAY_H

#include "alloc/BsdAllocator.h"
#include "alloc/CostModel.h"
#include "alloc/FirstFitAllocator.h"
#include "trace/ScheduleFile.h"

#include <cstdint>

namespace lifepred {
class HeapHeatmap;
}

namespace lifepred {

class ThreadPool;
class StatsRegistry;
struct SimTelemetry;

/// Results of one streamed baseline replay (mirrors BaselineSimResult).
struct StreamSimResult {
  uint64_t MaxHeapBytes = 0;
  uint64_t MaxLiveBytes = 0;
  uint64_t Events = 0; ///< Events replayed (the file's event count).
  FirstFitAllocator::Counters FirstFit;
  BsdAllocator::Counters Bsd;
  InstrPerOp Instr;
};

/// Streams \p File through a first-fit heap, chunk by chunk.  Telemetry
/// (registry prefix "firstfit.", timeline sampling) matches
/// simulateFirstFit byte-for-byte.
StreamSimResult streamSimulateFirstFit(
    const ScheduleFile &File, const CostModel &Costs = {},
    FirstFitAllocator::Config Config = FirstFitAllocator::Config(),
    SimTelemetry *Telemetry = nullptr);

/// Streams \p File through the BSD allocator, chunk by chunk.  Telemetry
/// (registry prefix "bsd.", timeline sampling) matches simulateBsd
/// byte-for-byte.
StreamSimResult streamSimulateBsd(
    const ScheduleFile &File, const CostModel &Costs = {},
    BsdAllocator::Config Config = BsdAllocator::Config(),
    SimTelemetry *Telemetry = nullptr);

/// The Kingsley grand-challenge fast path: batched size-class dispatch +
/// bitmap free lists + flat slot table.  Counters and the "bsd." registry
/// export are bit-identical to streamSimulateBsd/simulateBsd; MaxLiveBytes
/// is the file's precomputed peak.  \p Telemetry feeds the registry only
/// (no timeline: batching permutes clock order within a batch).
StreamSimResult streamSimulateBsdBatched(
    const ScheduleFile &File, const CostModel &Costs = {},
    BsdAllocator::Config Config = BsdAllocator::Config(),
    size_t BatchEvents = 8192, SimTelemetry *Telemetry = nullptr);

/// Results of a sharded replay.
struct ShardedBsdResult {
  BsdAllocator::Counters Totals; ///< Summed over shards (includes warm-up).
  uint64_t WarmupAllocs = 0;     ///< Live-in allocations, not trace events.
  uint64_t MaxLiveBytes = 0;     ///< The file's global live peak.
  uint64_t Events = 0;           ///< Trace events replayed (excl. warm-up).
  uint64_t Shards = 0;
};

/// Observatory configuration for the sharded replay, which runs one probe
/// set per shard (a SimTelemetry holds exactly one of each sink, so it
/// cannot express per-shard collection).  Per-shard probes export into the
/// registry under "shard." in shard index order; since the shard partition
/// is jobs-independent, so is every exported value.
struct StreamObserveConfig {
  /// Byte-clock stride of each shard's fragmentation probe.
  uint64_t FragStrideBytes = uint64_t(1) << 20;
  /// Sample period of each shard's latency recorder.
  uint32_t LatencyPeriod = 64;
  /// When non-null, each shard builds a heatmap with this sink's geometry
  /// and the results merge here cell-wise in shard index order — columns
  /// use the file's global byte clock, so shard columns align.
  HeapHeatmap *MergedHeatmap = nullptr;
};

/// Replays \p File as shards of \p ChunksPerShard consecutive chunks, fanned
/// across \p Pool.  Each shard runs the batched Kingsley core on a fresh
/// heap warmed from its first chunk's live-in table.  A non-null
/// \p Registry receives each shard's counters under "shard.", merged in
/// shard index order — the partition is a property of the file and
/// \p ChunksPerShard alone, so output is identical at any pool size.  A
/// non-null \p Observe additionally runs per-shard fragmentation probes,
/// latency recorders, and (optionally) heatmaps, exported the same way.
ShardedBsdResult streamReplayBsdSharded(
    const ScheduleFile &File, ThreadPool &Pool,
    BsdAllocator::Config Config = BsdAllocator::Config(),
    StatsRegistry *Registry = nullptr, uint64_t ChunksPerShard = 1,
    const StreamObserveConfig *Observe = nullptr);

} // namespace lifepred

#endif // LIFEPRED_SIM_STREAMREPLAY_H
