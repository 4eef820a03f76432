//===- sim/StreamReplay.cpp - Streamed schedule-file replay ----------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/StreamReplay.h"

#include "sim/SimTelemetry.h"
#include "support/BitmapFreeList.h"
#include "support/MathExtras.h"
#include "support/ThreadPool.h"
#include "telemetry/FragmentationProbe.h"
#include "telemetry/HeapHeatmap.h"
#include "telemetry/LatencyRecorder.h"
#include "trace/CompiledTrace.h"

#include <algorithm>
#include <vector>

using namespace lifepred;

namespace {

/// Sequential chunk-by-chunk replay of \p File into \p Allocator — the same
/// allocator calls, in the same order, as the in-memory consumers, with a
/// slot-indexed address table instead of an O(trace) id-indexed one.
/// Returns the observed live-byte peak.
template <bool Instrumented, typename AllocatorT>
uint64_t replayStream(const ScheduleFile &File, AllocatorT &Allocator,
                      SimTelemetry *Telemetry) {
  std::vector<uint64_t> Slots(File.slotCount());
  uint64_t MaxLive = 0;
  LatencyRecorder *Latency =
      Instrumented && Telemetry ? Telemetry->Latency : nullptr;
  File.adviseSequential();
  for (uint64_t Chunk = 0; Chunk < File.chunkCount(); ++Chunk) {
    const ScheduleEvent *Events = File.chunkEvents(Chunk);
    const uint64_t Count = File.chunk(Chunk).EventCount;
    for (uint64_t I = 0; I < Count; ++I) {
      const ScheduleEvent &Event = Events[I];
      if (Event.TaggedSlot & EventSchedule::FreeBit) {
        timedAllocatorOp(Latency, LatencyRecorder::OpFree, [&] {
          Allocator.free(Slots[Event.TaggedSlot & ~EventSchedule::FreeBit]);
        });
        // Frees sample too, matching the in-memory consumers: the trace
        // tail is all frees and the observatory must see the heap drain.
        if (Instrumented)
          observeSample(Telemetry, Event.Clock, Allocator, /*ArenaBytes=*/0);
      } else {
        Slots[Event.TaggedSlot] =
            timedAllocatorOp(Latency, LatencyRecorder::OpAlloc,
                             [&] { return Allocator.allocate(Event.Size); });
        raisePeak(MaxLive, Allocator.liveBytes());
        if (Instrumented)
          observeSample(Telemetry, Event.Clock, Allocator, /*ArenaBytes=*/0);
      }
    }
    File.dropChunk(Chunk);
  }
  return MaxLive;
}

template <typename AllocatorT>
uint64_t replayStream(const ScheduleFile &File, AllocatorT &Allocator,
                      SimTelemetry *Telemetry) {
  if (Telemetry)
    return replayStream<true>(File, Allocator, Telemetry);
  return replayStream<false>(File, Allocator, nullptr);
}

/// The batched Kingsley replay core: BsdAllocator's exact accounting with
/// bitmap free lists and a flat slot-indexed live table — no hash map.
/// Shared by the single-heap fast path and the sharded workers.
class BatchedKingsley {
public:
  static constexpr uint32_t BucketCount = 40;

  BatchedKingsley(BsdAllocator::Config C, uint64_t SlotCount)
      : Cfg(C), HeapEnd(C.BaseAddress) {
    Buckets.resize(BucketCount);
    for (uint32_t Bucket = 0; Bucket < BucketCount; ++Bucket)
      Buckets[Bucket].configure(blockBytes(Bucket), extentBytes(Bucket) >>
                                                        Bucket);
    Slots.resize(SlotCount);
    SlotEpoch.resize(SlotCount, 0);
    SlotVreg.resize(SlotCount, 0);
  }

  uint32_t bucketFor(uint32_t Size) const {
    uint64_t Need = Size + Cfg.HeaderBytes;
    if (Need < Cfg.MinBlockBytes)
      Need = Cfg.MinBlockBytes;
    return log2Ceil(Need);
  }

  uint64_t allocCell(uint32_t Size, uint32_t Bucket) {
    ++Stats.Allocs;
    Stats.BucketBits += Bucket;
    BitmapFreeList &FreeList = Buckets[Bucket];
    if (FreeList.empty()) {
      ++Stats.PageRefills;
      FreeList.addExtent(HeapEnd);
      HeapEnd += extentBytes(Bucket);
      raisePeak(MaxHeap, heapBytes());
    }
    LiveBytes += Size;
    if (ClassBytesHist)
      ClassBytesHist->record(blockBytes(Bucket));
    return FreeList.pop();
  }

  void allocSlot(uint32_t Slot, uint32_t Size, uint32_t Bucket) {
    Slots[Slot] = allocCell(Size, Bucket);
  }

  /// Replays \p Count events in batches of \p BatchEvents, each batch
  /// stably partitioned by size class.  The partition is *stable*, so
  /// within one class the event order is exactly the sequential order.
  /// Any observable that is (a) a per-class function of its class's
  /// subsequence or (b) a commutative aggregate across events — every
  /// Kingsley counter, final heap/live/free-block state, and the
  /// class-size histogram — is therefore bit-identical to the sequential
  /// replay.  Trajectories that mix classes at sub-batch granularity
  /// (live-byte peaks, timeline samples) are not preserved; the caller
  /// reads the live-byte peak from the file header instead.
  ///
  /// Slot aliasing: the writer recycles slots LIFO, so one batch routinely
  /// holds a free of object A and an alloc of object B on the *same* slot.
  /// If A and B sit in different size classes, class-order execution could
  /// run B's alloc before A's free and the slot table would hand B's block
  /// to A's free — a cross-class corruption the sequential replay can
  /// never produce.  The cure is register renaming: a pre-pass in original
  /// order gives every event a batch-local *cell* (a free whose object
  /// predates the batch snapshots the persistent table into a fresh cell
  /// before anything can overwrite it; A's own free always lands in A's
  /// class, so within-class order covers the rest), class-order execution
  /// touches only cells, and a write-back pass applies the slot table's
  /// last-alloc-wins in original order.  Renaming never changes which
  /// allocator calls run per class, or their order, so the invariance
  /// argument is untouched.
  void replayBatched(const ScheduleEvent *Events, uint64_t Count,
                     size_t BatchEvents) {
    if (BatchEvents == 0)
      BatchEvents = 1;
    RouteOf.resize(BatchEvents);
    Staged.resize(BatchEvents);
    Sorted.resize(BatchEvents);
    Vreg.resize(BatchEvents);
    Cells.resize(BatchEvents); // One cell per event, at most.
    for (uint64_t Begin = 0; Begin < Count; Begin += BatchEvents) {
      const uint64_t Batch =
          std::min<uint64_t>(BatchEvents, Count - Begin);
      ++Epoch;
      uint32_t NewCell = 0;
      uint32_t Offsets[BucketCount + 1] = {};
      // Renaming pre-pass, original order.  Each event is decoded exactly
      // once into an 8-byte record — free bit | cell | size — so the later
      // passes never touch the 16-byte ScheduleEvent again.  The free/alloc
      // split is a coin-flip branch in a hot loop, so it is compiled away:
      // the only real branch left is the carry-in snapshot, which fires once
      // per object that outlives a batch boundary.
      for (uint64_t I = 0; I < Batch; ++I) {
        const ScheduleEvent &Event = Events[Begin + I];
        const bool IsFree = Event.TaggedSlot & EventSchedule::FreeBit;
        const uint32_t Slot = Event.TaggedSlot & ~EventSchedule::FreeBit;
        const uint32_t Bucket = bucketFor(Event.Size);
        RouteOf[I] = static_cast<uint8_t>(Bucket);
        ++Offsets[Bucket + 1];
        if (IsFree && SlotEpoch[Slot] != Epoch) {
          // Object allocated before this batch: snapshot its address into a
          // fresh cell before any in-batch alloc can overwrite the slot.
          SlotVreg[Slot] = NewCell;
          Cells[NewCell++] = Slots[Slot];
        }
        const uint32_t Cell = IsFree ? SlotVreg[Slot] : NewCell;
        SlotEpoch[Slot] = Epoch;   // Idempotent for non-carry-in frees.
        SlotVreg[Slot] = Cell;     // Ditto.
        Vreg[I] = Cell;            // Write-back reads it for allocs only.
        NewCell += !IsFree;
        Staged[I] = (uint64_t(IsFree) << 63) | (uint64_t(Cell) << 32) |
                    Event.Size;
      }
      for (uint32_t Bucket = 0; Bucket < BucketCount; ++Bucket)
        Offsets[Bucket + 1] += Offsets[Bucket];
      for (uint64_t I = 0; I < Batch; ++I)
        Sorted[Offsets[RouteOf[I]]++] = Staged[I];
      // Class-order execution against the renamed cells, one size-class
      // segment at a time: the free list, stats, and block size are loop
      // invariants of a segment, so the inner loop is just the bitmap op.
      uint64_t SegStart = 0;
      for (uint32_t Bucket = 0; Bucket < BucketCount; ++Bucket) {
        const uint64_t SegEnd = Offsets[Bucket]; // Post-scatter: segment end.
        if (SegEnd == SegStart)
          continue;
        BitmapFreeList &FreeList = Buckets[Bucket];
        uint64_t SegAllocs = 0;
        int64_t SegBytes = 0;
        for (uint64_t J = SegStart; J < SegEnd; ++J) {
          const uint64_t Record = Sorted[J];
          const uint32_t Cell = uint32_t(Record >> 32) & CellMask;
          if (Record & FreeRecordBit) {
            SegBytes -= uint32_t(Record);
            timedAllocatorOp(Latency, LatencyRecorder::OpFree,
                             [&] { FreeList.push(Cells[Cell]); });
          } else {
            SegBytes += uint32_t(Record);
            Cells[Cell] =
                timedAllocatorOp(Latency, LatencyRecorder::OpAlloc, [&] {
                  if (FreeList.empty()) {
                    ++Stats.PageRefills;
                    FreeList.addExtent(HeapEnd);
                    HeapEnd += extentBytes(Bucket);
                    raisePeak(MaxHeap, heapBytes());
                  }
                  return FreeList.pop();
                });
            ++SegAllocs;
          }
        }
        const uint64_t SegFrees = (SegEnd - SegStart) - SegAllocs;
        Stats.Allocs += SegAllocs;
        Stats.Frees += SegFrees;
        Stats.BucketBits += SegAllocs * Bucket;
        LiveBytes += SegBytes;
        if (ClassBytesHist) // A histogram is order-blind, so bulk-record.
          for (uint64_t K = 0; K < SegAllocs; ++K)
            ClassBytesHist->record(blockBytes(Bucket));
        SegStart = SegEnd;
      }
      // Write-back, original order: the slot table's last alloc wins.  The
      // store is unconditional — frees are steered to a scratch word — so
      // this pass, too, carries no data-dependent branch.
      for (uint64_t I = 0; I < Batch; ++I) {
        const ScheduleEvent &Event = Events[Begin + I];
        uint64_t *Dest = (Event.TaggedSlot & EventSchedule::FreeBit)
                             ? &ScratchSlot
                             : &Slots[Event.TaggedSlot];
        *Dest = Cells[Vreg[I]];
      }
    }
  }

  void attachTelemetry(StatsRegistry &Registry, const std::string &Prefix) {
    ClassBytesHist = &Registry.histogram(Prefix + "class_bytes");
  }

  /// Attaches a latency recorder; null detaches (one predictable branch per
  /// replayed record when detached).
  void attachObservatory(LatencyRecorder *Recorder) { Latency = Recorder; }

  /// Feeds one stride-gated fragmentation sample at \p Clock.  A size-class
  /// heap has no span coalescing, so the per-class free/live block counts
  /// *are* the span population: O(BucketCount), no bitmap walk.
  void sampleFragmentation(FragmentationProbe &Probe, uint64_t Clock) const {
    if (!Probe.due(Clock))
      return;
    Probe.beginSample(Clock, heapBytes(), LiveBytes);
    for (uint32_t Bucket = 0; Bucket < BucketCount; ++Bucket) {
      const BitmapFreeList &FreeList = Buckets[Bucket];
      Probe.addFreeSpans(blockBytes(Bucket), FreeList.freeCount());
      Probe.addLiveSpans(blockBytes(Bucket),
                         FreeList.blockCount() - FreeList.freeCount());
    }
    Probe.endSample();
  }

  /// Feeds one stride-gated heatmap column at \p Clock by walking every
  /// class's allocated-block bitmap.  O(blocks) — chunk-boundary callers
  /// only, never the per-event path.
  void sampleHeatmap(HeapHeatmap &Map, uint64_t Clock) const {
    if (!Map.due(Clock))
      return;
    Map.beginColumn(Clock);
    for (uint32_t Bucket = 0; Bucket < BucketCount; ++Bucket) {
      const uint64_t Bytes = blockBytes(Bucket);
      Buckets[Bucket].forEachLive(
          [&Map, Bytes](uint64_t Address) { Map.addSpan(Address, Bytes); });
    }
    Map.endColumn();
  }

  /// Same keys and values as BsdAllocator::exportTelemetry.
  void exportTelemetry(StatsRegistry &Registry,
                       const std::string &Prefix) const {
    Registry.counter(Prefix + "allocs") += Stats.Allocs;
    Registry.counter(Prefix + "frees") += Stats.Frees;
    Registry.counter(Prefix + "page_refills") += Stats.PageRefills;
    Registry.counter(Prefix + "bucket_bits") += Stats.BucketBits;
    raisePeak(Registry.gauge(Prefix + "heap_bytes"), heapBytes());
    raisePeak(Registry.gauge(Prefix + "max_heap_bytes"), MaxHeap);
    raisePeak(Registry.gauge(Prefix + "live_bytes"), LiveBytes);
    raisePeak(Registry.gauge(Prefix + "free_blocks"), freeBlockCount());
  }

  uint64_t heapBytes() const { return HeapEnd - Cfg.BaseAddress; }
  uint64_t maxHeapBytes() const { return MaxHeap; }
  uint64_t liveBytes() const { return LiveBytes; }
  uint64_t freeBlockCount() const {
    uint64_t Count = 0;
    for (const BitmapFreeList &FreeList : Buckets)
      Count += FreeList.freeCount();
    return Count;
  }
  const BsdAllocator::Counters &counters() const { return Stats; }

private:
  uint64_t blockBytes(uint32_t Bucket) const { return uint64_t(1) << Bucket; }
  uint64_t extentBytes(uint32_t Bucket) const {
    uint64_t Block = blockBytes(Bucket);
    return Block >= Cfg.PageBytes ? Block : Cfg.PageBytes;
  }

  BsdAllocator::Config Cfg;
  BsdAllocator::Counters Stats;
  Log2Histogram *ClassBytesHist = nullptr;
  LatencyRecorder *Latency = nullptr;
  std::vector<BitmapFreeList> Buckets;
  /// Packed batch record: bit 63 = free, bits 32..62 = cell, low 32 = size.
  static constexpr uint64_t FreeRecordBit = uint64_t(1) << 63;
  static constexpr uint32_t CellMask = 0x7fffffff;

  std::vector<uint64_t> Slots;  ///< Address by slot (the live table).
  std::vector<uint8_t> RouteOf; ///< Event -> size class, for the scatter.
  std::vector<uint64_t> Staged; ///< Records in original order.
  std::vector<uint64_t> Sorted; ///< Records grouped by size class.
  std::vector<uint32_t> Vreg;   ///< Alloc event -> cell, for write-back.
  std::vector<uint64_t> Cells;     ///< Renamed addresses, one batch's worth.
  std::vector<uint64_t> SlotEpoch; ///< Batch stamp of SlotVreg's validity.
  std::vector<uint32_t> SlotVreg;  ///< Slot -> its current cell this batch.
  uint64_t ScratchSlot = 0;        ///< Write-back target for free events.
  uint64_t Epoch = 0;
  uint64_t HeapEnd;
  uint64_t MaxHeap = 0;
  uint64_t LiveBytes = 0;
};

} // namespace

StreamSimResult lifepred::streamSimulateFirstFit(
    const ScheduleFile &File, const CostModel &Costs,
    FirstFitAllocator::Config Config, SimTelemetry *Telemetry) {
  FirstFitAllocator Allocator(Config);
  if (Telemetry && Telemetry->Registry)
    Allocator.attachTelemetry(*Telemetry->Registry, "firstfit.");
  uint64_t MaxLive = replayStream(File, Allocator, Telemetry);
  if (Telemetry && Telemetry->Registry) {
    Allocator.exportTelemetry(*Telemetry->Registry, "firstfit.");
    exportObservatory(Telemetry, "firstfit.");
  }

  StreamSimResult Result;
  Result.MaxHeapBytes = Allocator.maxHeapBytes();
  Result.MaxLiveBytes = MaxLive;
  Result.Events = File.eventCount();
  Result.FirstFit = Allocator.counters();
  Result.Instr = Costs.firstFit(Allocator.counters());
  return Result;
}

StreamSimResult lifepred::streamSimulateBsd(const ScheduleFile &File,
                                            const CostModel &Costs,
                                            BsdAllocator::Config Config,
                                            SimTelemetry *Telemetry) {
  BsdAllocator Allocator(Config);
  if (Telemetry && Telemetry->Registry)
    Allocator.attachTelemetry(*Telemetry->Registry, "bsd.");
  uint64_t MaxLive = replayStream(File, Allocator, Telemetry);
  if (Telemetry && Telemetry->Registry) {
    Allocator.exportTelemetry(*Telemetry->Registry, "bsd.");
    exportObservatory(Telemetry, "bsd.");
  }

  StreamSimResult Result;
  Result.MaxHeapBytes = Allocator.maxHeapBytes();
  Result.MaxLiveBytes = MaxLive;
  Result.Events = File.eventCount();
  Result.Bsd = Allocator.counters();
  Result.Instr = Costs.bsd(Allocator.counters());
  return Result;
}

StreamSimResult lifepred::streamSimulateBsdBatched(
    const ScheduleFile &File, const CostModel &Costs,
    BsdAllocator::Config Config, size_t BatchEvents,
    SimTelemetry *Telemetry) {
  BatchedKingsley Core(Config, File.slotCount());
  if (Telemetry && Telemetry->Registry)
    Core.attachTelemetry(*Telemetry->Registry, "bsd.");
  if (Telemetry)
    Core.attachObservatory(Telemetry->Latency);
  File.adviseSequential();
  for (uint64_t Chunk = 0; Chunk < File.chunkCount(); ++Chunk) {
    const uint64_t Count = File.chunk(Chunk).EventCount;
    Core.replayBatched(File.chunkEvents(Chunk), Count, BatchEvents);
    // Observatory samples land on chunk boundaries (the clock of the
    // chunk's last event): batching permutes order *within* a batch, but a
    // chunk boundary is a batch boundary, where heap state is placement-
    // consistent with the sequential replay's size-class view.
    if (Telemetry && Count != 0) {
      const uint64_t Clock = File.chunkEvents(Chunk)[Count - 1].Clock;
      if (Telemetry->Fragmentation)
        Core.sampleFragmentation(*Telemetry->Fragmentation, Clock);
      if (Telemetry->Heatmap)
        Core.sampleHeatmap(*Telemetry->Heatmap, Clock);
    }
    File.dropChunk(Chunk);
  }
  if (Telemetry && Telemetry->Registry) {
    Core.exportTelemetry(*Telemetry->Registry, "bsd.");
    exportObservatory(Telemetry, "bsd.");
  }

  StreamSimResult Result;
  Result.MaxHeapBytes = Core.maxHeapBytes();
  Result.MaxLiveBytes = File.maxLiveBytes();
  Result.Events = File.eventCount();
  Result.Bsd = Core.counters();
  Result.Instr = Costs.bsd(Core.counters());
  return Result;
}

ShardedBsdResult lifepred::streamReplayBsdSharded(
    const ScheduleFile &File, ThreadPool &Pool, BsdAllocator::Config Config,
    StatsRegistry *Registry, uint64_t ChunksPerShard,
    const StreamObserveConfig *Observe) {
  if (ChunksPerShard == 0)
    ChunksPerShard = 1;
  const uint64_t ChunkCount = File.chunkCount();
  const uint64_t ShardCount =
      (ChunkCount + ChunksPerShard - 1) / ChunksPerShard;

  struct ShardOut {
    BsdAllocator::Counters Counters;
    uint64_t MaxHeap = 0;
    uint64_t LiveBytes = 0;
    uint64_t FreeBlocks = 0;
    uint64_t HeapBytes = 0;
    uint64_t Warmup = 0;
    uint64_t Events = 0;
  };
  std::vector<ShardOut> Outs(ShardCount);

  // Per-shard observatory sinks, constructed up front and merged with the
  // rest of the shard telemetry in shard index order.
  std::vector<FragmentationProbe> Probes;
  std::vector<LatencyRecorder> Latencies;
  std::vector<HeapHeatmap> Heatmaps;
  if (Observe) {
    Probes.reserve(ShardCount);
    Latencies.reserve(ShardCount);
    if (Observe->MergedHeatmap)
      Heatmaps.reserve(ShardCount);
    for (uint64_t Shard = 0; Shard < ShardCount; ++Shard) {
      Probes.emplace_back(Observe->FragStrideBytes);
      Latencies.emplace_back(Observe->LatencyPeriod);
      if (Observe->MergedHeatmap)
        Heatmaps.emplace_back(Observe->MergedHeatmap->config());
    }
  }

  parallelForIndex(Pool, ShardCount, [&](size_t Shard) {
    const uint64_t First = Shard * ChunksPerShard;
    const uint64_t Last = std::min(First + ChunksPerShard, ChunkCount);
    BatchedKingsley Core(Config, File.slotCount());
    if (Observe)
      Core.attachObservatory(&Latencies[Shard]);
    // Warm-up: re-create the live set at the shard's entry so the frees it
    // will replay have blocks to release.  These allocations are heap
    // machinery, not trace events; they are counted separately.
    const ScheduleChunkInfo &Entry = File.chunk(First);
    const ScheduleLiveIn *LiveIn = File.chunkLiveIn(First);
    for (uint64_t I = 0; I < Entry.LiveInCount; ++I)
      Core.allocSlot(LiveIn[I].Slot, LiveIn[I].Size,
                     Core.bucketFor(LiveIn[I].Size));
    ShardOut &Out = Outs[Shard];
    Out.Warmup = Entry.LiveInCount;
    for (uint64_t Chunk = First; Chunk < Last; ++Chunk) {
      const uint64_t Count = File.chunk(Chunk).EventCount;
      Core.replayBatched(File.chunkEvents(Chunk), Count,
                         /*BatchEvents=*/8192);
      if (Observe && Count != 0) {
        // Chunk boundaries use the file's global byte clock, so shard
        // samples land on a common grid and shard heatmap columns align.
        const uint64_t Clock = File.chunkEvents(Chunk)[Count - 1].Clock;
        Core.sampleFragmentation(Probes[Shard], Clock);
        if (!Heatmaps.empty())
          Core.sampleHeatmap(Heatmaps[Shard], Clock);
      }
      Out.Events += Count;
      File.dropChunk(Chunk);
    }
    Out.Counters = Core.counters();
    Out.MaxHeap = Core.maxHeapBytes();
    Out.LiveBytes = Core.liveBytes();
    Out.FreeBlocks = Core.freeBlockCount();
    Out.HeapBytes = Core.heapBytes();
  });

  // Merge in shard index order: the partition (and hence this loop's
  // sequence of registry operations) depends only on the file and
  // ChunksPerShard, never on the pool size.
  ShardedBsdResult Result;
  Result.Shards = ShardCount;
  Result.MaxLiveBytes = File.maxLiveBytes();
  for (const ShardOut &Out : Outs) {
    Result.Totals.Allocs += Out.Counters.Allocs;
    Result.Totals.Frees += Out.Counters.Frees;
    Result.Totals.PageRefills += Out.Counters.PageRefills;
    Result.Totals.BucketBits += Out.Counters.BucketBits;
    Result.WarmupAllocs += Out.Warmup;
    Result.Events += Out.Events;
    if (Registry) {
      Registry->counter("shard.allocs") += Out.Counters.Allocs;
      Registry->counter("shard.frees") += Out.Counters.Frees;
      Registry->counter("shard.page_refills") += Out.Counters.PageRefills;
      Registry->counter("shard.bucket_bits") += Out.Counters.BucketBits;
      Registry->counter("shard.warmup_allocs") += Out.Warmup;
      raisePeak(Registry->gauge("shard.heap_bytes"), Out.HeapBytes);
      raisePeak(Registry->gauge("shard.max_heap_bytes"), Out.MaxHeap);
      raisePeak(Registry->gauge("shard.live_bytes"), Out.LiveBytes);
      raisePeak(Registry->gauge("shard.free_blocks"), Out.FreeBlocks);
      if (Observe) {
        const size_t Shard = &Out - Outs.data();
        Probes[Shard].exportTelemetry(*Registry, "shard.");
        Latencies[Shard].exportTelemetry(*Registry, "shard.");
      }
    }
  }
  if (Observe && Observe->MergedHeatmap) {
    for (const HeapHeatmap &Map : Heatmaps)
      Observe->MergedHeatmap->merge(Map);
    if (Registry)
      Observe->MergedHeatmap->exportTelemetry(*Registry, "shard.");
  }
  if (Registry)
    raisePeak(Registry->gauge("shard.count"), ShardCount);
  return Result;
}
