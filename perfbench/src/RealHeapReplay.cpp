//===- perfbench/src/RealHeapReplay.cpp - The realheap-replay workload ----===//
//
// Only the runtime and callchain layers work in this pass.  Set-up
// generates the traces, trains length-4 databases on the train traces and
// compiles the test schedules.  Each pass builds a fresh PredictingHeap
// per program and drives the test trace's alloc and free events through
// allocate() and deallocate(), keeping the thread's shadow stack on each
// record's call chain.  Every object carries a tag checked at its free.
//
//===----------------------------------------------------------------------===//

#include "ShadowChain.h"
#include "Workload.h"

#include "core/Trainer.h"
#include "runtime/PredictingHeap.h"
#include "sim/TraceSimulator.h"
#include "workloads/PaperData.h"

#include <algorithm>
#include <cstring>
#include <new>

using namespace lifepred;
using namespace perfbench;

namespace {

uint64_t tagFor(uint32_t Id) {
  return (static_cast<uint64_t>(Id) + 1) * 0x9E3779B97F4A7C15ull;
}

size_t tagBytes(uint32_t Size) { return std::min<size_t>(Size, sizeof(uint64_t)); }

void writeTag(void *Ptr, uint32_t Size, uint32_t Id) {
  uint64_t Tag = tagFor(Id);
  std::memcpy(Ptr, &Tag, tagBytes(Size));
}

bool tagIntact(const void *Ptr, uint32_t Size, uint32_t Id) {
  uint64_t Tag = tagFor(Id);
  return std::memcmp(Ptr, &Tag, tagBytes(Size)) == 0;
}

struct HeapProgram {
  SiteDatabase DB;
  std::unique_ptr<CompiledTrace> Test; ///< Keys under the length-4 policy.
  double CallsPerAlloc = 0.0;
  PredictingHeap::Stats LastStats;     ///< From the latest pass.
};

/// Per-call timings of the traced pass.
struct CallTimes {
  NanosHistogram Allocate[2]; ///< [0] general, [1] arena.
  NanosHistogram Deallocate[2];
};

class RealHeapReplay : public Workload {
public:
  using Workload::Workload;

  void setup(LayerValues &Layers) override;
  std::vector<double> runPass(LayerValues &Layers) override;
  void traceExtras(LayerValues &Layers) override;

  double paperErrorPercent() const override;

private:
  template <bool Traced>
  void replayProgram(size_t Index, LayerValues &L);
  void opNewReference(LayerValues &L);

  const SiteKeyPolicy Policy = SiteKeyPolicy::lastN(4);
  std::vector<HeapProgram> Programs;
  std::vector<void *> Ptrs; ///< Live pointer per record id.
  CallTimes Calls;
};

void RealHeapReplay::setup(LayerValues &L) {
  Programs.clear();
  Inputs.clear();
  Inputs = generateInputs(Opts, T, L);
  size_t MaxRecords = 0;
  for (const auto &In : Inputs) {
    HeapProgram P;
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
    }
    L["core.db_sites"] += static_cast<double>(P.DB.size());
    {
      StageTimer Timer(T, L, "trace.compile_s", "trace.compile", "trace");
      P.Test = std::make_unique<CompiledTrace>(In->Test, Policy);
    }
    addCompileStats(*P.Test, L);
    MaxRecords = std::max(MaxRecords, In->Test.size());
    Programs.push_back(std::move(P));
  }
  Ptrs.assign(MaxRecords, nullptr);
}

template <bool Traced>
void RealHeapReplay::replayProgram(size_t Index, LayerValues &L) {
  HeapProgram &P = Programs[Index];
  const std::string &Name = Inputs[Index]->Model.Name;
  const AllocationTrace &Trace = P.Test->trace();
  const AllocRecord *Records = Trace.records().data();
  const EventSchedule &Schedule = P.Test->schedule();
  const uint32_t *Ids = Schedule.taggedIds();
  const size_t Count = Schedule.size();

  PredictingHeap Heap(P.DB);
  ShadowChain Chain(ShadowStack::current());
  uint64_t NullReturns = 0, BrokenTags = 0, Pushed = 0;
  int64_t HarnessNanos = 0, HeapNanos = 0;

  for (size_t Event = 0; Event < Count; ++Event) {
    uint32_t Tagged = Ids[Event];
    uint32_t Id = Tagged & ~EventSchedule::FreeBit;
    const AllocRecord &R = Records[Id];
    if (Tagged & EventSchedule::FreeBit) {
      void *Ptr = Ptrs[Id];
      if (!Ptr)
        continue; // Its allocation already failed.
      if (!tagIntact(Ptr, R.Size, Id))
        ++BrokenTags;
      if constexpr (Traced) {
        bool InArena = Heap.isArenaPointer(Ptr);
        int64_t Start = nowNanos();
        Heap.deallocate(Ptr);
        int64_t Nanos = nowNanos() - Start;
        Calls.Deallocate[InArena].record(Nanos);
        HeapNanos += Nanos;
      } else {
        Heap.deallocate(Ptr);
      }
      Ptrs[Id] = nullptr;
      continue;
    }
    void *Ptr;
    if constexpr (Traced) {
      int64_t Start = nowNanos();
      Pushed += Chain.moveTo(Trace.chain(R.ChainIndex).functions());
      int64_t Mid = nowNanos();
      Ptr = Heap.allocate(R.Size);
      int64_t End = nowNanos();
      HarnessNanos += Mid - Start;
      HeapNanos += End - Mid;
      Calls.Allocate[Heap.isArenaPointer(Ptr)].record(End - Mid);
    } else {
      Chain.moveTo(Trace.chain(R.ChainIndex).functions());
      Ptr = Heap.allocate(R.Size);
    }
    if (!Ptr) {
      ++NullReturns;
      continue;
    }
    writeTag(Ptr, R.Size, Id);
    Ptrs[Id] = Ptr;
  }

  std::string Error;
  C.check(Heap.auditInvariants(Error), Name + ": heap audit: " + Error);

  // Objects alive at exit have no free event; release them here.
  uint64_t Leftover = 0;
  for (size_t Id = 0; Id < Trace.size(); ++Id) {
    if (!Ptrs[Id])
      continue;
    if (!tagIntact(Ptrs[Id], Records[Id].Size, static_cast<uint32_t>(Id)))
      ++BrokenTags;
    Heap.deallocate(Ptrs[Id]);
    Ptrs[Id] = nullptr;
    ++Leftover;
  }
  Chain.clear();

  C.attempt(Count + Leftover);
  C.fail(Name + ": allocate returned null", NullReturns);
  C.fail(Name + ": object tag overwritten before its free", BrokenTags);

  P.LastStats = Heap.stats();
  const PredictingHeap::Stats &S = P.LastStats;
  L["runtime.arena_allocs"] += static_cast<double>(S.ArenaAllocs);
  L["runtime.general_allocs"] += static_cast<double>(S.GeneralAllocs);
  L["runtime.fallbacks"] += static_cast<double>(S.Fallbacks);
  L["runtime.resets"] += static_cast<double>(S.Resets);
  if constexpr (Traced) {
    L["callchain.frames_pushed"] += static_cast<double>(Pushed);
    L["callchain.harness_s"] += static_cast<double>(HarnessNanos) * 1e-9;
    T.addAggregate("callchain.moveTo", "callchain",
                   static_cast<double>(HarnessNanos) * 1e-9);
    T.addAggregate("runtime.calls", "runtime",
                   static_cast<double>(HeapNanos) * 1e-9);
  }
}

std::vector<double> RealHeapReplay::runPass(LayerValues &L) {
  std::vector<double> Seconds;
  for (size_t Index = 0; Index < Programs.size(); ++Index) {
    double Start = nowSeconds();
    Tracer::Scope Program(T, "bench.program", "bench");
    if (T.enabled())
      replayProgram<true>(Index, L);
    else
      replayProgram<false>(Index, L);
    Seconds.push_back(nowSeconds() - Start);
  }
  return Seconds;
}

double RealHeapReplay::paperErrorPercent() const {
  // The real heap's own Table 7: the share of objects and bytes it places
  // in the arena area under the length-4 true-prediction database.
  std::vector<Cell> Cells;
  for (size_t I = 0; I < Programs.size(); ++I) {
    const PredictingHeap::Stats &S = Programs[I].LastStats;
    const std::string &Name = Inputs[I]->Model.Name;
    const PaperProgramData *Paper = paperData(Name);
    auto Pct = [](uint64_t Part, uint64_t Other) {
      return Part + Other == 0 ? 0.0
                               : 100.0 * static_cast<double>(Part) /
                                     static_cast<double>(Part + Other);
    };
    Cells.push_back({Name + ".t7.arena_alloc_pct",
                     Pct(S.ArenaAllocs, S.GeneralAllocs),
                     Paper->ArenaAllocPercent});
    Cells.push_back({Name + ".t7.arena_bytes_pct",
                     Pct(S.ArenaBytes, S.GeneralBytes),
                     Paper->ArenaBytesPercent});
  }
  return perfbench::paperErrorPercent(Cells);
}

void RealHeapReplay::opNewReference(LayerValues &L) {
  // The bar: the same event stream through ::operator new and delete.
  uint64_t Ops = 0;
  double Seconds = 0.0;
  for (HeapProgram &P : Programs) {
    const AllocRecord *Records = P.Test->trace().records().data();
    const EventSchedule &Schedule = P.Test->schedule();
    const uint32_t *Ids = Schedule.taggedIds();
    uint64_t BrokenTags = 0;
    double Start = nowSeconds();
    {
      Tracer::Scope S(T, "bench.opnew", "bench");
      for (size_t Event = 0; Event < Schedule.size(); ++Event) {
        uint32_t Tagged = Ids[Event];
        uint32_t Id = Tagged & ~EventSchedule::FreeBit;
        uint32_t Size = Records[Id].Size;
        if (Tagged & EventSchedule::FreeBit) {
          if (!tagIntact(Ptrs[Id], Size, Id))
            ++BrokenTags;
          ::operator delete(Ptrs[Id]);
          Ptrs[Id] = nullptr;
        } else {
          Ptrs[Id] = ::operator new(Size < 1 ? 1 : Size);
          writeTag(Ptrs[Id], Size, Id);
        }
      }
    }
    Seconds += nowSeconds() - Start;
    Ops += Schedule.size();
    for (size_t Id = 0; Id < P.Test->trace().size(); ++Id) {
      ::operator delete(Ptrs[Id]);
      Ptrs[Id] = nullptr;
    }
    C.check(BrokenTags == 0, "operator new reference: tag overwritten");
  }
  L["bench.opnew.ns_per_op"] = Ops ? Seconds * 1e9 / static_cast<double>(Ops) : 0.0;
}

void RealHeapReplay::traceExtras(LayerValues &L) {
  static const char *const Keys[] = {"cfrac", "espresso", "gawk", "ghost",
                                     "perl"};
  double PredictedShort = 0.0;
  for (size_t I = 0; I < Programs.size(); ++I) {
    HeapProgram &P = Programs[I];
    ArenaSimResult Sim = simulateArena(*P.Test, P.DB, P.CallsPerAlloc);
    L[std::string("runtime.sim_arena_delta.") + Keys[I]] =
        static_cast<double>(P.LastStats.ArenaAllocs) -
        static_cast<double>(Sim.Arena.ArenaAllocs);
    for (SiteKey Key : P.Test->recordKeys())
      PredictedShort += P.DB.contains(Key);
  }
  L["_runtime.predicted_short"] = PredictedShort;

  const char *Paths[] = {"general", "arena"};
  for (int Path = 0; Path < 2; ++Path) {
    std::string Prefix = std::string("runtime.") + Paths[Path];
    L[Prefix + ".allocate_ns.p50"] = Calls.Allocate[Path].quantile(0.50);
    L[Prefix + ".allocate_ns.p99"] = Calls.Allocate[Path].quantile(0.99);
    L[Prefix + ".deallocate_ns.p50"] = Calls.Deallocate[Path].quantile(0.50);
    L[Prefix + ".deallocate_ns.p99"] = Calls.Deallocate[Path].quantile(0.99);
  }
  opNewReference(L);
}

} // namespace

std::unique_ptr<Workload> perfbench::makeRealHeapReplay(const Options &Opts,
                                                        Tracer &T) {
  return std::make_unique<RealHeapReplay>(Opts, T);
}
