//===- telemetry/TimeSeries.cpp - Byte-clock windowed series ---------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "telemetry/TimeSeries.h"

#include <algorithm>
#include <cassert>

using namespace lifepred;

TimeSeries::TimeSeries(const Config &C) : Cfg(C) {
  assert(Cfg.WindowBytes >= 1 && "window width must be positive");
}

void TimeSeries::extendToWindow(uint64_t Window) {
  if (Retained != 0 && Window < Base + Retained)
    return;
  uint64_t NewLast = Window;
  uint64_t NewBase = Base;
  if (Cfg.RingWindows != 0 && NewLast + 1 >= Cfg.RingWindows)
    NewBase = std::max(NewBase, NewLast + 1 - Cfg.RingWindows);
  if (NewBase > Base) {
    uint64_t Drop = std::min(NewBase - Base, Retained);
    Counters.erase(Counters.begin(),
                   Counters.begin() +
                       static_cast<ptrdiff_t>(Drop * Cfg.CounterLanes));
    Histograms.erase(Histograms.begin(),
                     Histograms.begin() +
                         static_cast<ptrdiff_t>(Drop * Cfg.HistogramLanes));
    Retained -= Drop;
    Dropped += NewBase - Base;
    Base = NewBase;
  }
  uint64_t NewRetained = NewLast + 1 - Base;
  Counters.resize(NewRetained * Cfg.CounterLanes, 0);
  Histograms.resize(NewRetained * Cfg.HistogramLanes);
  Retained = NewRetained;
}

uint64_t &TimeSeries::counterSlot(uint64_t Window, unsigned Lane) {
  assert(Lane < Cfg.CounterLanes && "counter lane out of range");
  extendToWindow(Window);
  return Counters[(Window - Base) * Cfg.CounterLanes + Lane];
}

Log2Histogram &TimeSeries::histogramSlot(uint64_t Window, unsigned Lane) {
  assert(Lane < Cfg.HistogramLanes && "histogram lane out of range");
  extendToWindow(Window);
  std::unique_ptr<Log2Histogram> &Slot =
      Histograms[(Window - Base) * Cfg.HistogramLanes + Lane];
  if (!Slot)
    Slot = std::make_unique<Log2Histogram>();
  return *Slot;
}

void TimeSeries::addWindow(uint64_t Window, unsigned Lane, uint64_t Delta) {
  if (Window < Base) {
    ++LateDrops;
    return;
  }
  counterSlot(Window, Lane) += Delta;
}

void TimeSeries::observeWindow(uint64_t Window, unsigned Lane,
                               uint64_t Value) {
  if (Window < Base) {
    ++LateDrops;
    return;
  }
  histogramSlot(Window, Lane).record(Value);
}

uint64_t TimeSeries::counter(uint64_t Window, unsigned Lane) const {
  assert(Lane < Cfg.CounterLanes && "counter lane out of range");
  if (Window < Base || Window >= Base + Retained)
    return 0;
  return Counters[(Window - Base) * Cfg.CounterLanes + Lane];
}

const Log2Histogram *TimeSeries::histogram(uint64_t Window,
                                           unsigned Lane) const {
  assert(Lane < Cfg.HistogramLanes && "histogram lane out of range");
  if (Window < Base || Window >= Base + Retained)
    return nullptr;
  return Histograms[(Window - Base) * Cfg.HistogramLanes + Lane].get();
}

bool TimeSeries::operator==(const TimeSeries &Other) const {
  if (Cfg != Other.Cfg || Base != Other.Base || Retained != Other.Retained ||
      Counters != Other.Counters)
    return false;
  static const Log2Histogram Empty;
  for (size_t I = 0; I < Histograms.size(); ++I) {
    const Log2Histogram &A = Histograms[I] ? *Histograms[I] : Empty;
    const Log2Histogram &B =
        Other.Histograms[I] ? *Other.Histograms[I] : Empty;
    if (!(A == B))
      return false;
  }
  return true;
}
