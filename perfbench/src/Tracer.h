//===- perfbench/src/Tracer.h - In-memory layer spans ------------*- C++ -*-===//
//
// The traced run records one span around each call the benchmark makes into
// a library layer: a name, the layer, a start, a duration and the span that
// was open when it began.  Spans stay in memory until the run ends.  Calls
// too frequent for a span each (the real heap's allocate/deallocate) are
// timed into histograms and land here as one aggregate child per batch, so
// the enclosing span's self time still excludes them.
//
// A disabled tracer records nothing; Scope then costs one branch.
//
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_PERFBENCH_TRACER_H
#define LIFEPRED_PERFBENCH_TRACER_H

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary epoch.
inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Steady-clock nanoseconds, for per-call timing.
inline int64_t nowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Turns recording on or off between passes (never with spans open).
  void setEnabled(bool On) { Enabled = On; }

  /// Opens a span; returns its index, or -1 when disabled.
  int begin(const char *Name, const char *Layer);

  /// Closes span \p Index (the innermost open one).
  void end(int Index);

  /// Records \p Seconds of \p Layer work done in many short calls as one
  /// child of the innermost open span.
  void addAggregate(const char *Name, const char *Layer, double Seconds);

  /// Number of spans recorded so far; pass it to the queries below to
  /// look only at spans recorded after that point.
  size_t mark() const { return Spans.size(); }

  /// Self seconds per layer over spans recorded since \p From: each span's
  /// duration minus the part its children cover.
  std::map<std::string, double> selfSeconds(size_t From) const;

  /// RAII span.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name, const char *Layer)
        : T(T), Index(T.Enabled ? T.begin(Name, Layer) : -1) {}
    ~Scope() {
      if (Index >= 0)
        T.end(Index);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int Index;
  };

private:
  struct Span {
    const char *Name;
    const char *Layer;
    double Start = 0.0;
    double Seconds = 0.0;
    double ChildSeconds = 0.0;
    int Parent = -1;
  };

  bool Enabled;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// Per-call latency histogram with 1 ns buckets up to 4 us; longer calls
/// share the last bucket.
class NanosHistogram {
public:
  static constexpr size_t Buckets = 4096;

  void record(int64_t Nanos) {
    size_t Bucket = Nanos < 0 ? 0 : static_cast<size_t>(Nanos);
    ++Counts[Bucket < Buckets ? Bucket : Buckets - 1];
    ++Total;
  }

  /// The smallest bucket value at or below which a fraction \p Phi of the
  /// calls fall; 0 when empty.
  double quantile(double Phi) const;

private:
  std::array<uint64_t, Buckets> Counts{};
  uint64_t Total = 0;
};

} // namespace perfbench

#endif // LIFEPRED_PERFBENCH_TRACER_H
