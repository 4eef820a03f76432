//===- telemetry/DriftObservatory.h - Prediction drift tracking -*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Time-resolved lifetime-prediction quality: where SimTelemetry's
/// PredictionCounts answer "how accurate was the database over the whole
/// replay", the drift observatory answers *when* and *at which sites* it
/// went stale.  Every allocation outcome lands in a byte-clock window
/// (telemetry/TimeSeries.h) twice — once in a global series, once in a
/// per-site series — carrying the short-lived confusion matrix
/// (TP/FP/FN/TN), observed-lifetime histograms, and misprediction cost:
///
///   * false_short_bytes — bytes of predicted-short objects that outlived
///     the threshold, charged to their birth window (arena bytes a wrong
///     "short" verdict placed there);
///   * pinned_bytes — the same objects charged to every window their
///     post-threshold overstay [birth + threshold, death) overlaps (the
///     windows during which they pinned an arena);
///   * missed_short_bytes — bytes of predicted-long objects that died
///     within the threshold, charged to the birth window (general-heap
///     bytes a correct "short" verdict would have arena'd).
///
/// The analysis pass (buildDriftReport) turns a filled observatory into
/// per-window accuracy with CUSUM change-point flags and per-site
/// observed-vs-trained quantile divergence — the FlightRecorder audit's
/// drift score, time-resolved.  Everything is a commutative sum over
/// allocation outcomes, so the observatory does not depend on the order
/// the replay delivers them in.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_TELEMETRY_DRIFTOBSERVATORY_H
#define LIFEPRED_TELEMETRY_DRIFTOBSERVATORY_H

#include "telemetry/LifetimeAudit.h"
#include "telemetry/TimeSeries.h"

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace lifepred {

class StatsRegistry;
class TraceEventWriter;

/// Geometry and classification of one drift-tracking run.
struct DriftConfig {
  /// The replay's final byte clock; windows cover [0, EndClock] and
  /// never-freed lifetimes clamp to it.
  uint64_t EndClock = 0;
  /// Window width; 0 picks autoWindowBytes(EndClock).
  uint64_t WindowBytes = 0;
  /// The short-lived threshold the outcomes were classified under (the
  /// SiteDatabase threshold; the widest band for multi-arena replays).
  uint64_t Threshold = 0;

  bool operator==(const DriftConfig &Other) const = default;
};

/// Windowed confusion-matrix and cost accounting for one replay.
class DriftObservatory {
public:
  /// Counter lanes of both the global and the per-site series.
  enum Lane : unsigned {
    LaneTrueShort = 0,
    LaneFalseShort,
    LaneMissedShort,
    LaneTrueLong,
    LaneFalseShortBytes,
    LaneMissedShortBytes,
    LanePinnedBytes,
    LaneCount
  };
  /// Histogram lane: observed (exit-clamped) lifetimes.
  static constexpr unsigned HistLifetime = 0;

  /// The default window width: the smallest power of two giving at most
  /// 64 windows over \p EndClock — deterministic, and coarse enough that
  /// per-site histograms stay cheap.
  static uint64_t autoWindowBytes(uint64_t EndClock);

  explicit DriftObservatory(const DriftConfig &C);

  const DriftConfig &config() const { return Cfg; }
  uint64_t windowBytes() const { return Width; }
  uint64_t endClock() const { return Cfg.EndClock; }
  uint64_t threshold() const { return Cfg.Threshold; }
  /// Fixed at construction: every window through the one holding EndClock
  /// exists, so quiet tails appear as explicit empty windows.
  uint64_t windowCount() const { return Global.windowCount(); }
  uint64_t totalObjects() const { return Objects; }

  /// Records one allocation outcome.  \p BirthClock is the byte clock
  /// after the allocation (the schedule convention); \p Lifetime is the
  /// traced lifetime, clamped here to the bytes remaining until EndClock
  /// (so NeverFreed needs no special casing); \p ActuallyShort is the
  /// caller's classification, passed explicitly so each simulator's own
  /// threshold semantics (single threshold, band thresholds) are
  /// reproduced exactly.
  void recordAlloc(uint64_t BirthClock, uint32_t Site, uint32_t Size,
                   bool PredictedShort, uint64_t Lifetime,
                   bool ActuallyShort);

  const TimeSeries &global() const { return Global; }
  /// Per-site series, key-sorted for deterministic iteration.
  const std::map<uint32_t, TimeSeries> &sites() const { return Sites; }

  bool operator==(const DriftObservatory &Other) const;

private:
  TimeSeries::Config seriesConfig() const;
  TimeSeries &siteSeries(uint32_t Site);

  DriftConfig Cfg;
  uint64_t Width = 1;
  uint64_t Objects = 0;
  TimeSeries Global;
  std::map<uint32_t, TimeSeries> Sites;
};

/// Replayable record of a live run's allocation outcomes, for hosts (the
/// real PredictingHeap, RuntimeProfiler-driven probes) that do not know
/// the final byte clock until the run ends.  Feed births and deaths as
/// they happen, finish() at the end, then build() an observatory whose
/// EndClock is the observed final clock.
class DriftSampleLog {
public:
  void recordAlloc(uint64_t Id, uint64_t BirthClock, uint32_t Site,
                   uint32_t Size, bool PredictedShort);
  void recordFree(uint64_t Id, uint64_t DeathClock);
  /// Pins the end clock (still-live objects clamp to it in build()).
  void finish(uint64_t EndClock);

  uint64_t endClock() const { return EndClock; }
  size_t size() const { return Samples.size(); }

  /// Replays the log into a fresh observatory.  \p WindowBytes 0 picks
  /// the automatic width; \p Threshold classifies ActuallyShort from the
  /// exit-clamped lifetime.
  DriftObservatory build(uint64_t WindowBytes, uint64_t Threshold) const;

private:
  struct Sample {
    uint64_t Birth = 0;
    uint64_t Death = ~uint64_t(0); ///< Max = never freed.
    uint32_t Site = 0;
    uint32_t Size = 0;
    bool Predicted = false;
  };

  std::vector<Sample> Samples;
  std::map<uint64_t, size_t> Index;
  uint64_t EndClock = 0;
};

/// One window row of the drift report.
struct DriftWindowRow {
  uint64_t StartClock = 0; ///< Inclusive.
  uint64_t EndClock = 0;   ///< Exclusive.
  uint64_t TrueShort = 0;
  uint64_t FalseShort = 0;
  uint64_t MissedShort = 0;
  uint64_t TrueLong = 0;
  uint64_t FalseShortBytes = 0;
  uint64_t MissedShortBytes = 0;
  uint64_t PinnedBytes = 0;
  uint64_t total() const {
    return TrueShort + FalseShort + MissedShort + TrueLong;
  }
  /// -1 when the window saw no allocations.
  int64_t AccuracyPpm = -1;
  bool ChangePoint = false;
};

/// One scored (site, window) divergence.
struct DriftSiteScore {
  uint32_t Site = 0;
  uint64_t Window = 0;
  uint64_t Objects = 0;
  uint64_t ObsQ50 = 0;
  double TrainQ50 = -1.0;
  /// max over {p25, p50, p75} of |log2((1 + observed) / (1 + trained))|.
  double Score = 0.0;
};

/// Analysis knobs; the defaults are what `trace_tool drift` and the
/// benches use, so the gated baselines pin them.
struct DriftReportOptions {
  /// CUSUM slack per window, in ppm of accuracy (deviations smaller than
  /// this never accumulate).
  int64_t CusumSlackPpm = 20000;
  /// CUSUM decision threshold, in ppm — a sustained 5-point accuracy
  /// shift trips it within a handful of windows.
  int64_t CusumDecisionPpm = 100000;
  /// Minimum observed objects before a (site, window) is scored.
  uint64_t MinSiteWindowObjects = 4;
  /// Scored rows kept in TopSites.
  size_t TopSites = 5;
};

/// The complete time-resolved drift analysis.
struct DriftReport {
  std::string Label;
  uint64_t WindowBytes = 0;
  uint64_t EndClock = 0;
  uint64_t Threshold = 0;
  uint64_t TotalObjects = 0;
  uint64_t TrueShort = 0;
  uint64_t FalseShort = 0;
  uint64_t MissedShort = 0;
  uint64_t TrueLong = 0;
  uint64_t FalseShortBytes = 0;
  uint64_t MissedShortBytes = 0;
  uint64_t PinnedBytes = 0;
  int64_t MeanAccuracyPpm = -1;
  uint64_t SiteCount = 0;
  uint64_t ScoredSiteWindows = 0;
  std::vector<DriftWindowRow> Windows;
  std::vector<uint64_t> ChangePointWindows;
  /// Ranked by Score descending (ties: Site asc, Window asc).
  std::vector<DriftSiteScore> TopSites;

  bool hasWorstSite() const { return !TopSites.empty(); }
  const DriftSiteScore &worstSite() const { return TopSites.front(); }
  uint64_t changePointCount() const { return ChangePointWindows.size(); }
};

/// Builds the report: window rows, CUSUM change points, and (when
/// \p Trained is non-null) per-site observed-vs-trained divergence.
DriftReport buildDriftReport(const DriftObservatory &Obs,
                             const TrainedQuantileMap *Trained = nullptr,
                             std::string Label = "",
                             const DriftReportOptions &Options = {});

/// Prints the human-readable drift report with per-window sparklines.
void printDriftReport(const DriftReport &Report, std::FILE *Out);

/// Appends the report as a fully ordered JSON object (byte-identical for
/// byte-identical reports).  \p Indent prefixes every emitted line.
void writeDriftJson(const DriftReport &Report, std::string &Out,
                    const std::string &Indent);

/// Folds the headline numbers into \p Registry under \p Prefix: window
/// and change-point counts, confusion totals, cost bytes as counters;
/// mean accuracy, worst site id/window and its score (milli-units, so the
/// metric stays integer-gateable) as gauges.
void exportDriftTelemetry(const DriftReport &Report, StatsRegistry &Registry,
                          const std::string &Prefix = "drift.");

/// Emits the report as a chrome://tracing track \p Track (byte time on
/// the microsecond axis): one complete span per non-empty window named
/// with its accuracy, plus an instant per change point.
void emitDriftTrack(const DriftReport &Report, TraceEventWriter &Writer,
                    unsigned Track);

} // namespace lifepred

#endif // LIFEPRED_TELEMETRY_DRIFTOBSERVATORY_H
