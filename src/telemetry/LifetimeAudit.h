//===- telemetry/LifetimeAudit.h - Misprediction forensics ------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis pass over a finished FlightRecorder: builds the per-site
/// misprediction forensics table (confusion counts, observed lifetime
/// quantiles vs. the trained P² quantiles, drift score) ranked by wasted
/// bytes, the arena-pinning report with survivor attribution, and the
/// serialized forms — human tables, audit JSON, headline metrics folded
/// into a StatsRegistry for bench_compare gating, and chrome://tracing
/// occupancy spans through TraceEventWriter.
///
/// Everything here is a deterministic function of the recorder contents:
/// rankings break ties on site/arena ids, and the gated telemetry metrics
/// are integer-valued so cross-platform bit-identical comparison holds.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_TELEMETRY_LIFETIMEAUDIT_H
#define LIFEPRED_TELEMETRY_LIFETIMEAUDIT_H

#include "telemetry/FlightRecorder.h"

#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

namespace lifepred {

class StatsRegistry;
class TraceEventWriter;

/// Lifetime quantiles a site trained at, from the profiler's P² histograms.
/// Plain data so the telemetry layer needs no dependency on the profiler;
/// the sim layer provides buildTrainedQuantiles() to fill one of these from
/// a Profile.
struct TrainedSiteQuantiles {
  double Q25 = -1.0;
  double Q50 = -1.0;
  double Q75 = -1.0;
  uint64_t Objects = 0;
};

/// Keyed by the recorder's site id (trace chain index).
using TrainedQuantileMap = std::unordered_map<uint32_t, TrainedSiteQuantiles>;

/// The per-site quantile drift score shared by the audit and the drift
/// observatory: max over {p25, p50, p75} of
/// |log2((1 + observed) / (1 + trained))|, in binary orders of magnitude.
/// A negative trained quantile marks a quantile unseen in training and is
/// left out of the max (the score is 0 when all three are).
double quantileDriftScore(uint64_t ObsQ25, uint64_t ObsQ50, uint64_t ObsQ75,
                          const TrainedSiteQuantiles &Trained);

/// One row of the misprediction forensics table.
struct SiteAuditRow {
  uint32_t Site = 0;
  uint64_t Objects = 0;
  uint64_t Bytes = 0;
  uint64_t TrueShort = 0;
  uint64_t FalseShort = 0;
  uint64_t MissedShort = 0;
  uint64_t TrueLong = 0;
  uint64_t FalseShortBytes = 0;
  uint64_t MissedShortBytes = 0;
  uint64_t WastedBytes = 0;
  /// Observed lifetime quantiles — log2-bucket lower bounds (see
  /// Log2Histogram::quantileLowerBound for the convention).
  uint64_t ObsQ25 = 0;
  uint64_t ObsQ50 = 0;
  uint64_t ObsQ75 = 0;
  uint64_t ObsQ90 = 0;
  /// Trained P² quantiles; negative when the site was unseen in training.
  double TrainQ25 = -1.0;
  double TrainQ50 = -1.0;
  double TrainQ75 = -1.0;
  bool HasTrained = false;
  /// max over {p25, p50, p75} of |log2((1 + observed) / (1 + trained))| —
  /// how many binary orders of magnitude the site's lifetime distribution
  /// moved between training and test.
  double DriftScore = 0.0;
};

/// The complete audit: forensics + pinning + the raw sample.
struct AuditReport {
  std::string Label;
  uint64_t TotalObjects = 0;
  uint64_t TotalBytes = 0;
  uint64_t SampledObjects = 0;
  uint64_t FinalClock = 0;
  uint64_t TrueShort = 0;
  uint64_t FalseShort = 0;
  uint64_t MissedShort = 0;
  uint64_t TrueLong = 0;
  uint64_t FalseShortBytes = 0;
  uint64_t MissedShortBytes = 0;
  uint64_t TotalDeadByteIntegral = 0;
  uint64_t PinnedEpisodes = 0;
  uint64_t DroppedEpisodes = 0;
  /// Ranked by WastedBytes descending (ties: FalseShort desc, Site asc).
  std::vector<SiteAuditRow> Sites;
  /// Ranked by DeadByteIntegral descending (the recorder's order).
  std::vector<FlightRecorder::PinEpisode> Episodes;
  /// The reservoir sample, sorted by (BirthClock, Id).
  std::vector<FlightRecorder::ObjectRecord> Samples;

  uint64_t wastedBytes() const { return FalseShortBytes + MissedShortBytes; }
};

/// Builds the report from a finished recorder.  \p Trained (optional)
/// supplies per-site training quantiles for the drift columns.
AuditReport buildAuditReport(const FlightRecorder &Recorder,
                             const TrainedQuantileMap *Trained = nullptr,
                             std::string Label = "");

/// Prints the human-readable forensics and pinning tables.
void printAuditReport(const AuditReport &Report, std::FILE *Out,
                      size_t MaxSites = 10, size_t MaxEpisodes = 5);

/// Appends the full report as a JSON object.  \p Indent prefixes every
/// emitted line; output is fully ordered, so byte-identical runs produce
/// byte-identical JSON.
void writeAuditJson(const AuditReport &Report, std::string &Out,
                    const std::string &Indent);

/// Folds the headline numbers into \p Registry under \p Prefix
/// ("audit." by convention): confusion totals, wasted bytes, dead-byte
/// integral, pinned episode count as counters; the top-5 offending sites
/// as gauges ("top1.site", "top1.wasted_bytes", ...).  All integer-valued,
/// so bench_compare can gate them at exact tolerance.
void exportAuditTelemetry(const AuditReport &Report, StatsRegistry &Registry,
                          const std::string &Prefix = "audit.");

/// Emits each pinned episode's fill and pinned phases as chrome://tracing
/// complete events on a per-arena track (byte time on the microsecond
/// axis), plus a reset instant when the reset was observed.
void emitArenaOccupancy(const AuditReport &Report, TraceEventWriter &Writer);

} // namespace lifepred

#endif // LIFEPRED_TELEMETRY_LIFETIMEAUDIT_H
