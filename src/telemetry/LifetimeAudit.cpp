//===- telemetry/LifetimeAudit.cpp - Misprediction forensics ---------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "telemetry/LifetimeAudit.h"

#include "support/Json.h"
#include "telemetry/StatsRegistry.h"
#include "telemetry/TraceEventWriter.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>

using namespace lifepred;

namespace {

void appendU64(std::string &Out, uint64_t Value) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%llu",
                static_cast<unsigned long long>(Value));
  Out += Buf;
}

void appendDouble(std::string &Out, double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
  Out += Buf;
}

void appendField(std::string &Out, bool &First, const char *Name,
                 uint64_t Value) {
  Out += First ? "" : ", ";
  First = false;
  Out += "\"";
  Out += Name;
  Out += "\": ";
  appendU64(Out, Value);
}

} // namespace

double lifepred::quantileDriftScore(uint64_t ObsQ25, uint64_t ObsQ50,
                                    uint64_t ObsQ75,
                                    const TrainedSiteQuantiles &Trained) {
  double Score = 0.0;
  auto Fold = [&Score](uint64_t Observed, double TrainedQ) {
    if (TrainedQ < 0)
      return;
    Score = std::max(
        Score, std::fabs(std::log2((1.0 + static_cast<double>(Observed)) /
                                   (1.0 + TrainedQ))));
  };
  Fold(ObsQ25, Trained.Q25);
  Fold(ObsQ50, Trained.Q50);
  Fold(ObsQ75, Trained.Q75);
  return Score;
}

AuditReport lifepred::buildAuditReport(const FlightRecorder &Recorder,
                                       const TrainedQuantileMap *Trained,
                                       std::string Label) {
  AuditReport Report;
  Report.Label = std::move(Label);
  Report.TotalObjects = Recorder.totalObjects();
  Report.TotalBytes = Recorder.totalBytes();
  Report.SampledObjects = Recorder.sampledCount();
  Report.FinalClock = Recorder.finalClock();
  Report.TotalDeadByteIntegral = Recorder.totalDeadByteIntegral();
  Report.PinnedEpisodes = Recorder.pinnedEpisodeCount();
  Report.DroppedEpisodes = Recorder.droppedEpisodes();
  Report.Episodes = Recorder.episodes();
  Report.Samples = Recorder.sampledRecords();

  for (const auto &[Site, F] : Recorder.siteForensics()) {
    SiteAuditRow Row;
    Row.Site = Site;
    Row.Objects = F.Objects;
    Row.Bytes = F.Bytes;
    Row.TrueShort = F.TrueShort;
    Row.FalseShort = F.FalseShort;
    Row.MissedShort = F.MissedShort;
    Row.TrueLong = F.TrueLong;
    Row.FalseShortBytes = F.FalseShortBytes;
    Row.MissedShortBytes = F.MissedShortBytes;
    Row.WastedBytes = F.wastedBytes();
    Row.ObsQ25 = F.Lifetimes.quantileLowerBound(0.25);
    Row.ObsQ50 = F.Lifetimes.quantileLowerBound(0.50);
    Row.ObsQ75 = F.Lifetimes.quantileLowerBound(0.75);
    Row.ObsQ90 = F.Lifetimes.quantileLowerBound(0.90);
    if (Trained) {
      auto It = Trained->find(Site);
      if (It != Trained->end() && It->second.Objects > 0) {
        Row.HasTrained = true;
        Row.TrainQ25 = It->second.Q25;
        Row.TrainQ50 = It->second.Q50;
        Row.TrainQ75 = It->second.Q75;
        Row.DriftScore = quantileDriftScore(Row.ObsQ25, Row.ObsQ50,
                                            Row.ObsQ75, It->second);
      }
    }
    Report.TrueShort += Row.TrueShort;
    Report.FalseShort += Row.FalseShort;
    Report.MissedShort += Row.MissedShort;
    Report.TrueLong += Row.TrueLong;
    Report.FalseShortBytes += Row.FalseShortBytes;
    Report.MissedShortBytes += Row.MissedShortBytes;
    Report.Sites.push_back(Row);
  }
  std::sort(Report.Sites.begin(), Report.Sites.end(),
            [](const SiteAuditRow &A, const SiteAuditRow &B) {
              if (A.WastedBytes != B.WastedBytes)
                return A.WastedBytes > B.WastedBytes;
              if (A.FalseShort != B.FalseShort)
                return A.FalseShort > B.FalseShort;
              return A.Site < B.Site;
            });
  return Report;
}

void lifepred::printAuditReport(const AuditReport &Report, std::FILE *Out,
                                size_t MaxSites, size_t MaxEpisodes) {
  std::fprintf(Out, "== lifetime audit%s%s ==\n",
               Report.Label.empty() ? "" : ": ", Report.Label.c_str());
  std::fprintf(Out,
               "objects %" PRIu64 " (%" PRIu64 " bytes), sampled %" PRIu64
               ", final byte clock %" PRIu64 "\n",
               Report.TotalObjects, Report.TotalBytes, Report.SampledObjects,
               Report.FinalClock);
  std::fprintf(Out,
               "confusion: true_short %" PRIu64 "  false_short %" PRIu64
               "  missed_short %" PRIu64 "  true_long %" PRIu64 "\n",
               Report.TrueShort, Report.FalseShort, Report.MissedShort,
               Report.TrueLong);
  std::fprintf(Out,
               "wasted bytes: %" PRIu64 " false-short + %" PRIu64
               " missed-short = %" PRIu64 "\n",
               Report.FalseShortBytes, Report.MissedShortBytes,
               Report.wastedBytes());

  std::fprintf(Out, "\nmispredicting sites (by wasted bytes):\n");
  std::fprintf(Out, "  %6s %9s %11s %12s %12s %10s %11s %7s\n", "site",
               "objects", "false_short", "missed_short", "wasted_bytes",
               "obs_p50", "train_p50", "drift");
  size_t Printed = 0;
  for (const SiteAuditRow &Row : Report.Sites) {
    if (Printed >= MaxSites)
      break;
    if (Row.WastedBytes == 0 && Printed > 0)
      break; // Only clean sites remain; the first row always prints.
    ++Printed;
    char TrainBuf[32] = "-";
    char DriftBuf[32] = "-";
    if (Row.HasTrained) {
      std::snprintf(TrainBuf, sizeof(TrainBuf), "%.0f", Row.TrainQ50);
      std::snprintf(DriftBuf, sizeof(DriftBuf), "%.2f", Row.DriftScore);
    }
    std::fprintf(Out,
                 "  %6u %9" PRIu64 " %11" PRIu64 " %12" PRIu64 " %12" PRIu64
                 " %10" PRIu64 " %11s %7s\n",
                 Row.Site, Row.Objects, Row.FalseShort, Row.MissedShort,
                 Row.WastedBytes, Row.ObsQ50, TrainBuf, DriftBuf);
  }
  if (Report.Sites.empty())
    std::fprintf(Out, "  (no sites recorded)\n");

  std::fprintf(Out, "\narena pinning (by dead-bytes-held):\n");
  size_t Shown = 0;
  for (const FlightRecorder::PinEpisode &E : Report.Episodes) {
    if (Shown++ >= MaxEpisodes)
      break;
    std::fprintf(Out,
                 "  band %u arena %u gen %" PRIu64 ": pinned %" PRIu64
                 "..%" PRIu64 "%s, %zu/%" PRIu64
                 " survivors listed, dead-bytes-held %" PRIu64 "\n",
                 E.Band, E.ArenaIndex, E.Generation, E.PinnedSinceClock,
                 E.EndClock, E.ResetObserved ? " (reset)" : " (still pinned)",
                 E.Survivors.size(), E.SurvivorCount, E.DeadByteIntegral);
    for (const FlightRecorder::Survivor &S : E.Survivors) {
      if (S.DeathClock == FlightRecorder::NoDeath)
        std::fprintf(Out,
                     "    survivor id=%" PRIu64 " site=%u size=%u born=%" PRIu64
                     " (alive at exit)\n",
                     S.Id, S.Site, S.Size, S.BirthClock);
      else
        std::fprintf(Out,
                     "    survivor id=%" PRIu64 " site=%u size=%u born=%" PRIu64
                     " died=%" PRIu64 "\n",
                     S.Id, S.Site, S.Size, S.BirthClock, S.DeathClock);
    }
  }
  if (Report.Episodes.empty())
    std::fprintf(Out, "  (no pinned arenas observed)\n");
  std::fprintf(Out,
               "totals: %" PRIu64 " pinned episodes (%" PRIu64
               " pruned), dead-byte integral %" PRIu64 "\n",
               Report.PinnedEpisodes, Report.DroppedEpisodes,
               Report.TotalDeadByteIntegral);
}

void lifepred::writeAuditJson(const AuditReport &Report, std::string &Out,
                              const std::string &Indent) {
  Out += "{\n";
  Out += Indent + "  \"label\": \"";
  appendJsonEscaped(Out, Report.Label);
  Out += "\",\n";
  Out += Indent + "  \"objects\": ";
  appendU64(Out, Report.TotalObjects);
  Out += ",\n" + Indent + "  \"bytes\": ";
  appendU64(Out, Report.TotalBytes);
  Out += ",\n" + Indent + "  \"sampled\": ";
  appendU64(Out, Report.SampledObjects);
  Out += ",\n" + Indent + "  \"final_clock\": ";
  appendU64(Out, Report.FinalClock);

  Out += ",\n" + Indent + "  \"totals\": {";
  {
    bool First = true;
    appendField(Out, First, "true_short", Report.TrueShort);
    appendField(Out, First, "false_short", Report.FalseShort);
    appendField(Out, First, "missed_short", Report.MissedShort);
    appendField(Out, First, "true_long", Report.TrueLong);
    appendField(Out, First, "false_short_bytes", Report.FalseShortBytes);
    appendField(Out, First, "missed_short_bytes", Report.MissedShortBytes);
    appendField(Out, First, "wasted_bytes", Report.wastedBytes());
    appendField(Out, First, "dead_byte_integral", Report.TotalDeadByteIntegral);
    appendField(Out, First, "pinned_episodes", Report.PinnedEpisodes);
    appendField(Out, First, "dropped_episodes", Report.DroppedEpisodes);
  }
  Out += "},\n";

  Out += Indent + "  \"sites\": [";
  for (size_t I = 0; I < Report.Sites.size(); ++I) {
    const SiteAuditRow &Row = Report.Sites[I];
    Out += I == 0 ? "\n" : ",\n";
    Out += Indent + "    {";
    bool First = true;
    appendField(Out, First, "site", Row.Site);
    appendField(Out, First, "objects", Row.Objects);
    appendField(Out, First, "bytes", Row.Bytes);
    appendField(Out, First, "true_short", Row.TrueShort);
    appendField(Out, First, "false_short", Row.FalseShort);
    appendField(Out, First, "missed_short", Row.MissedShort);
    appendField(Out, First, "true_long", Row.TrueLong);
    appendField(Out, First, "false_short_bytes", Row.FalseShortBytes);
    appendField(Out, First, "missed_short_bytes", Row.MissedShortBytes);
    appendField(Out, First, "wasted_bytes", Row.WastedBytes);
    appendField(Out, First, "obs_p25", Row.ObsQ25);
    appendField(Out, First, "obs_p50", Row.ObsQ50);
    appendField(Out, First, "obs_p75", Row.ObsQ75);
    appendField(Out, First, "obs_p90", Row.ObsQ90);
    if (Row.HasTrained) {
      Out += ", \"train_p25\": ";
      appendDouble(Out, Row.TrainQ25);
      Out += ", \"train_p50\": ";
      appendDouble(Out, Row.TrainQ50);
      Out += ", \"train_p75\": ";
      appendDouble(Out, Row.TrainQ75);
      Out += ", \"drift\": ";
      appendDouble(Out, Row.DriftScore);
    }
    Out += "}";
  }
  Out += Report.Sites.empty() ? "],\n" : "\n" + Indent + "  ],\n";

  Out += Indent + "  \"episodes\": [";
  for (size_t I = 0; I < Report.Episodes.size(); ++I) {
    const FlightRecorder::PinEpisode &E = Report.Episodes[I];
    Out += I == 0 ? "\n" : ",\n";
    Out += Indent + "    {";
    bool First = true;
    appendField(Out, First, "band", E.Band);
    appendField(Out, First, "arena", E.ArenaIndex);
    appendField(Out, First, "generation", E.Generation);
    appendField(Out, First, "first_fill", E.FirstFillClock);
    appendField(Out, First, "last_fill", E.LastFillClock);
    appendField(Out, First, "pinned_since", E.PinnedSinceClock);
    appendField(Out, First, "end", E.EndClock);
    appendField(Out, First, "reset", E.ResetObserved ? 1 : 0);
    appendField(Out, First, "pin_events", E.PinEvents);
    appendField(Out, First, "objects", E.ObjectCount);
    appendField(Out, First, "placed_bytes", E.PlacedBytes);
    appendField(Out, First, "survivor_count", E.SurvivorCount);
    appendField(Out, First, "dead_byte_integral", E.DeadByteIntegral);
    Out += ", \"survivors\": [";
    for (size_t J = 0; J < E.Survivors.size(); ++J) {
      const FlightRecorder::Survivor &S = E.Survivors[J];
      Out += J == 0 ? "" : ", ";
      Out += "{";
      bool SF = true;
      appendField(Out, SF, "id", S.Id);
      appendField(Out, SF, "site", S.Site);
      appendField(Out, SF, "size", S.Size);
      appendField(Out, SF, "birth", S.BirthClock);
      appendField(Out, SF, "freed", S.DeathClock != FlightRecorder::NoDeath);
      if (S.DeathClock != FlightRecorder::NoDeath)
        appendField(Out, SF, "death", S.DeathClock);
      Out += "}";
    }
    Out += "]}";
  }
  Out += Report.Episodes.empty() ? "],\n" : "\n" + Indent + "  ],\n";

  Out += Indent + "  \"samples\": [";
  for (size_t I = 0; I < Report.Samples.size(); ++I) {
    const FlightRecorder::ObjectRecord &R = Report.Samples[I];
    Out += I == 0 ? "\n" : ",\n";
    Out += Indent + "    {";
    bool First = true;
    appendField(Out, First, "id", R.Id);
    appendField(Out, First, "site", R.Site);
    appendField(Out, First, "size", R.Size);
    appendField(Out, First, "birth", R.BirthClock);
    appendField(Out, First, "freed", R.DeathClock != FlightRecorder::NoDeath);
    if (R.DeathClock != FlightRecorder::NoDeath)
      appendField(Out, First, "death", R.DeathClock);
    appendField(Out, First, "predicted_short", R.PredictedShort);
    appendField(Out, First, "actually_short", R.ActuallyShort);
    appendField(Out, First, "band", R.Band);
    if (R.ArenaIndex != AuditPlacement::NoArena) {
      appendField(Out, First, "arena", R.ArenaIndex);
      appendField(Out, First, "generation", R.Generation);
    }
    Out += "}";
  }
  Out += Report.Samples.empty() ? "]" : "\n" + Indent + "  ]";
  Out += "\n" + Indent + "}";
}

void lifepred::exportAuditTelemetry(const AuditReport &Report,
                                    StatsRegistry &Registry,
                                    const std::string &Prefix) {
  Registry.counter(Prefix + "objects") += Report.TotalObjects;
  Registry.counter(Prefix + "sampled") += Report.SampledObjects;
  Registry.counter(Prefix + "sites") += Report.Sites.size();
  Registry.counter(Prefix + "true_short") += Report.TrueShort;
  Registry.counter(Prefix + "false_short") += Report.FalseShort;
  Registry.counter(Prefix + "missed_short") += Report.MissedShort;
  Registry.counter(Prefix + "true_long") += Report.TrueLong;
  Registry.counter(Prefix + "false_short_bytes") += Report.FalseShortBytes;
  Registry.counter(Prefix + "missed_short_bytes") += Report.MissedShortBytes;
  Registry.counter(Prefix + "wasted_bytes") += Report.wastedBytes();
  Registry.counter(Prefix + "dead_byte_integral") +=
      Report.TotalDeadByteIntegral;
  Registry.counter(Prefix + "pinned_episodes") += Report.PinnedEpisodes;

  // Headline gauges: the top-5 offending sites.  Gauges merge by maximum,
  // so in a merged multi-program registry these read as the worst offender
  // across programs; per-program registries keep the full ranking.
  size_t Top = std::min<size_t>(5, Report.Sites.size());
  for (size_t I = 0; I < Top; ++I) {
    if (Report.Sites[I].WastedBytes == 0)
      break;
    std::string Key = Prefix + "top" + std::to_string(I + 1);
    uint64_t &SiteGauge = Registry.gauge(Key + ".site");
    SiteGauge = std::max<uint64_t>(SiteGauge, Report.Sites[I].Site);
    uint64_t &WasteGauge = Registry.gauge(Key + ".wasted_bytes");
    WasteGauge = std::max<uint64_t>(WasteGauge, Report.Sites[I].WastedBytes);
  }
  if (!Report.Episodes.empty()) {
    uint64_t &Peak = Registry.gauge(Prefix + "max_episode_dead_bytes");
    Peak = std::max(Peak, Report.Episodes.front().DeadByteIntegral);
  }
}

void lifepred::emitArenaOccupancy(const AuditReport &Report,
                                  TraceEventWriter &Writer) {
  for (const FlightRecorder::PinEpisode &E : Report.Episodes) {
    // One synthetic track per arena, away from the real thread tids.
    unsigned Track = 100 + unsigned(E.Band) * 64 + (E.ArenaIndex & 63);
    std::string Tag = "b" + std::to_string(E.Band) + " a" +
                      std::to_string(E.ArenaIndex) + " g" +
                      std::to_string(E.Generation);
    Writer.complete("fill " + Tag, "arena", Track, E.FirstFillClock,
                    E.LastFillClock - E.FirstFillClock);
    Writer.complete("pinned " + Tag + " (" + std::to_string(E.SurvivorCount) +
                        " survivors)",
                    "arena", Track, E.PinnedSinceClock,
                    E.EndClock - E.PinnedSinceClock);
    if (E.ResetObserved)
      Writer.instantAt("reset " + Tag, "arena", Track, E.EndClock);
  }
}
