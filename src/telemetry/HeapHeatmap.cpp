//===- telemetry/HeapHeatmap.cpp - Address x byte-clock occupancy ----------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "telemetry/HeapHeatmap.h"

#include "telemetry/StatsRegistry.h"
#include "telemetry/TraceEventWriter.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace lifepred;

HeapHeatmap::HeapHeatmap(Config C) : Cfg(C) {
  Cfg.BytesPerRow = std::bit_ceil(std::max<uint64_t>(Cfg.BytesPerRow, 64));
  if (Cfg.ClockStride == 0)
    Cfg.ClockStride = 1;
  if (Cfg.MaxRows == 0)
    Cfg.MaxRows = 1;
  if (Cfg.MaxColumns == 0)
    Cfg.MaxColumns = 1;
  RowShift = static_cast<unsigned>(std::countr_zero(Cfg.BytesPerRow));
}

void HeapHeatmap::beginColumn(uint64_t Clock) {
  assert(!InColumn && "beginColumn while a column is open");
  InColumn = true;
  uint64_t Column = Clock / Cfg.ClockStride;
  CurColumn = static_cast<uint32_t>(
      std::min<uint64_t>(Column, Cfg.MaxColumns - 1));
}

void HeapHeatmap::addSpan(uint64_t Address, uint64_t Bytes) {
  assert(InColumn && "addSpan outside beginColumn/endColumn");
  while (Bytes != 0) {
    uint64_t Row = rowKeyFor(Address);
    uint64_t RowEnd = (Row + 1) << RowShift;
    uint64_t Take = std::min(Bytes, RowEnd - Address);
    auto It = Rows.find(Row);
    if (It == Rows.end()) {
      if (Rows.size() >= Cfg.MaxRows) {
        Clipped += Take;
        Address += Take;
        Bytes -= Take;
        continue;
      }
      It = Rows.emplace(Row, std::map<uint32_t, uint64_t>()).first;
    }
    It->second[CurColumn] += Take;
    Address += Take;
    Bytes -= Take;
  }
}

void HeapHeatmap::endColumn() {
  assert(InColumn && "endColumn without beginColumn");
  InColumn = false;
  // Next boundary strictly after the sampled column.  Once the last column
  // is sampled there is no further column to open: a clamped boundary
  // would lie in the past, and every later event would re-walk the heap
  // into the last column.
  NextClock = uint64_t(CurColumn) + 1 < Cfg.MaxColumns
                  ? (uint64_t(CurColumn) + 1) * Cfg.ClockStride
                  : UINT64_MAX;
}

void HeapHeatmap::merge(const HeapHeatmap &Other) {
  assert(Cfg.BytesPerRow == Other.Cfg.BytesPerRow &&
         Cfg.ClockStride == Other.Cfg.ClockStride &&
         "merging heatmaps of different geometry");
  for (const auto &[Row, Cells] : Other.Rows) {
    auto It = Rows.find(Row);
    if (It == Rows.end()) {
      if (Rows.size() >= Cfg.MaxRows) {
        for (const auto &[Col, Bytes] : Cells)
          Clipped += Bytes;
        continue;
      }
      It = Rows.emplace(Row, std::map<uint32_t, uint64_t>()).first;
    }
    for (const auto &[Col, Bytes] : Cells)
      It->second[Col] += Bytes;
  }
  Clipped += Other.Clipped;
  NextClock = std::max(NextClock, Other.NextClock);
}

uint64_t HeapHeatmap::columnCount() const {
  uint64_t MaxColumn = 0;
  bool Any = false;
  for (const auto &[Row, Cells] : Rows)
    for (const auto &[Col, Bytes] : Cells) {
      MaxColumn = std::max<uint64_t>(MaxColumn, Col);
      Any = true;
    }
  return Any ? MaxColumn + 1 : 0;
}

uint64_t HeapHeatmap::occupiedCells() const {
  uint64_t Count = 0;
  for (const auto &[Row, Cells] : Rows)
    Count += Cells.size();
  return Count;
}

uint64_t HeapHeatmap::peakCellBytes() const {
  uint64_t Peak = 0;
  for (const auto &[Row, Cells] : Rows)
    for (const auto &[Col, Bytes] : Cells)
      Peak = std::max(Peak, Bytes);
  return Peak;
}

uint64_t HeapHeatmap::cellBytes(uint64_t Address, uint64_t Clock) const {
  auto RowIt = Rows.find(rowKeyFor(Address));
  if (RowIt == Rows.end())
    return 0;
  uint64_t Column = std::min<uint64_t>(Clock / Cfg.ClockStride,
                                       Cfg.MaxColumns - 1);
  auto CellIt = RowIt->second.find(static_cast<uint32_t>(Column));
  return CellIt == RowIt->second.end() ? 0 : CellIt->second;
}

void HeapHeatmap::printAscii(std::FILE *Out) const {
  static const char Shades[] = " .:-=+*#%@";
  uint64_t Columns = columnCount();
  std::fprintf(Out,
               "heap heatmap: %llu rows x %llu cols "
               "(row = %llu addr bytes, col = %llu clock bytes)\n",
               static_cast<unsigned long long>(Rows.size()),
               static_cast<unsigned long long>(Columns),
               static_cast<unsigned long long>(Cfg.BytesPerRow),
               static_cast<unsigned long long>(Cfg.ClockStride));
  uint64_t PrevRow = 0;
  bool First = true;
  for (const auto &[Row, Cells] : Rows) {
    if (!First && Row != PrevRow + 1)
      std::fprintf(Out, "  ~~~ address gap ~~~\n");
    First = false;
    PrevRow = Row;
    std::fprintf(Out, "  0x%012llx |",
                 static_cast<unsigned long long>(Row << RowShift));
    for (uint64_t Col = 0; Col < Columns; ++Col) {
      auto It = Cells.find(static_cast<uint32_t>(Col));
      uint64_t Bytes = It == Cells.end() ? 0 : It->second;
      // Shade by occupancy relative to the row window; clamp — a column
      // can accumulate more than one sample's worth of bytes.
      uint64_t Level = Bytes == 0 ? 0 : 1 + Bytes * 8 / Cfg.BytesPerRow;
      std::fputc(Shades[std::min<uint64_t>(Level, 9)], Out);
    }
    std::fprintf(Out, "|\n");
  }
  if (Clipped != 0)
    std::fprintf(Out, "  (%llu bytes clipped by row cap)\n",
                 static_cast<unsigned long long>(Clipped));
}

void HeapHeatmap::writeJson(std::string &Out,
                            const std::string &Indent) const {
  char Buf[192];
  Out += "{\n";
  std::snprintf(Buf, sizeof(Buf),
                "%s  \"bytes_per_row\": %llu,\n"
                "%s  \"clock_stride\": %llu,\n",
                Indent.c_str(),
                static_cast<unsigned long long>(Cfg.BytesPerRow),
                Indent.c_str(),
                static_cast<unsigned long long>(Cfg.ClockStride));
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "%s  \"columns\": %llu,\n%s  \"clipped_bytes\": %llu,\n",
                Indent.c_str(),
                static_cast<unsigned long long>(columnCount()),
                Indent.c_str(), static_cast<unsigned long long>(Clipped));
  Out += Buf;
  Out += Indent + "  \"rows\": [";
  bool FirstRow = true;
  for (const auto &[Row, Cells] : Rows) {
    Out += FirstRow ? "\n" : ",\n";
    FirstRow = false;
    std::snprintf(Buf, sizeof(Buf), "%s    {\"base\": %llu, \"cells\": [",
                  Indent.c_str(),
                  static_cast<unsigned long long>(Row << RowShift));
    Out += Buf;
    bool FirstCell = true;
    for (const auto &[Col, Bytes] : Cells) {
      std::snprintf(Buf, sizeof(Buf), "%s[%u, %llu]", FirstCell ? "" : ", ",
                    Col, static_cast<unsigned long long>(Bytes));
      Out += Buf;
      FirstCell = false;
    }
    Out += "]}";
  }
  Out += Rows.empty() ? "]" : "\n" + Indent + "  ]";
  Out += "\n" + Indent + "}";
}

void HeapHeatmap::exportTrace(TraceEventWriter &Writer) const {
  char Name[32];
  unsigned Track = 0;
  for (const auto &[Row, Cells] : Rows) {
    for (const auto &[Col, Bytes] : Cells) {
      std::snprintf(Name, sizeof(Name), "%llu%%",
                    static_cast<unsigned long long>(
                        std::min<uint64_t>(Bytes * 100 / Cfg.BytesPerRow,
                                           100)));
      Writer.complete(Name, "heatmap", Track,
                      uint64_t(Col) * Cfg.ClockStride, Cfg.ClockStride);
    }
    ++Track;
  }
}

void HeapHeatmap::exportTelemetry(StatsRegistry &Registry,
                                  const std::string &Prefix) const {
  auto Peak = [&Registry](const std::string &Name, uint64_t Value) {
    uint64_t &Gauge = Registry.gauge(Name);
    if (Value > Gauge)
      Gauge = Value;
  };
  Peak(Prefix + "heatmap.rows", Rows.size());
  Peak(Prefix + "heatmap.columns", columnCount());
  Peak(Prefix + "heatmap.occupied_cells", occupiedCells());
  Peak(Prefix + "heatmap.peak_cell_bytes", peakCellBytes());
  Peak(Prefix + "heatmap.clipped_bytes", Clipped);
}
