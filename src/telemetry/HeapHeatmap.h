//===- telemetry/HeapHeatmap.h - Address x byte-clock occupancy -*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An address-space x byte-clock occupancy matrix: rows are fixed-width
/// address windows, columns are byte-clock bins, each cell holds the live
/// bytes observed inside that window at that time.  Drivers sample at
/// stride boundaries (due(), like HeapTimeline) and feed the allocator's
/// live spans through beginColumn/addSpan/endColumn; the matrix renders as
/// ASCII shading for the terminal, JSON for tooling, and chrome://tracing
/// events via TraceEventWriter.
///
/// Rows are keyed by absolute address window, stored sparsely — the
/// simulated address space has islands (arena areas near 2^20, general
/// heaps at 2^40), and a dense matrix over that range would be absurd.
/// Cell values are order-independent sums, so scan order never changes the
/// matrix, and merge() makes shard-local heatmaps combine into the global
/// picture by cell-wise addition.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_TELEMETRY_HEAPHEATMAP_H
#define LIFEPRED_TELEMETRY_HEAPHEATMAP_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace lifepred {

class StatsRegistry;
class TraceEventWriter;

/// Sparse occupancy matrix over (address window, byte-clock bin).
class HeapHeatmap {
public:
  struct Config {
    /// Address bytes per row; rounded up to a power of two (minimum 64).
    uint64_t BytesPerRow = 64 * 1024;
    /// Byte clock per column (minimum 1).  Pick roughly endClock/columns.
    uint64_t ClockStride = 1 << 20;
    /// Hard cap on distinct rows; spans in further windows are dropped and
    /// accounted in clippedBytes() rather than growing without bound.
    uint64_t MaxRows = 4096;
    /// Hard cap on columns.  A sample past the cap folds into the last
    /// column, and once the last column is sampled due() stays false.
    uint64_t MaxColumns = 512;
  };

  explicit HeapHeatmap(Config C);

  const Config &config() const { return Cfg; }

  /// True when the clock has entered a column not yet sampled.
  bool due(uint64_t Clock) const { return Clock >= NextClock; }

  /// Opens the column containing \p Clock.
  void beginColumn(uint64_t Clock);

  /// Accumulates a live span into the open column, splitting it across row
  /// boundaries.
  void addSpan(uint64_t Address, uint64_t Bytes);

  /// Closes the open column and advances the stride cursor.
  void endColumn();

  /// Cell-wise addition of \p Other (same geometry required), for merging
  /// shard-local heatmaps in shard-index order.
  void merge(const HeapHeatmap &Other);

  /// Number of distinct address rows / populated columns.
  uint64_t rowCount() const { return Rows.size(); }
  uint64_t columnCount() const;
  uint64_t occupiedCells() const;
  uint64_t peakCellBytes() const;
  /// Bytes dropped by the MaxRows cap.
  uint64_t clippedBytes() const { return Clipped; }

  /// Live bytes recorded at (row window containing \p Address, column of
  /// \p Clock); 0 when absent (test support).
  uint64_t cellBytes(uint64_t Address, uint64_t Clock) const;

  /// Renders the matrix as ASCII shading (" .:-=+*#%@" by cell occupancy
  /// relative to the row width) to \p Out, one row per address window with
  /// hex labels and a gap marker between discontiguous regions.
  void printAscii(std::FILE *Out) const;

  /// Appends the matrix as a JSON object to \p Out: geometry, then sparse
  /// rows of [column, bytes] cell pairs.  \p Indent prefixes every line.
  void writeJson(std::string &Out, const std::string &Indent) const;

  /// Emits one chrome://tracing complete event per occupied cell: track =
  /// row index, timestamp/duration = the column's clock window, name = the
  /// cell's occupancy percentage.  Load the file in a trace viewer to
  /// scrub heap occupancy over byte time.
  void exportTrace(TraceEventWriter &Writer) const;

  /// Deterministic shape gauges under "<Prefix>heatmap.": rows, columns,
  /// occupied_cells, peak_cell_bytes, clipped_bytes.  All value keys — the
  /// matrix is a pure function of the trace.
  void exportTelemetry(StatsRegistry &Registry,
                       const std::string &Prefix) const;

private:
  uint64_t rowKeyFor(uint64_t Address) const { return Address >> RowShift; }

  Config Cfg;
  unsigned RowShift;
  uint64_t NextClock = 0; ///< First column triggers immediately.
  bool InColumn = false;
  uint32_t CurColumn = 0;
  uint64_t Clipped = 0;
  /// Row window -> (column -> live bytes).  std::map keeps render order
  /// address-sorted and output deterministic.
  std::map<uint64_t, std::map<uint32_t, uint64_t>> Rows;
};

} // namespace lifepred

#endif // LIFEPRED_TELEMETRY_HEAPHEATMAP_H
