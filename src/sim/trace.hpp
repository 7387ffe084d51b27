// Lightweight event trace recorder.
//
// The OS layer emits trace records (task dispatched, configuration
// downloaded, partition created, page fault, ...) that tests assert on and
// examples print. Recording is cheap (bounded ring) and can be disabled.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hpp"

namespace vfpga {

enum class TraceKind {
  kTaskArrive,
  kTaskDispatch,
  kTaskPreempt,
  kTaskBlock,
  kTaskUnblock,
  kTaskFinish,
  kConfigDownload,
  kConfigReadback,
  kPartitionCreate,
  kPartitionSplit,
  kPartitionMerge,
  kPartitionAssign,
  kPartitionRelease,
  kGarbageCollect,
  kOverlayLoad,
  kSegmentLoad,
  kSegmentEvict,
  kPageFault,
  kPageLoad,
  kPageEvict,
  kIoTransfer,
  kStateSave,     ///< task state read back off the fabric before a preempt
  kStateRestore,  ///< saved task state written back on re-dispatch
  kRelocate,      ///< partition compaction moved a resident configuration
  kIoMuxGrant,    ///< I/O mux granted a physical pad slot to a virtual pin
  kInfo,
};

/// Number of TraceKind values (kInfo is last by convention).
inline constexpr std::size_t kTraceKindCount =
    static_cast<std::size_t>(TraceKind::kInfo) + 1;

/// Human-readable name of a trace kind (stable; used in golden tests).
const char* traceKindName(TraceKind k);

/// The kind traceKindName() spells `name`; nullopt for any other string.
std::optional<TraceKind> traceKindByName(std::string_view name);

/// Callback managers without a Trace reference emit through; the kernel
/// binds it to its Trace ring (stamping the current simulated time).
using TraceSink = std::function<void(TraceKind, std::string)>;

struct TraceRecord {
  SimTime at = 0;
  TraceKind kind = TraceKind::kInfo;
  std::string detail;
};

class Trace {
 public:
  /// `capacity` bounds memory; older records are dropped first. 0 disables
  /// recording entirely (counting still works).
  explicit Trace(std::size_t capacity = 4096) : capacity_(capacity) {}

  void record(SimTime at, TraceKind kind, std::string detail);

  /// Live observer invoked on every record() before retention/eviction —
  /// streaming exporters see records even when the ring drops them.
  using RecordSink = std::function<void(const TraceRecord&)>;
  void setRecordSink(RecordSink sink) { recordSink_ = std::move(sink); }

  /// All retained records, oldest first.
  const std::deque<TraceRecord>& records() const { return records_; }

  /// Total records ever emitted of the given kind (not limited by capacity).
  std::uint64_t count(TraceKind kind) const;

  /// Retained records of one kind, oldest first.
  std::vector<TraceRecord> ofKind(TraceKind kind) const;

  /// Renders retained records as "t=<ns> <kind> <detail>" lines.
  std::string render() const;

  void clear();

 private:
  std::size_t capacity_;
  RecordSink recordSink_;
  std::deque<TraceRecord> records_;
  std::vector<std::uint64_t> counts_ =
      std::vector<std::uint64_t>(kTraceKindCount, 0);
};

}  // namespace vfpga
