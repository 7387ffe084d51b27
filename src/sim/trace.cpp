#include "sim/trace.hpp"

#include <sstream>

namespace vfpga {

const char* traceKindName(TraceKind k) {
  switch (k) {
    case TraceKind::kTaskArrive: return "task_arrive";
    case TraceKind::kTaskDispatch: return "task_dispatch";
    case TraceKind::kTaskPreempt: return "task_preempt";
    case TraceKind::kTaskBlock: return "task_block";
    case TraceKind::kTaskUnblock: return "task_unblock";
    case TraceKind::kTaskFinish: return "task_finish";
    case TraceKind::kConfigDownload: return "config_download";
    case TraceKind::kConfigReadback: return "config_readback";
    case TraceKind::kPartitionCreate: return "partition_create";
    case TraceKind::kPartitionSplit: return "partition_split";
    case TraceKind::kPartitionMerge: return "partition_merge";
    case TraceKind::kPartitionAssign: return "partition_assign";
    case TraceKind::kPartitionRelease: return "partition_release";
    case TraceKind::kGarbageCollect: return "garbage_collect";
    case TraceKind::kOverlayLoad: return "overlay_load";
    case TraceKind::kSegmentLoad: return "segment_load";
    case TraceKind::kSegmentEvict: return "segment_evict";
    case TraceKind::kPageFault: return "page_fault";
    case TraceKind::kPageLoad: return "page_load";
    case TraceKind::kPageEvict: return "page_evict";
    case TraceKind::kIoTransfer: return "io_transfer";
    case TraceKind::kStateSave: return "state_save";
    case TraceKind::kStateRestore: return "state_restore";
    case TraceKind::kRelocate: return "relocate";
    case TraceKind::kIoMuxGrant: return "io_mux_grant";
    case TraceKind::kInfo: return "info";
  }
  return "unknown";
}

std::optional<TraceKind> traceKindByName(std::string_view name) {
  for (std::size_t k = 0; k < kTraceKindCount; ++k) {
    const auto kind = static_cast<TraceKind>(k);
    if (name == traceKindName(kind)) return kind;
  }
  return std::nullopt;
}

void Trace::record(SimTime at, TraceKind kind, std::string detail) {
  ++counts_[static_cast<std::size_t>(kind)];
  if (recordSink_) recordSink_(TraceRecord{at, kind, detail});
  if (capacity_ == 0) return;
  if (records_.size() >= capacity_) records_.pop_front();
  records_.push_back(TraceRecord{at, kind, std::move(detail)});
}

std::uint64_t Trace::count(TraceKind kind) const {
  return counts_[static_cast<std::size_t>(kind)];
}

std::vector<TraceRecord> Trace::ofKind(TraceKind kind) const {
  std::vector<TraceRecord> out;
  for (const auto& r : records_) {
    if (r.kind == kind) out.push_back(r);
  }
  return out;
}

std::string Trace::render() const {
  std::ostringstream os;
  for (const auto& r : records_) {
    os << "t=" << r.at << " " << traceKindName(r.kind) << " " << r.detail
       << "\n";
  }
  return os.str();
}

void Trace::clear() {
  records_.clear();
  counts_.assign(counts_.size(), 0);
}

}  // namespace vfpga
