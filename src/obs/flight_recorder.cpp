#include "obs/flight_recorder.hpp"

#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "obs/exporters.hpp"
#include "obs/json.hpp"
#include "obs/output_dir.hpp"

namespace vfpga::obs {

namespace {

FlightRecorder* g_recorder = nullptr;

std::string sanitize(std::string_view s) {
  std::string out;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    out.push_back(ok ? c : '_');
  }
  return out.empty() ? std::string("unknown") : out;
}

}  // namespace

std::string FlightRecorder::renderBundle(std::string_view ruleId,
                                         std::string_view context,
                                         std::string_view diagnosticsJson) const {
  std::string out;
  JsonWriter w(out, JsonWriter::Style::kSpaced);
  w.beginObject().newline("  ").key("rule_id").value(ruleId).newline("  ")
      .key("context").value(context).newline("  ").key("diagnostics");
  if (diagnosticsJson.empty()) {
    w.null();
  } else {
    w.token(diagnosticsJson);
  }

  // One record per line; an empty list stays `[]`.
  w.newline("  ").key("trace_tail").beginArray();
  if (trace_ != nullptr) {
    const auto& records = trace_->records();
    const std::size_t n = records.size();
    const std::size_t start =
        n > options_.traceTail ? n - options_.traceTail : 0;
    for (std::size_t i = start; i < n; ++i) {
      const TraceRecord& r = records[i];
      w.newline("    ").beginObject().key("at").value(r.at).key("kind")
          .value(traceKindName(r.kind)).key("detail").value(r.detail)
          .endObject();
    }
    if (start < n) w.newline("  ");
  }
  w.endArray().newline("  ").key("spans").beginArray();
  if (spans_ != nullptr) {
    for (const SpanRecord& s : spans_->spans()) {
      w.newline("    ").beginObject().key("name").value(s.name)
          .key("category").value(s.category).key("start_ns").value(s.startNs)
          .key("duration_ns").value(s.durationNs).endObject();
    }
    if (!spans_->spans().empty()) w.newline("  ");
  }
  w.endArray().newline("  ").key("notes").beginArray();
  for (const Note& n : notes_) {
    w.newline("    ").beginObject().key("at_ns").value(n.atNs).key("text")
        .value(n.text).endObject();
  }
  if (!notes_.empty()) w.newline("  ");
  // The compact metrics snapshot ends in its own newline.
  w.endArray().newline("  ").key("metrics");
  if (registry_ != nullptr) {
    w.token(renderMetricsJson(*registry_));
  } else {
    w.beginArray().endArray().newline();
  }
  w.endObject();
  out += '\n';
  return out;
}

void FlightRecorder::note(std::uint64_t atNs, std::string text) {
  if (options_.noteCapacity == 0) return;
  if (notes_.size() == options_.noteCapacity) notes_.pop_front();
  notes_.push_back({atNs, std::move(text)});
}

std::string FlightRecorder::dump(std::string_view ruleId,
                                 std::string_view context,
                                 std::string_view diagnosticsJson) {
  std::string dir = options_.directory;
  if (dir.empty()) {
    const char* env = std::getenv("VFPGA_FLIGHT_DIR");
    dir = (env != nullptr && *env != '\0') ? std::string(env) : outputDir();
  }

  const std::string path = dir + "/" + options_.prefix + "_" +
                           sanitize(ruleId) + "_" + std::to_string(dumps_) +
                           ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("flight recorder: cannot write " + path);
  }
  out << renderBundle(ruleId, context, diagnosticsJson);
  out.close();
  if (!out) {
    throw std::runtime_error("flight recorder: write failed for " + path);
  }
  ++dumps_;
  return path;
}

FlightRecorder* FlightRecorder::installGlobal(FlightRecorder* recorder) {
  FlightRecorder* prev = g_recorder;
  g_recorder = recorder;
  return prev;
}

FlightRecorder* FlightRecorder::global() { return g_recorder; }

}  // namespace vfpga::obs
