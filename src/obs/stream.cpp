#include "obs/stream.hpp"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>

#include "obs/json.hpp"

namespace vfpga::obs {

namespace {

void writeAttributes(JsonWriter& w, const AttrList& attrs) {
  if (attrs.empty()) return;
  w.key("attributes").beginObject();
  for (const auto& [k, v] : attrs) w.key(k).value(v);
  w.endObject();
}

void writeKeyCounts(JsonWriter& w, std::string_view field,
                    const std::map<std::string, std::uint64_t>& counts) {
  w.key(field).beginObject();
  for (const auto& [k, n] : counts) w.key(k).value(n);
  w.endObject();
}

/// Opens an NDJSON record: `{"kind":...,"domain":...`.
JsonWriter& beginRecord(JsonWriter& w, const char* kind,
                        const std::string& domain) {
  return w.beginObject().key("kind").value(kind).key("domain").value(domain);
}

}  // namespace

StreamExporter::StreamExporter(StreamOptions opt) : opt_(std::move(opt)) {
  if (opt_.path == "-") {
    out_ = stdout;
  } else if (!opt_.path.empty()) {
    out_ = std::fopen(opt_.path.c_str(), "wb");
    ownsFile_ = out_ != nullptr;
  }
  if (opt_.ringCapacity == 0) opt_.ringCapacity = 1;
  buffer_.reserve(opt_.ringCapacity < 4096 ? opt_.ringCapacity : 4096);
}

StreamExporter::~StreamExporter() { finish(); }

void StreamExporter::attach(SpanTracer& tracer, std::string domain) {
  tracer.setSinks(
      [this, domain](const SpanRecord& s) { onSpan(s, domain); },
      [this, domain](const InstantRecord& i) { onInstant(i, domain); });
}

void StreamExporter::onSpan(const SpanRecord& s, const std::string& domain) {
  std::string line;
  JsonWriter w(line);
  beginRecord(w, "span", domain).key("name").value(s.name).key("category")
      .value(s.category).key("span_id").value(s.spanId).key("start_ns")
      .value(s.startNs).key("duration_ns").value(s.durationNs).key("track")
      .value(s.track);
  if (!s.links.empty()) {
    w.key("links").beginArray();
    for (const std::uint64_t link : s.links) w.value(link);
    w.endArray();
  }
  writeAttributes(w, s.attributes);
  w.endObject();
  enqueue(s.category, s.startNs, std::move(line));
}

void StreamExporter::onInstant(const InstantRecord& i,
                               const std::string& domain) {
  std::string line;
  JsonWriter w(line);
  beginRecord(w, "instant", domain).key("name").value(i.name).key("category")
      .value(i.category).key("at_ns").value(i.atNs).key("track")
      .value(i.track);
  writeAttributes(w, i.attributes);
  w.endObject();
  enqueue(i.category, i.atNs, std::move(line));
}

void StreamExporter::onTrace(std::uint64_t atNs, std::string_view traceKind,
                             std::string_view detail,
                             const std::string& domain) {
  std::string line;
  JsonWriter w(line);
  beginRecord(w, "trace", domain).key("at_ns").value(atNs).key("trace_kind")
      .value(traceKind).key("detail").value(detail).endObject();
  enqueue("trace", atNs, std::move(line));
}

bool StreamExporter::enqueue(const std::string& key, std::uint64_t atNs,
                             std::string line) {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_ || out_ == nullptr) return false;
  ++emitted_;
  const std::uint64_t seen = ++seenByKey_[key];
  auto sample = opt_.sampleEvery.find(key);
  if (sample != opt_.sampleEvery.end() && sample->second > 1 &&
      (seen - 1) % sample->second != 0) {
    ++sampledOut_;
    ++sampledOutByKey_[key];
    return false;
  }
  if (buffer_.size() >= opt_.ringCapacity) {
    ++dropped_;
    ++droppedByKey_[key];
    return false;
  }
  buffer_.push_back(std::move(line));
  const bool countFlush =
      opt_.flushEveryRecords > 0 && buffer_.size() >= opt_.flushEveryRecords;
  const bool timeFlush = opt_.flushTimeDeltaNs > 0 &&
                         atNs >= lastFlushNs_ + opt_.flushTimeDeltaNs;
  if (countFlush || timeFlush) {
    flushLocked();
    lastFlushNs_ = atNs;
  }
  return true;
}

void StreamExporter::flushLocked() {
  if (out_ == nullptr) return;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::string& line : buffer_) {
    writeLineLocked(line);
    ++written_;
  }
  buffer_.clear();
  std::fflush(out_);
  ++flushes_;
  // Self-observation: what this flush cost the host, wall-clock.
  flushNs_.push_back(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
}

void StreamExporter::writeLineLocked(const std::string& line) {
  if (ownsFile_ && opt_.maxBytesPerFile > 0 && bytesThisFile_ > 0 &&
      bytesThisFile_ + line.size() + 1 > opt_.maxBytesPerFile) {
    std::fclose(out_);
    ++rotation_;
    const std::string next = opt_.path + "." + std::to_string(rotation_);
    out_ = std::fopen(next.c_str(), "wb");
    bytesThisFile_ = 0;
    if (out_ == nullptr) return;
  }
  std::fwrite(line.data(), 1, line.size(), out_);
  std::fputc('\n', out_);
  bytesThisFile_ += line.size() + 1;
}

void StreamExporter::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  flushLocked();
}

std::string StreamExporter::summaryLine() const {
  std::string line;
  JsonWriter w(line);
  w.beginObject().key("kind").value("stream_summary").key("emitted")
      .value(emitted_).key("written").value(written_).key("dropped")
      .value(dropped_).key("sampled_out").value(sampledOut_).key("flushes")
      .value(flushes_);
  writeKeyCounts(w, "dropped_by_kind", droppedByKey_);
  writeKeyCounts(w, "sampled_out_by_kind", sampledOutByKey_);
  w.endObject();
  return line;
}

void StreamExporter::finish() {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  finished_ = true;
  if (out_ == nullptr) return;
  flushLocked();
  std::string summary = summaryLine();
  writeLineLocked(summary);
  ++written_;
  std::fflush(out_);
  if (ownsFile_) std::fclose(out_);
  out_ = nullptr;
}

std::uint64_t StreamExporter::emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return emitted_;
}

std::uint64_t StreamExporter::written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return written_;
}

std::uint64_t StreamExporter::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::uint64_t StreamExporter::sampledOut() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sampledOut_;
}

std::map<std::string, std::uint64_t> StreamExporter::droppedByKey() const {
  std::lock_guard<std::mutex> lock(mu_);
  return droppedByKey_;
}

std::vector<std::uint64_t> StreamExporter::flushDurationsNs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flushNs_;
}

void StreamExporter::publishSelfMetrics(MetricsRegistry& registry) const {
  HistogramMetric& h = registry.histogram(
      "vfpga_obs_flush_ns", 0.0, 1e7, 20, {},
      "Wall-clock nanoseconds per stream-exporter flush (telemetry "
      "self-overhead)");
  for (const std::uint64_t ns : flushDurationsNs()) {
    h.observe(static_cast<double>(ns));
  }
}

// ------------------------------------------------------------- reader

namespace {

/// A number field as the writer emits it: an integer in [0, max]. Any
/// other number (negative, fractional, out of range) is damage; casting it
/// would be undefined.
std::uint64_t integer(const JsonValue& v, std::string_view field,
                      std::uint64_t max = ~std::uint64_t{0}) {
  const double d = v.asNumber();
  if (d >= 0.0 && d < 0x1p64 && d == std::floor(d) &&
      static_cast<std::uint64_t>(d) <= max) {
    return static_cast<std::uint64_t>(d);
  }
  throw JsonError('"' + std::string(field) + "\" is not an integer in [0, " +
                  std::to_string(max) + "]: " + formatDouble(d));
}

std::uint64_t integerAt(const JsonValue& record, const char* field,
                        std::uint64_t max = ~std::uint64_t{0}) {
  return integer(record.at(field), field, max);
}

void readAttributes(const JsonValue& record, AttrList& out) {
  if (!record.has("attributes")) return;
  for (const auto& [k, val] : record.at("attributes").asObject()) {
    out.emplace_back(k, val.asString());
  }
}

void readRecord(const JsonValue& v, CapturedStream& out) {
  const std::string& kind = v.at("kind").asString();
  if (kind == "span") {
    SpanRecord s;
    s.name = v.at("name").asString();
    s.category = v.at("category").asString();
    s.startNs = integerAt(v, "start_ns");
    s.durationNs = integerAt(v, "duration_ns");
    s.track = static_cast<std::uint32_t>(integerAt(v, "track", UINT32_MAX));
    s.spanId = integerAt(v, "span_id");
    if (v.has("links")) {
      for (const JsonValue& l : v.at("links").asArray()) {
        s.links.push_back(integer(l, "links"));
      }
    }
    readAttributes(v, s.attributes);
    out.tracers[v.at("domain").asString()].import(std::move(s));
  } else if (kind == "instant") {
    InstantRecord i;
    i.name = v.at("name").asString();
    i.category = v.at("category").asString();
    i.atNs = integerAt(v, "at_ns");
    i.track = static_cast<std::uint32_t>(integerAt(v, "track", UINT32_MAX));
    readAttributes(v, i.attributes);
    out.tracers[v.at("domain").asString()].import(std::move(i));
  } else if (kind == "trace") {
    const std::string& name = v.at("trace_kind").asString();
    const std::optional<TraceKind> traceKind = traceKindByName(name);
    if (!traceKind) throw JsonError("unknown trace_kind '" + name + "'");
    const std::uint64_t at = integerAt(v, "at_ns");
    out.traces.try_emplace(v.at("domain").asString(), std::size_t{1} << 20)
        .first->second.record(at, *traceKind, v.at("detail").asString());
  } else if (kind == "stream_summary") {
    ++out.summaries;
  } else {
    throw JsonError("unknown record kind '" + kind + "'");
  }
}

}  // namespace

CapturedStream loadStream(const std::string& path) {
  CapturedStream out;
  std::ifstream in(path);
  if (!in) {
    out.error = "cannot open stream " + path;
    return out;
  }
  std::string text;
  std::uint64_t lineNo = 0;
  while (std::getline(in, text)) {
    ++lineNo;
    if (text.empty()) continue;
    try {
      readRecord(JsonValue::parse(text), out);
    } catch (const JsonError& e) {
      out.error = path + ":" + std::to_string(lineNo) +
                  ": truncated or invalid stream record: " + e.what();
      return out;
    }
    ++out.records;
  }
  return out;
}

ChromeTraceInput capturedInput(const CapturedStream& cap) {
  ChromeTraceInput input;
  const auto flow = cap.tracers.find("flow");
  if (flow != cap.tracers.end()) input.wall = &flow->second;
  for (const auto& [domain, tracer] : cap.tracers) {
    if (domain == "flow") continue;
    const auto t = cap.traces.find(domain);
    input.sim.push_back(
        {domain, &tracer, t == cap.traces.end() ? nullptr : &t->second});
  }
  for (const auto& [domain, trace] : cap.traces) {
    if (domain == "flow" || cap.tracers.count(domain) != 0) continue;
    input.sim.push_back({domain, nullptr, &trace});
  }
  return input;
}

}  // namespace vfpga::obs
