#include "obs/exporters.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace vfpga::obs {

namespace {

/// trace_event timestamps are microseconds; keep sub-ns precision.
double micros(std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

/// Keys render sorted: a span replayed from an NDJSON stream round-trips
/// its attributes through a key-sorted JSON object, so the live render
/// must use the same order to stay byte-identical with the replay.
void writeArgs(JsonWriter& w, const AttrList& attrs,
               const AttrList& extra = {}) {
  AttrList merged = attrs;
  merged.insert(merged.end(), extra.begin(), extra.end());
  std::stable_sort(merged.begin(), merged.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  w.key("args").beginObject();
  for (const auto& [k, v] : merged) w.key(k).value(v);
  w.endObject();
}

/// span_id / links render as args (string values), keeping the trace_event
/// envelope and the validator untouched.
AttrList linkArgs(const SpanRecord& s) {
  AttrList extra;
  if (s.spanId != 0) extra.emplace_back("span_id", std::to_string(s.spanId));
  if (!s.links.empty()) {
    std::string joined;
    for (std::size_t i = 0; i < s.links.size(); ++i) {
      if (i) joined += ',';
      joined += std::to_string(s.links[i]);
    }
    extra.emplace_back("links", std::move(joined));
  }
  return extra;
}

/// Opens one event object on its own line: name, category, phase.
JsonWriter& beginEvent(JsonWriter& w, std::string_view name,
                       std::string_view category, const char* phase) {
  return w.newline().beginObject().key("name").value(name).key("cat")
      .value(category).key("ph").value(phase);
}

void writeMetaEvent(JsonWriter& w, int pid, const std::string& processName) {
  w.newline().beginObject().key("name").value("process_name").key("ph")
      .value("M").key("pid").value(pid).key("tid").value(0).key("args")
      .beginObject().key("name").value(processName).endObject().endObject();
}

void writeSpans(JsonWriter& w, int pid, const SpanTracer& tracer) {
  for (const SpanRecord& s : tracer.spans()) {
    beginEvent(w, s.name, s.category, "X").key("ts").value(micros(s.startNs))
        .key("dur").value(micros(s.durationNs)).key("pid").value(pid)
        .key("tid").value(s.track);
    writeArgs(w, s.attributes, linkArgs(s));
    w.endObject();
  }
  for (const InstantRecord& i : tracer.instants()) {
    beginEvent(w, i.name, i.category, "i").key("s").value("t").key("ts")
        .value(micros(i.atNs)).key("pid").value(pid).key("tid").value(i.track);
    writeArgs(w, i.attributes);
    w.endObject();
  }
}

void writeTraceRecords(JsonWriter& w, int pid, const Trace& trace) {
  for (const TraceRecord& r : trace.records()) {
    beginEvent(w, traceKindName(r.kind), "os.trace", "i").key("s").value("t")
        .key("ts").value(micros(r.at)).key("pid").value(pid).key("tid")
        .value(0).key("args").beginObject().key("detail").value(r.detail)
        .endObject().endObject();
  }
}

}  // namespace

std::string renderChromeTrace(const ChromeTraceInput& input) {
  std::string out;
  JsonWriter w(out);
  w.beginObject().key("traceEvents").beginArray();
  if (input.wall != nullptr) {
    writeMetaEvent(w, 1, "vfpga compile flow (wall clock)");
    writeSpans(w, 1, *input.wall);
  }
  int pid = 2;
  for (const SimProcessTrace& p : input.sim) {
    writeMetaEvent(w, pid,
                   p.name.empty() ? "vfpga os (simulated time)" : p.name);
    if (p.spans != nullptr) writeSpans(w, pid, *p.spans);
    if (p.trace != nullptr) writeTraceRecords(w, pid, *p.trace);
    ++pid;
  }
  // An empty trace keeps the blank line between its brackets.
  if (input.wall == nullptr && input.sim.empty()) w.newline();
  w.newline().endArray().key("displayTimeUnit").value("ms").endObject();
  out += '\n';
  return out;
}

std::string renderTimelineCsv(const ChromeTraceInput& input) {
  std::string out = "process,type,track,category,name,start_ns,duration_ns\n";
  auto row = [&out](const std::string& proc, const char* type,
                    std::uint32_t track, const std::string& category,
                    const std::string& name, std::uint64_t start,
                    std::uint64_t dur) {
    out += csvField(proc) + ',' + type + ',' + std::to_string(track) + ',' +
           csvField(category) + ',' + csvField(name) + ',' +
           std::to_string(start) + ',' + std::to_string(dur) + '\n';
  };
  auto addTracer = [&row](const std::string& proc, const SpanTracer* t) {
    if (t == nullptr) return;
    for (const SpanRecord& s : t->spans()) {
      row(proc, "span", s.track, s.category, s.name, s.startNs, s.durationNs);
    }
    for (const InstantRecord& i : t->instants()) {
      row(proc, "instant", i.track, i.category, i.name, i.atNs, 0);
    }
  };
  addTracer("flow", input.wall);
  for (const SimProcessTrace& p : input.sim) {
    addTracer(p.name, p.spans);
    if (p.trace != nullptr) {
      for (const TraceRecord& r : p.trace->records()) {
        row(p.name, "trace", 0, "os.trace", traceKindName(r.kind), r.at, 0);
      }
    }
  }
  return out;
}

namespace {

/// A trace_event time in microseconds as whole nanoseconds, clamped to
/// +-2^61 so a span's end (start + duration) cannot overflow.
std::int64_t nanosOf(double micros) {
  return std::llround(std::clamp(micros * 1000.0, -0x1p61, 0x1p61));
}

}  // namespace

std::vector<std::string> validateChromeTrace(std::string_view json) {
  std::vector<std::string> problems;
  JsonValue doc;
  try {
    doc = JsonValue::parse(json);
  } catch (const JsonError& e) {
    problems.push_back(std::string("not valid JSON: ") + e.what());
    return problems;
  }
  if (!doc.isObject() || !doc.has("traceEvents")) {
    problems.push_back("top level must be an object with \"traceEvents\"");
    return problems;
  }
  const JsonValue& events = doc.at("traceEvents");
  if (!events.isArray()) {
    problems.push_back("\"traceEvents\" must be an array");
    return problems;
  }

  struct Interval {
    std::int64_t start, end;  ///< nanoseconds
    std::string name;
  };
  std::map<std::pair<double, double>, std::vector<Interval>> tracks;

  std::size_t idx = 0;
  for (const JsonValue& ev : events.asArray()) {
    const std::string where = "event " + std::to_string(idx++);
    if (!ev.isObject()) {
      problems.push_back(where + ": not an object");
      continue;
    }
    if (!ev.has("ph") || !ev.at("ph").isString()) {
      problems.push_back(where + ": missing string \"ph\"");
      continue;
    }
    const std::string& ph = ev.at("ph").asString();
    if (ph != "X" && ph != "i" && ph != "M" && ph != "B" && ph != "E" &&
        ph != "C") {
      problems.push_back(where + ": unknown phase \"" + ph + "\"");
      continue;
    }
    if (!ev.has("name") || !ev.at("name").isString()) {
      problems.push_back(where + ": missing string \"name\"");
    }
    if (!ev.has("pid") || !ev.at("pid").isNumber()) {
      problems.push_back(where + ": missing numeric \"pid\"");
    }
    if (ph == "M") continue;  // metadata needs no timestamp
    if (!ev.has("ts") || !ev.at("ts").isNumber()) {
      problems.push_back(where + ": missing numeric \"ts\"");
      continue;
    }
    if (!ev.has("tid") || !ev.at("tid").isNumber()) {
      problems.push_back(where + ": missing numeric \"tid\"");
      continue;
    }
    if (ph == "X") {
      if (!ev.has("dur") || !ev.at("dur").isNumber()) {
        problems.push_back(where + ": complete span missing numeric \"dur\"");
        continue;
      }
      const std::int64_t start = nanosOf(ev.at("ts").asNumber());
      Interval iv{start, start + nanosOf(ev.at("dur").asNumber()),
                  ev.has("name") ? ev.at("name").asString() : ""};
      tracks[{ev.at("pid").asNumber(), ev.at("tid").asNumber()}].push_back(iv);
    }
  }

  // Complete spans on one (pid, tid) track must nest: sorted by start, an
  // overlapping pair is legal only when one contains the other.
  for (auto& [key, ivs] : tracks) {
    std::sort(ivs.begin(), ivs.end(), [](const Interval& a, const Interval& b) {
      if (a.start != b.start) return a.start < b.start;
      return a.end > b.end;  // outermost first
    });
    std::vector<Interval> stack;
    for (const Interval& iv : ivs) {
      while (!stack.empty() && stack.back().end <= iv.start) stack.pop_back();
      if (!stack.empty() && iv.end > stack.back().end) {
        problems.push_back("spans \"" + stack.back().name + "\" and \"" +
                           iv.name + "\" partially overlap on one track");
      }
      stack.push_back(iv);
    }
  }
  return problems;
}

// ------------------------------------------------------------- prometheus

namespace {

/// Prometheus exposition-format label-value escaping. The text format
/// escapes exactly three characters — backslash, double-quote and newline
/// — unlike JSON (whose \t, \uXXXX etc. a Prometheus scraper would read
/// back literally, which is why JSON escaping is wrong here).
std::string promEscape(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string promLabels(const Labels& labels, const char* extraKey = nullptr,
                       const std::string& extraValue = {}) {
  if (labels.empty() && extraKey == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + promEscape(v) + "\"";
  }
  if (extraKey != nullptr) {
    if (!first) out += ',';
    out += std::string(extraKey) + "=\"" + extraValue + "\"";
  }
  out += '}';
  return out;
}

void promHeader(std::ostringstream& os, std::string& lastName,
                const std::string& name, const std::string& help,
                const char* type) {
  if (name == lastName) return;
  lastName = name;
  if (!help.empty()) os << "# HELP " << name << " " << help << "\n";
  os << "# TYPE " << name << " " << type << "\n";
}

}  // namespace

std::string renderPrometheus(const MetricsRegistry& registry) {
  std::ostringstream os;
  std::string lastName;
  // Convenience percentile samples derived from histograms. They are their
  // own gauge families (`<name>_p50` etc.), so they cannot be emitted
  // inside the `# TYPE <name> histogram` block — exposition requires every
  // sample of a family to sit contiguously under its own TYPE header. They
  // are collected during the walk and emitted at the end, grouped per
  // family in sorted order.
  std::map<std::string, std::vector<std::string>> percentileFamilies;
  for (const Metric* m : registry.sorted()) {
    switch (m->kind()) {
      case MetricKind::kCounter: {
        promHeader(os, lastName, m->name, m->help, "counter");
        os << m->name << promLabels(m->labels) << " "
           << std::get<Counter>(m->value).value() << "\n";
        break;
      }
      case MetricKind::kGauge: {
        promHeader(os, lastName, m->name, m->help, "gauge");
        os << m->name << promLabels(m->labels) << " "
           << formatDouble(std::get<Gauge>(m->value).value()) << "\n";
        break;
      }
      case MetricKind::kStats: {
        promHeader(os, lastName, m->name, m->help, "summary");
        const OnlineStats& s = std::get<StatsMetric>(m->value).stats();
        os << m->name << promLabels(m->labels, "quantile", "0") << " "
           << formatDouble(s.min()) << "\n";
        os << m->name << promLabels(m->labels, "quantile", "1") << " "
           << formatDouble(s.max()) << "\n";
        os << m->name << "_sum" << promLabels(m->labels) << " "
           << formatDouble(s.sum()) << "\n";
        os << m->name << "_count" << promLabels(m->labels) << " " << s.count()
           << "\n";
        break;
      }
      case MetricKind::kHistogram: {
        promHeader(os, lastName, m->name, m->help, "histogram");
        const HistogramMetric& hm = std::get<HistogramMetric>(m->value);
        const Histogram& h = hm.histogram();
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < h.bucketCount(); ++i) {
          cum += h.bucket(i);
          os << m->name << "_bucket"
             << promLabels(m->labels, "le", formatDouble(h.bucketHigh(i))) << " "
             << cum << "\n";
        }
        os << m->name << "_bucket" << promLabels(m->labels, "le", "+Inf")
           << " " << h.total() << "\n";
        os << m->name << "_sum" << promLabels(m->labels) << " "
           << formatDouble(hm.sum()) << "\n";
        os << m->name << "_count" << promLabels(m->labels) << " " << h.total()
           << "\n";
        // Percentile samples via the fixed-width quantile accessor,
        // buffered for the trailing gauge families.
        for (const auto& [suffix, p] :
             {std::pair{"_p50", 50.0}, {"_p90", 90.0}, {"_p99", 99.0}}) {
          percentileFamilies[m->name + suffix].push_back(
              m->name + suffix + promLabels(m->labels) + " " +
              formatDouble(h.percentile(p)) + "\n");
        }
        break;
      }
    }
  }
  for (const auto& [family, samples] : percentileFamilies) {
    os << "# TYPE " << family << " gauge\n";
    for (const std::string& line : samples) os << line;
  }
  return os.str();
}

std::vector<PromSample> parsePrometheus(std::string_view text) {
  std::vector<PromSample> out;
  std::size_t pos = 0;
  auto fail = [](const std::string& why, std::string_view line) {
    throw std::runtime_error("bad prometheus line (" + why + "): " +
                             std::string(line));
  };
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    if (line.empty() || line[0] == '#') continue;

    PromSample s;
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    if (i == 0) fail("no metric name", line);
    s.name = std::string(line.substr(0, i));
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        const std::size_t eq = line.find('=', i);
        if (eq == std::string_view::npos || eq + 1 >= line.size() ||
            line[eq + 1] != '"') {
          fail("bad label", line);
        }
        std::string key(line.substr(i, eq - i));
        std::string value;
        std::size_t j = eq + 2;
        while (j < line.size() && line[j] != '"') {
          if (line[j] == '\\' && j + 1 < line.size()) {
            ++j;
            // Decode the exposition format's three escapes; \n is the only
            // one that maps to a different character than it spells.
            value.push_back(line[j] == 'n' ? '\n' : line[j]);
          } else {
            value.push_back(line[j]);
          }
          ++j;
        }
        if (j >= line.size()) fail("unterminated label value", line);
        s.labels.emplace_back(std::move(key), std::move(value));
        i = j + 1;
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size()) fail("unterminated label set", line);
      ++i;  // '}'
    }
    while (i < line.size() && line[i] == ' ') ++i;
    std::string_view num = line.substr(i);
    if (num == "+Inf") {
      s.value = std::numeric_limits<double>::infinity();
    } else if (num == "-Inf") {
      s.value = -std::numeric_limits<double>::infinity();
    } else {
      const auto res =
          std::from_chars(num.data(), num.data() + num.size(), s.value);
      if (res.ec != std::errc{} || res.ptr != num.data() + num.size()) {
        fail("bad value", line);
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

// ------------------------------------------------------------------ csv

std::string csvField(std::string_view s, bool always) {
  if (!always && s.find_first_of(",\"\n") == std::string_view::npos) {
    return std::string(s);
  }
  std::string quoted = "\"";
  for (const char c : s) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  return quoted + '"';
}

std::string htmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&#39;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string renderCsv(const MetricsRegistry& registry) {
  std::ostringstream os;
  os << "name,labels,kind,field,value\n";
  auto row = [&](const Metric* m, const char* field, const std::string& v) {
    os << m->name << "," << csvField(labelsToString(m->labels), true) << ","
       << metricKindName(m->kind()) << "," << field << "," << v << "\n";
  };
  for (const Metric* m : registry.sorted()) {
    switch (m->kind()) {
      case MetricKind::kCounter:
        row(m, "value",
            std::to_string(std::get<Counter>(m->value).value()));
        break;
      case MetricKind::kGauge:
        row(m, "value", formatDouble(std::get<Gauge>(m->value).value()));
        break;
      case MetricKind::kStats: {
        const OnlineStats& s = std::get<StatsMetric>(m->value).stats();
        row(m, "count", std::to_string(s.count()));
        row(m, "sum", formatDouble(s.sum()));
        row(m, "mean", formatDouble(s.mean()));
        row(m, "min", formatDouble(s.min()));
        row(m, "max", formatDouble(s.max()));
        break;
      }
      case MetricKind::kHistogram: {
        const HistogramMetric& hm = std::get<HistogramMetric>(m->value);
        row(m, "count", std::to_string(hm.histogram().total()));
        row(m, "sum", formatDouble(hm.sum()));
        row(m, "p50", formatDouble(hm.histogram().percentile(50)));
        row(m, "p90", formatDouble(hm.histogram().percentile(90)));
        row(m, "p99", formatDouble(hm.histogram().percentile(99)));
        break;
      }
    }
  }
  return os.str();
}

// ----------------------------------------------------------------- json

std::string renderMetricsJson(const MetricsRegistry& registry) {
  std::string out;
  JsonWriter w(out);
  w.beginArray();
  for (const Metric* m : registry.sorted()) {
    w.newline().beginObject().key("name").value(m->name).key("kind")
        .value(metricKindName(m->kind())).key("labels").beginObject();
    for (const auto& [k, v] : m->labels) w.key(k).value(v);
    w.endObject();
    switch (m->kind()) {
      case MetricKind::kCounter:
        w.key("value").value(std::get<Counter>(m->value).value());
        break;
      case MetricKind::kGauge:
        w.key("value").value(std::get<Gauge>(m->value).value());
        break;
      case MetricKind::kStats: {
        const OnlineStats& s = std::get<StatsMetric>(m->value).stats();
        w.key("count").value(s.count()).key("sum").value(s.sum())
            .key("mean").value(s.mean())
            .key("min").value(s.count() ? s.min() : 0.0)
            .key("max").value(s.count() ? s.max() : 0.0);
        break;
      }
      case MetricKind::kHistogram: {
        const HistogramMetric& hm = std::get<HistogramMetric>(m->value);
        w.key("count").value(hm.histogram().total()).key("sum")
            .value(hm.sum())
            .key("p50").value(hm.histogram().percentile(50))
            .key("p90").value(hm.histogram().percentile(90))
            .key("p99").value(hm.histogram().percentile(99));
        break;
      }
    }
    w.endObject();
  }
  w.newline().endArray();
  out += '\n';
  return out;
}

}  // namespace vfpga::obs
