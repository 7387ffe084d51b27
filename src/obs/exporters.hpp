// Exporters over the observability substrate:
//  * Chrome trace_event JSON — open in Perfetto (ui.perfetto.dev) or
//    chrome://tracing; merges wall-clock compile spans (pid 1) with any
//    number of simulated-time processes (pid 2+), each combining kernel
//    spans and the classic Trace ring's records as instant events;
//  * Prometheus text exposition (plus a parser for round-trip tests);
//  * CSV and JSON snapshots of a MetricsRegistry (the JSON form is reused
//    by the flight recorder and the bench harness).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "obs/span_tracer.hpp"
#include "sim/trace.hpp"

namespace vfpga::obs {

/// One simulated-time process of a Chrome trace: the kernel's span tracer
/// and/or its Trace ring, rendered under a shared pid.
struct SimProcessTrace {
  std::string name;                 ///< process_name metadata in Perfetto
  const SpanTracer* spans = nullptr;
  const Trace* trace = nullptr;     ///< records become instant events
};

struct ChromeTraceInput {
  /// Wall-clock spans (the CAD flow); rendered as pid 1.
  const SpanTracer* wall = nullptr;
  /// Simulated-time processes; rendered as pid 2, 3, ...
  std::vector<SimProcessTrace> sim;
};

/// Renders a `{"traceEvents": [...]}` document. Timestamps are converted
/// from (wall or simulated) nanoseconds to trace_event microseconds.
std::string renderChromeTrace(const ChromeTraceInput& input);

/// CSV sibling of the Chrome export: spans, instants and Trace records of
/// every process as flat rows.
std::string renderTimelineCsv(const ChromeTraceInput& input);

/// Structural validation against the trace_event format: returns the list
/// of problems (empty = valid). Checks the envelope, per-event required
/// keys and types, known phase codes, and that complete-spans on one
/// (pid, tid) track nest properly (no partial overlap), in whole
/// nanoseconds so back-to-back spans never overlap through double rounding.
std::vector<std::string> validateChromeTrace(std::string_view json);

/// Prometheus text exposition (# HELP/# TYPE + samples). Stats metrics
/// render as summaries (quantile 0/1 = min/max), histograms as cumulative
/// `le` buckets plus p50/p90/p99 samples from Histogram::percentile.
std::string renderPrometheus(const MetricsRegistry& registry);

struct PromSample {
  std::string name;
  Labels labels;
  double value = 0.0;
};

/// Parses text exposition back into samples (comments skipped); throws
/// std::runtime_error on malformed lines. Backs the round-trip tests.
std::vector<PromSample> parsePrometheus(std::string_view text);

/// `s` as one CSV field: wrapped in double quotes with every `"` doubled
/// when it holds `,`, `"` or a newline (or `always`), else unchanged.
std::string csvField(std::string_view s, bool always = false);

/// `s` as HTML text or attribute content: `&`, `<`, `>`, `"` and `'`
/// become character references.
std::string htmlEscape(std::string_view s);

/// `name,labels,kind,field,value` rows, one per exported scalar; the labels
/// column is always quoted.
std::string renderCsv(const MetricsRegistry& registry);

/// JSON array of metric objects (used by the flight recorder and
/// BENCH_<name>.json files).
std::string renderMetricsJson(const MetricsRegistry& registry);

}  // namespace vfpga::obs
