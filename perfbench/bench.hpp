// Shared machinery of the host-time benchmark: the run configuration,
// wall-clock helpers, the result sink, layer spans and their self-time
// breakdown, and the netlist-reference checks every workload's correctness
// gate is built from.
//
// Results are gauges in an obs::MetricsRegistry (family `perfbench_metric`,
// labelled by metric name and unit) written with obs::renderMetricsJson;
// spans are obs::SpanTracer records written with the Chrome-trace and
// speedscope exporters. The benchmark adds no format of its own.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "compile/compiler.hpp"
#include "compile/loaded_circuit.hpp"
#include "netlist/evaluator.hpp"
#include "netlist/netlist.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/span_tracer.hpp"

namespace perfbench {

using namespace vfpga;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string outDir;  ///< results.json and trace files land here
  unsigned cpus = 1;   ///< CPUs in this process's affinity mask
};

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
inline double nowSec() { return static_cast<double>(nowNs()) * 1e-9; }

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Peak resident set size of this process, in MB.
double peakRssMb();

/// splitmix64 finalizer: seeds per-unit streams from the run seed.
std::uint64_t mix(std::uint64_t x);

/// Everything one run reports. Metrics become `perfbench_metric` gauges;
/// attempted/failed/correct become their own gauges; failure reasons are
/// echoed to stderr as they happen.
class Results {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Operations the workload attempted / that failed or were refused.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n, const std::string& why);
  /// A correctness or determinism gate tripped: the run reports
  /// correct=false and exits non-zero.
  void gateFailed(const std::string& why);

  bool correct() const { return correct_; }

  /// Writes results.json (obs::renderMetricsJson) into `dir`.
  void write(const std::string& dir, const RunConfig& cfg);

 private:
  obs::MetricsRegistry reg_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// A layer span that costs nothing when tracing is off (null tracer).
class Span {
 public:
  Span(obs::SpanTracer* tracer, const char* name, const char* category) {
    if (tracer != nullptr) scoped_.emplace(tracer->scoped(name, category));
  }

 private:
  std::optional<obs::SpanTracer::Scoped> scoped_;
};

/// Self time per span name: a span's duration minus the part of it its
/// direct children cover (children found by interval containment, so the
/// compiler's pre-timed flow spans nest under the benchmark's own).
struct SelfTimes {
  struct Entry {
    std::uint64_t count = 0;
    std::uint64_t selfNs = 0;
    std::vector<double> samplesNs;  ///< per-span self time (keepSamples)
  };
  std::map<std::string, Entry> byName;
  bool keepSamples = false;

  void add(const std::vector<obs::SpanRecord>& spans);
  /// Mean self time per span of `name`, in ns (0 when never recorded).
  double meanNs(const std::string& name) const;
  std::uint64_t count(const std::string& name) const;
  double totalNs(const std::string& name) const;
};

/// Writes the tracer's spans as <dir>/<stem>.chrome.json (Chrome
/// trace_event) and <dir>/<stem>.speedscope.json.
void writeTrace(const obs::SpanTracer& tracer, const std::string& dir,
                const std::string& stem);

/// Reports the compile-flow phase self times (ms per compile) recorded by
/// Compiler::setObservers spans, under the netlist/techmap/place/route/
/// compile metric names.
void reportFlowPhases(const SelfTimes& st, Results& out);

/// Seeded input vectors for a netlist: one vector<bool> per cycle, in the
/// netlist's input declaration order.
std::vector<std::vector<bool>> makeStimulus(const Netlist& nl,
                                            std::size_t cycles,
                                            std::uint64_t seed);

/// Reference outputs from the netlist Evaluator (reset to declared initial
/// state), packed one word vector per cycle in output declaration order.
std::vector<std::vector<std::uint64_t>> referenceOutputs(
    const Netlist& nl, const std::vector<std::vector<bool>>& stimulus);

/// Name-based port handles of a compiled circuit, in netlist order: the
/// inputs the compiled circuit kept (netlist index, port name) and every
/// netlist output's name.
struct PortNames {
  std::vector<std::pair<std::size_t, std::string>> inputs;
  std::vector<std::string> outputs;
};
PortNames portNames(const Netlist& nl, const CompiledCircuit& c);

/// Downloads `c` onto a blank `dev`, drives the seeded stimulus through
/// LoadedCircuit's name-based ports and returns the number of cycles whose
/// outputs differ from the netlist Evaluator (configuration faults count
/// every cycle).
std::uint64_t checkAgainstNetlist(Device& dev, const Netlist& nl,
                                  const CompiledCircuit& c,
                                  std::size_t cycles, std::uint64_t seed);

/// Number of timed passes over a workload's keyed units: `seconds` worth
/// of passes at `nominalPassSec` (a pass's cost on the 4-vCPU reference
/// host), rounded to a whole, non-zero multiple of `multiple` (so the
/// passes split evenly between the set-ups they interleave with). The
/// count depends on the arguments only: faster code gets the same number
/// of repeats, so every commit is measured on the same order statistic.
std::size_t passesFor(double seconds, double nominalPassSec,
                      std::size_t multiple);

/// Keys a run's percentiles must rest on: p90 then has ten beyond it.
inline constexpr std::size_t kMinKeys = 100;
/// Percentile of the run's units, ranked by time over their key's cost,
/// that sets the host state all key times are given at (see UnitTimes).
inline constexpr double kBestStatePercentile = 1;

/// The timed units of one run and the end-to-end numbers derived from them:
/// setup_s, throughput_per_s, unit_ms_p50, unit_ms_p90 and peak_rss_mb.
///
/// A run times the same keyed units (a compile job, a seeded campaign, a
/// seeded replay of one circuit) once per pass, a fixed number of passes
/// spread over the whole run, in a fixed order. Shared hosts slow a
/// process by up to 1.7x in phases of a fraction of a second to minutes
/// (thread CPU time shows it too: it is contention for the core and its
/// caches), and reach the uncontended speed only in short bursts. A key's
/// fastest repeat is a poor estimate of that speed when the run times it a
/// few times (a campaign or a compile, 6 to 9 repeats): whether a burst
/// covered one of them is luck, and the unlucky keys make p90 a measure of
/// the host. So a key's cost and the host's speed are told apart:
///  - a unit's host state is its time over its key's median time, smoothed
///    over the units run just before and after it;
///  - a key's cost is the median of its times, each divided by that state;
///  - every key is given at the host state of the run's fastest
///    kBestStatePercentile percent of units (time over their key's cost,
///    pooled over all keys: 6 of 600 units on cluster_faults, 324 of
///    32400 on fabric_replay).
/// Throughput is total work over the sum of the key times, and the
/// percentiles are over the keys (>= kMinKeys of them, so p90 has ten
/// beyond it).
class UnitTimes {
 public:
  /// Work (compiles, cycles, tasks, jobs) of each key's unit.
  explicit UnitTimes(std::vector<double> workPerKey);
  /// Records one unit; units are recorded in the order they ran.
  void add(std::size_t key, double ns);
  /// Throws unless there are >= kMinKeys keys, each timed the same,
  /// non-zero number of times.
  void report(Results& out, double setupSec) const;
  std::size_t units() const { return log_.size(); }

 private:
  /// Each key's time, in ns, as described above.
  std::vector<double> keyTimes() const;

  std::vector<double> work_;
  std::vector<std::size_t> repeats_;                ///< per key
  std::vector<std::pair<std::size_t, double>> log_;  ///< (key, ns) in run order
};

/// Library circuits by name, with their netlist name set.
Netlist libraryNetlist(const std::string& name);

/// Times `fn` `reps` times inside spans named `name` (when `tracer` is set)
/// and returns the median, in ns.
template <typename Fn>
double medianSpanNs(obs::SpanTracer* tracer, const char* name,
                    const char* category, int reps, Fn&& fn) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    Span sp(tracer, name, category);
    const std::uint64_t t0 = nowNs();
    fn();
    t.push_back(static_cast<double>(nowNs() - t0));
  }
  return median(std::move(t));
}

// ---- workloads ---------------------------------------------------------------
// Each reports into `out`: end-to-end metrics when cfg.trace is false,
// per-layer metrics when it is true.
void runCompileFlow(const RunConfig& cfg, Results& out);
void runFabric(const RunConfig& cfg, Results& out);
void runOsTimeshare(const RunConfig& cfg, Results& out);
void runClusterFaults(const RunConfig& cfg, Results& out);

}  // namespace perfbench
