#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/exporters.hpp"
#include "obs/profile/flamegraph.hpp"
#include "sim/rng.hpp"
#include "workloads/app_circuits.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the process image before exec (the launching interpreter).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---- results -----------------------------------------------------------------

void Results::metric(const std::string& name, double value,
                     const std::string& unit) {
  reg_.gauge("perfbench_metric", {{"name", name}, {"unit", unit}}).set(value);
}

void Results::fail(std::uint64_t n, const std::string& why) {
  if (n == 0) return;
  failed_ += n;
  std::fprintf(stderr, "perfbench: %llu failed: %s\n",
               static_cast<unsigned long long>(n), why.c_str());
}

void Results::gateFailed(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: GATE FAILED: %s\n", why.c_str());
}

void Results::write(const std::string& dir, const RunConfig& cfg) {
  reg_.gauge("perfbench_attempted").set(static_cast<double>(attempted_));
  reg_.gauge("perfbench_failed").set(static_cast<double>(failed_));
  reg_.gauge("perfbench_correct").set(correct_ ? 1.0 : 0.0);
  reg_.gauge("perfbench_build_info",
             {{"build_type", PERFBENCH_BUILD_TYPE},
              {"compiler", PERFBENCH_COMPILER},
              {"cxx_flags", PERFBENCH_CXX_FLAGS},
              {"nproc", std::to_string(cfg.cpus)},
              {"workload", cfg.workload},
              {"seed", std::to_string(cfg.seed)},
              {"trace", cfg.trace ? "1" : "0"}})
      .set(1.0);
  const std::string path = dir + "/results.json";
  std::ofstream f(path, std::ios::trunc);
  f << obs::renderMetricsJson(reg_);
  f.close();
  if (!f) throw std::runtime_error("cannot write " + path);
}

std::size_t passesFor(double seconds, double nominalPassSec,
                      std::size_t multiple) {
  const double groups =
      std::round(seconds / nominalPassSec / static_cast<double>(multiple));
  return static_cast<std::size_t>(std::max(1.0, groups)) * multiple;
}

UnitTimes::UnitTimes(std::vector<double> workPerKey)
    : work_(std::move(workPerKey)), repeats_(work_.size(), 0) {}

void UnitTimes::add(std::size_t key, double ns) {
  ++repeats_.at(key);
  log_.emplace_back(key, ns);
}

std::vector<double> UnitTimes::keyTimes() const {
  constexpr std::size_t kNeighbours = 5;  // on each side, in run order
  for (std::size_t n : repeats_) {
    if (n == 0 || n != repeats_.front()) {
      throw std::logic_error("perfbench: keys timed unevenly");
    }
  }
  const std::size_t keys = work_.size();
  // A key's cost: the median of its units' times, first as they ran, then
  // each divided by the host's state around it.
  auto costs = [&](auto&& hostState) {
    std::vector<std::vector<double>> byKey(keys);
    for (std::size_t i = 0; i < log_.size(); ++i) {
      byKey[log_[i].first].push_back(log_[i].second / hostState(i));
    }
    std::vector<double> cost;
    for (const auto& v : byKey) cost.push_back(median(v));
    return cost;
  };
  const std::vector<double> typical = costs([](std::size_t) { return 1.0; });
  std::vector<double> state;  // unit time over its key's typical time
  for (const auto& [key, ns] : log_) state.push_back(ns / typical[key]);
  const std::vector<double> cost = costs([&](std::size_t i) {
    const std::size_t lo = i > kNeighbours ? i - kNeighbours : 0;
    const std::size_t hi = std::min(log_.size(), i + kNeighbours + 1);
    return median(std::vector<double>(state.begin() + static_cast<std::ptrdiff_t>(lo),
                                      state.begin() + static_cast<std::ptrdiff_t>(hi)));
  });
  std::vector<double> ratios;
  for (const auto& [key, ns] : log_) ratios.push_back(ns / cost[key]);
  const double best = percentile(ratios, kBestStatePercentile);
  std::vector<double> out;
  for (double c : cost) out.push_back(c * best);
  return out;
}

void UnitTimes::report(Results& out, double setupSec) const {
  if (work_.size() < kMinKeys) throw std::logic_error("perfbench: too few keys");
  const std::vector<double> keyNs = keyTimes();
  double totalNs = 0, totalWork = 0;
  std::vector<double> ms;
  for (std::size_t k = 0; k < keyNs.size(); ++k) {
    totalNs += keyNs[k];
    totalWork += work_[k];
    ms.push_back(keyNs[k] / 1e6);
  }
  out.metric("setup_s", setupSec, "s");
  out.metric("throughput_per_s", totalWork / (totalNs / 1e9), "1/s");
  out.metric("unit_ms_p50", percentile(ms, 50), "ms");
  out.metric("unit_ms_p90", percentile(ms, 90), "ms");
  out.metric("peak_rss_mb", peakRssMb(), "MB");
}

// ---- spans -------------------------------------------------------------------

void SelfTimes::add(const std::vector<obs::SpanRecord>& spans) {
  std::vector<const obs::SpanRecord*> order;
  order.reserve(spans.size());
  for (const obs::SpanRecord& s : spans) order.push_back(&s);
  std::stable_sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    if (a->startNs != b->startNs) return a->startNs < b->startNs;
    return a->durationNs > b->durationNs;
  });
  struct Open {
    const obs::SpanRecord* span;
    std::uint64_t end;
    std::uint64_t childNs;
  };
  std::vector<Open> stack;
  auto close = [this](const Open& o) {
    Entry& e = byName[o.span->name];
    const std::uint64_t self =
        o.span->durationNs > o.childNs ? o.span->durationNs - o.childNs : 0;
    ++e.count;
    e.selfNs += self;
    if (keepSamples) e.samplesNs.push_back(static_cast<double>(self));
  };
  for (const obs::SpanRecord* s : order) {
    while (!stack.empty() && stack.back().end <= s->startNs) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) stack.back().childNs += s->durationNs;
    stack.push_back({s, s->startNs + s->durationNs, 0});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
}

double SelfTimes::meanNs(const std::string& name) const {
  auto it = byName.find(name);
  if (it == byName.end() || it->second.count == 0) return 0.0;
  return static_cast<double>(it->second.selfNs) /
         static_cast<double>(it->second.count);
}

std::uint64_t SelfTimes::count(const std::string& name) const {
  auto it = byName.find(name);
  return it == byName.end() ? 0 : it->second.count;
}

double SelfTimes::totalNs(const std::string& name) const {
  auto it = byName.find(name);
  return it == byName.end() ? 0.0 : static_cast<double>(it->second.selfNs);
}

void writeTrace(const obs::SpanTracer& tracer, const std::string& dir,
                const std::string& stem) {
  obs::ChromeTraceInput in;
  in.wall = &tracer;
  std::ofstream chrome(dir + "/" + stem + ".chrome.json", std::ios::trunc);
  chrome << obs::renderChromeTrace(in);
  obs::profile::FlamegraphInput fg;
  fg.tracer = &tracer;
  fg.processName = stem;
  std::ofstream speedscope(dir + "/" + stem + ".speedscope.json",
                           std::ios::trunc);
  speedscope << obs::profile::renderSpeedscope(fg, stem);
}

void reportFlowPhases(const SelfTimes& st, Results& out) {
  // Per compile (the enclosing `compile` flow span), so the numbers do not
  // depend on how many compiles a run fits into its budget.
  const double compiles =
      std::max<double>(1.0, static_cast<double>(st.count("compile")));
  auto perCompileMs = [&](const char* phase) {
    return st.totalNs(phase) / compiles / 1e6;
  };
  out.metric("netlist.optimize_ms", perCompileMs("synth"), "ms");
  out.metric("techmap.ms", perCompileMs("techmap"), "ms");
  out.metric("place.ms", perCompileMs("place"), "ms");
  out.metric("route.ms", perCompileMs("route"), "ms");
  out.metric("compile.bitstream_ms", perCompileMs("bitstream"), "ms");
}

// ---- netlist reference -------------------------------------------------------

std::vector<std::vector<bool>> makeStimulus(const Netlist& nl,
                                            std::size_t cycles,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<bool>> out(cycles,
                                     std::vector<bool>(nl.inputs().size()));
  for (auto& cycle : out) {
    for (std::size_t i = 0; i < cycle.size(); ++i) cycle[i] = (rng.next() >> 33) & 1;
  }
  return out;
}

std::vector<std::vector<std::uint64_t>> referenceOutputs(
    const Netlist& nl, const std::vector<std::vector<bool>>& stimulus) {
  Evaluator ev(nl);
  ev.reset();
  const std::size_t words = (nl.outputs().size() + 63) / 64;
  std::vector<std::vector<std::uint64_t>> out;
  out.reserve(stimulus.size());
  for (const auto& in : stimulus) {
    ev.setInputs(in);
    ev.eval();
    std::vector<std::uint64_t> w(words, 0);
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      if (ev.value(nl.outputs()[o])) w[o / 64] |= 1ull << (o % 64);
    }
    out.push_back(std::move(w));
    ev.tick();
  }
  return out;
}

PortNames portNames(const Netlist& nl, const CompiledCircuit& c) {
  PortNames p;
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    const std::string& name = nl.gate(nl.inputs()[i]).name;
    for (const PortBinding& b : c.ports) {
      if (b.isInput && b.name == name) {
        p.inputs.emplace_back(i, name);
        break;
      }
    }
  }
  for (GateId o : nl.outputs()) p.outputs.push_back(nl.gate(o).name);
  return p;
}

std::uint64_t checkAgainstNetlist(Device& dev, const Netlist& nl,
                                  const CompiledCircuit& c,
                                  std::size_t cycles, std::uint64_t seed) {
  dev.clearConfig();
  dev.applyBitstream(c.fullBitstream());
  if (!dev.configOk()) return cycles;
  LoadedCircuit lc(dev, c);
  lc.applyInitialState();
  const auto stim = makeStimulus(nl, cycles, seed);
  const auto ref = referenceOutputs(nl, stim);
  const PortNames ports = portNames(nl, c);
  std::uint64_t bad = 0;
  for (std::size_t cyc = 0; cyc < cycles; ++cyc) {
    for (const auto& [idx, name] : ports.inputs) lc.setInput(name, stim[cyc][idx]);
    lc.evaluate();
    bool ok = true;
    for (std::size_t o = 0; o < ports.outputs.size(); ++o) {
      const bool want = (ref[cyc][o / 64] >> (o % 64)) & 1;
      if (lc.output(ports.outputs[o]) != want) ok = false;
    }
    if (!ok) ++bad;
    lc.tick();
  }
  return bad;
}

Netlist libraryNetlist(const std::string& name) {
  workloads::AppCircuit c = workloads::appCircuitByName(name);
  c.netlist.setName(c.name);
  return std::move(c.netlist);
}

}  // namespace perfbench
