// E9 — Application scenarios (paper §5).
//
// Claim reproduced: the §5 application domains (multimedia, telecom,
// networking, embedded control) each need more aggregate fabric than a
// small device offers, but their functions are used intermittently — so a
// VFPGA runs them on the small device at a bounded reconfiguration
// overhead instead of requiring a device sized for the sum of all
// functions.
//
// Table 1: area demand per domain suite vs device capacity.
// Table 2: per-domain invocation replay on the small device — dynamic
//          loading overhead vs the big-device (all-resident) baseline.
// Table 3: profiler overhead — the same device-sim replay with the
//          activity probe detached vs attached. Sim-side numbers are
//          deterministic (trend-gated); wall-clock ratios are printed and
//          exported but not baselined.
#include <chrono>

#include "bench_util.hpp"
#include "compile/loaded_circuit.hpp"
#include "core/dynamic_loader.hpp"
#include "fabric/activity_probe.hpp"
#include "sim/compiled/batch.hpp"
#include "sim/compiled/compiled_fabric.hpp"
#include "sim/hash.hpp"
#include "workloads/app_circuits.hpp"
#include "workloads/compile_suite.hpp"

using namespace vfpga;
using namespace vfpga::bench;
using namespace vfpga::workloads;

int main() {
  DeviceProfile small = mediumPartialProfile();
  BenchJson bj("e9_applications");

  struct DomainSuite {
    const char* label;
    std::vector<AppCircuit> circuits;
  };
  std::vector<DomainSuite> domains;
  domains.push_back({"multimedia", multimediaSuite()});
  domains.push_back({"telecom", telecomSuite()});
  domains.push_back({"networking", networkingSuite()});
  domains.push_back({"control", controlSuite()});

  tableHeader("E9", "area demand per domain vs the 12-column device");
  std::printf("%-12s %9s %12s %12s %14s\n", "domain", "circuits",
              "sum_columns", "device_cols", "all_resident?");

  // Compile each suite minimally once and reuse below.
  std::vector<std::vector<CompiledCircuit>> compiled(domains.size());
  {
    Device dev = small.makeDevice();
    Compiler compiler(dev);
    for (std::size_t d = 0; d < domains.size(); ++d) {
      std::uint16_t total = 0;
      for (const AppCircuit& c : domains[d].circuits) {
        CompiledCircuit cc = compileMinimal(compiler, c.netlist, 5);
        total = static_cast<std::uint16_t>(total + cc.region.w);
        compiled[d].push_back(std::move(cc));
      }
      std::printf("%-12s %9zu %12u %12u %14s\n", domains[d].label,
                  domains[d].circuits.size(), total, dev.geometry().cols,
                  total <= dev.geometry().cols ? "yes" : "NO -> VFPGA");
    }
  }

  tableHeader("E9", "invocation replay (400 calls, zipf 1.0) on the small "
                    "device, dynamic loading");
  std::printf("%-12s %10s %12s %12s %10s %12s\n", "domain", "switches",
              "reconf_ms", "compute_ms", "ovhd%", "bigdev_cols");
  for (std::size_t d = 0; d < domains.size(); ++d) {
    Device dev = small.makeDevice();
    ConfigPort port(dev, small.port);
    Compiler compiler(dev);
    ConfigRegistry registry;
    std::vector<ConfigId> ids;
    std::uint16_t sumCols = 0;
    for (CompiledCircuit& c : compiled[d]) {
      sumCols = static_cast<std::uint16_t>(sumCols + c.region.w);
      ids.push_back(registry.add(c));
    }
    DynamicLoader loader(dev, port, registry);
    Rng rng(808 + d);
    SimDuration reconf = 0, compute = 0;
    std::uint64_t switches = 0;
    for (int call = 0; call < 400; ++call) {
      const std::size_t f = rng.zipf(ids.size(), 1.0);
      auto cost = loader.activate(ids[f]);
      reconf += cost.total;
      if (cost.downloaded) ++switches;
      // Each call streams ~150k cycles through the loaded circuit.
      compute += 150000 * dev.minClockPeriod();
    }
    std::printf("%-12s %10llu %12.1f %12.1f %9.1f%% %12u\n",
                domains[d].label,
                static_cast<unsigned long long>(switches),
                toMilliseconds(reconf), toMilliseconds(compute),
                100.0 * double(reconf) / double(reconf + compute), sumCols);
    const obs::Labels l = {{"domain", domains[d].label}};
    bj.sample("vfpga_bench_e9_switches", l, double(switches));
    bj.sample("vfpga_bench_e9_reconf_ms", l, toMilliseconds(reconf));
    bj.sample("vfpga_bench_e9_overhead_pct", l,
              100.0 * double(reconf) / double(reconf + compute));
  }
  // Table 3 — activity-profiler overhead. The same compiled counter runs
  // the same 20k evaluate/tick cycles with the probe detached and then
  // attached; the sim-side numbers (cycles, sites, evals, toggles) are
  // fully deterministic and trend-gated, the wall-clock ratio is
  // environment noise and only reported.
  tableHeader("E9", "activity-profiler overhead (20k-cycle device replay)");
  {
    const std::uint64_t kCycles = 20000;
    Device dev = small.makeDevice();
    Compiler compiler(dev);
    Netlist nl = lib::makeCounter(8);
    nl.setName("profiler_overhead");
    const CompiledCircuit cc =
        compiler.compile(nl, Region::columns(dev.geometry(), 0, 4));
    dev.applyBitstream(cc.fullBitstream());
    LoadedCircuit lc(dev, cc);
    ActivityProbe probe;

    auto replay = [&](ActivityProbe* p) {
      dev.attachActivityProbe(p);
      lc.applyInitialState();
      lc.setInput("en", true);
      lc.setInput("clr", false);
      const auto t0 = std::chrono::steady_clock::now();
      for (std::uint64_t i = 0; i < kCycles; ++i) {
        dev.evaluate();
        dev.tick();
      }
      const auto t1 = std::chrono::steady_clock::now();
      return double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t1 - t0)
                        .count());
    };
    const double offNs = replay(nullptr);
    const double onNs = replay(&probe);
    std::uint64_t sites = 0, evals = 0, toggles = 0;
    for (const ActivitySite& s : probe.sites()) {
      ++sites;
      evals += s.evals;
      toggles += s.toggles;
    }
    const double overheadPct = offNs > 0.0 ? 100.0 * (onNs - offNs) / offNs
                                           : 0.0;
    std::printf("%-10s %12s %12s %12s %12s %10s\n", "probe", "cycles",
                "sites", "evals", "toggles", "wall_ms");
    std::printf("%-10s %12llu %12s %12s %12s %10.2f\n", "off",
                static_cast<unsigned long long>(kCycles), "-", "-", "-",
                offNs / 1e6);
    std::printf("%-10s %12llu %12llu %12llu %12llu %10.2f\n", "on",
                static_cast<unsigned long long>(probe.cyclesObserved()),
                static_cast<unsigned long long>(sites),
                static_cast<unsigned long long>(evals),
                static_cast<unsigned long long>(toggles), onNs / 1e6);
    std::printf("wall-clock overhead: %.1f%% (not trend-gated)\n",
                overheadPct);

    bj.sample("vfpga_bench_e9_profiler_cycles", {{"probe", "on"}},
              double(probe.cyclesObserved()));
    bj.sample("vfpga_bench_e9_profiler_sites", {}, double(sites));
    bj.sample("vfpga_bench_e9_profiler_evals", {}, double(evals));
    bj.sample("vfpga_bench_e9_profiler_toggles", {}, double(toggles));
    // Wall-clock series: exported for the CI artifact, never baselined.
    bj.sample("vfpga_bench_e9_profiler_wall_ns", {{"probe", "off"}}, offNs);
    bj.sample("vfpga_bench_e9_profiler_wall_ns", {{"probe", "on"}}, onNs);
    bj.sample("vfpga_bench_e9_profiler_wall_overhead_pct", {}, overheadPct);
  }

  // Table 4 — compiled fast path throughput. The same 20k-cycle counter
  // replay runs interpretively, through the compiled single-lane engine,
  // and through the 64-wide batch evaluator. Per-cycle output checksums
  // must agree across all three modes (hard failure otherwise); the
  // checksum/ops/levels and the ">= 5x batch per-lane speedup" flag are
  // deterministic and trend-gated, raw wall times are only exported.
  tableHeader("E9", "compiled fast path (20k-cycle device replay)");
  int rc = 0;
  {
    const std::uint64_t kCycles = 20000;
    Device dev = small.makeDevice();
    Compiler compiler(dev);
    Netlist nl = lib::makeCounter(8);
    nl.setName("compiled_path");
    const CompiledCircuit cc =
        compiler.compile(nl, Region::columns(dev.geometry(), 0, 4));
    dev.applyBitstream(cc.fullBitstream());
    LoadedCircuit lc(dev, cc);

    auto replay = [&](double& wallNs) {
      dev.resetFfs();
      lc.applyInitialState();
      lc.setInput("en", true);
      lc.setInput("clr", false);
      std::uint64_t h = hash::kFnvOffset;
      const auto t0 = std::chrono::steady_clock::now();
      for (std::uint64_t i = 0; i < kCycles; ++i) {
        dev.evaluate();
        h = hash::fnv1aU64(h, lc.outputBus("q", 8) |
                                  (lc.output("wrap") ? 1ull << 8 : 0));
        dev.tick();
      }
      const auto t1 = std::chrono::steady_clock::now();
      wallNs = double(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count());
      return h;
    };

    double interpNs = 0, scalarNs = 0, batchNs = 0;
    const std::uint64_t interpSum = replay(interpNs);

    compiled::CompiledFabric engine(dev);
    const std::uint64_t scalarSum = replay(scalarNs);
    const bool scalarServed = engine.stats().compiledEvaluates >= kCycles;
    const auto program = engine.program();

    // Batch: all 64 lanes get the scalar stimulus; lane 0's checksum must
    // reproduce the interpretive one.
    std::uint64_t batchSum = hash::kFnvOffset;
    if (program != nullptr) {
      compiled::BatchEvaluator be(program);
      const std::uint32_t en = cc.padSlotOf("en");
      std::vector<std::uint32_t> qSlots;
      for (int b = 0; b < 8; ++b)
        qSlots.push_back(cc.padSlotOf("q" + std::to_string(b)));
      const std::uint32_t wrap = cc.padSlotOf("wrap");
      be.resetFfs();
      const auto t0 = std::chrono::steady_clock::now();
      for (std::uint64_t i = 0; i < kCycles; ++i) {
        be.setPadInput(en, ~0ull);
        be.evaluate();
        std::uint64_t q = 0;
        for (int b = 0; b < 8; ++b) q |= (be.padOutput(qSlots[b]) & 1) << b;
        q |= (be.padOutput(wrap) & 1) << 8;
        batchSum = hash::fnv1aU64(batchSum, q);
        be.tick();
      }
      const auto t1 = std::chrono::steady_clock::now();
      batchNs = double(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count());
    }

    const bool scalarMatch = scalarSum == interpSum && scalarServed;
    const bool batchMatch = batchSum == interpSum;
    const double scalarSpeedup = scalarNs > 0 ? interpNs / scalarNs : 0;
    const double batchPerLane =
        batchNs > 0 ? interpNs / (batchNs / 64.0) : 0;
    if (!scalarMatch || !batchMatch) rc = 1;

    std::printf("%-12s %12s %16s %10s %12s\n", "mode", "cycles", "checksum",
                "match", "wall_ms");
    std::printf("%-12s %12llu %16llx %10s %12.2f\n", "interpretive",
                static_cast<unsigned long long>(kCycles),
                static_cast<unsigned long long>(interpSum), "-",
                interpNs / 1e6);
    std::printf("%-12s %12llu %16llx %10s %12.2f\n", "compiled",
                static_cast<unsigned long long>(kCycles),
                static_cast<unsigned long long>(scalarSum),
                scalarMatch ? "yes" : "NO", scalarNs / 1e6);
    std::printf("%-12s %12llu %16llx %10s %12.2f\n", "batch64(lane0)",
                static_cast<unsigned long long>(kCycles),
                static_cast<unsigned long long>(batchSum),
                batchMatch ? "yes" : "NO", batchNs / 1e6);
    std::printf("schedule: %zu ops in %zu levels; speedup %.1fx scalar, "
                "%.1fx batch per-lane (wall, not trend-gated; the >=5x "
                "per-lane flag is)\n",
                program ? program->opCount() : 0,
                program ? program->levels() : 0, scalarSpeedup, batchPerLane);

    bj.sample("vfpga_bench_e9_compiled_match", {{"mode", "scalar"}},
              scalarMatch ? 1.0 : 0.0);
    bj.sample("vfpga_bench_e9_compiled_match", {{"mode", "batch64"}},
              batchMatch ? 1.0 : 0.0);
    bj.sample("vfpga_bench_e9_compiled_ops", {},
              program ? double(program->opCount()) : 0.0);
    bj.sample("vfpga_bench_e9_compiled_levels", {},
              program ? double(program->levels()) : 0.0);
    // One-sided wall-clock gate: 1.0 iff the batch per-lane speedup
    // clears 5x. The margin in practice is orders of magnitude, so the
    // flag is noise-proof where the raw ratio would not be.
    bj.sample("vfpga_bench_e9_compiled_speedup_ge5", {},
              batchPerLane >= 5.0 ? 1.0 : 0.0);
    bj.sample("vfpga_bench_e9_compiled_wall_ns", {{"mode", "interpretive"}},
              interpNs);
    bj.sample("vfpga_bench_e9_compiled_wall_ns", {{"mode", "scalar"}},
              scalarNs);
    bj.sample("vfpga_bench_e9_compiled_wall_ns", {{"mode", "batch64"}},
              batchNs);
    bj.sample("vfpga_bench_e9_compiled_speedup", {{"mode", "scalar"}},
              scalarSpeedup);
    bj.sample("vfpga_bench_e9_compiled_speedup", {{"mode", "batch_per_lane"}},
              batchPerLane);
  }

  std::printf("\nreading: every domain oversubscribes the small device "
              "(sum_columns > 12) yet runs with bounded overhead; the "
              "alternative is a device with sum_columns columns — the cost "
              "reduction argument of §1/§5.\n");
  bj.write();
  return rc;
}
