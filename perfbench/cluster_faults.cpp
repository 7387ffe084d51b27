// cluster_faults: DevicePool + ClusterScheduler over four medium_partial
// devices. dev1 runs a fault plan (two permanent strip failures,
// background configuration upsets, a readback scrubber), and the
// continuous monitor (TimeSeriesStore, AlertEngine, HealthModel) is
// attached. Job arrivals follow a seeded open-loop schedule in simulated
// time; host time is measured as batch throughput. The configuration port
// is used the other way from os_timeshare: partial downloads, scrub
// readback and migration instead of full-download context switches.
#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "cluster/scheduler.hpp"
#include "core/obs_bridge.hpp"
#include "fabric/config_port.hpp"
#include "fabric/device_family.hpp"
#include "obs/monitor/alerts.hpp"
#include "obs/monitor/health.hpp"
#include "obs/monitor/timeseries.hpp"
#include "sim/rng.hpp"
#include "workloads/compile_suite.hpp"

namespace perfbench {

namespace {

/// Points in a run where set-up happens; the timed passes are split evenly
/// between them. Set-up is short here, so each point sets up
/// kSetupsPerPoint times back to back, and setup_s is the median of all.
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kSetupsPerPoint = 3;
/// Seeded job streams every timed pass runs (the keys): enough that a
/// run's total barely depends on the seed, and >= kMinKeys.
constexpr std::size_t kCampaigns = 100;
constexpr double kNominalPassSec = 2.6;  ///< 100 campaigns, reference host
/// Campaigns the traced run's counts and layer times come from, and the
/// nominal cost of one pass over them (monitored, traced or detached).
constexpr std::size_t kTracedCampaigns = 8;
constexpr double kNominalTracedPassSec = 0.2;
constexpr std::size_t kDevices = 4;
constexpr std::size_t kJobs = 48;
const char* const kCircuits[] = {"tc_crc8", "ct_gray", "mm_rle", "tc_scrambler"};

struct Setup {
  DeviceProfile profile = mediumPartialProfile();
  std::vector<Netlist> netlists;
  std::vector<std::uint16_t> widths;
  /// Shared across campaigns, as a long-lived cluster would keep it: the
  /// first registration compiles, every later one is a hit.
  std::unique_ptr<cluster::BitstreamCache> bitstreams;
  std::vector<CompiledCircuit> circuits;  ///< for direct config-port timing
};

std::unique_ptr<Setup> buildSetup(obs::SpanTracer* tracer) {
  auto s = std::make_unique<Setup>();
  Device dev = s->profile.makeDevice();
  Compiler compiler(dev);
  compiler.setObservers(tracer, nullptr);
  for (const char* name : kCircuits) {
    s->netlists.push_back(libraryNetlist(name));
    s->widths.push_back(workloads::minimalStripWidth(compiler, s->netlists.back(), 1));
  }
  s->bitstreams = std::make_unique<cluster::BitstreamCache>(32);
  for (std::size_t i = 0; i < s->netlists.size(); ++i) {
    const std::uint64_t digest = cluster::compileDigest(
        s->netlists[i], s->profile.geometry, s->profile.frameBits, s->widths[i]);
    s->circuits.push_back(*s->bitstreams->getOrCompile(digest, [&] {
      CompiledCircuit c = compiler.compile(
          s->netlists[i], Region::columns(dev.geometry(), 0, s->widths[i]));
      c.name = kCircuits[i];
      return c;
    }));
  }
  return s;
}

struct Campaign {
  cluster::ClusterScheduler::Summary summary;
  std::uint64_t events = 0;
  std::uint64_t preemptions = 0, rollbacks = 0, relocations = 0, gcs = 0;
  std::uint64_t bitsDownloaded = 0, scrubRuns = 0, repairedFrames = 0;

  bool sameSimulation(const Campaign& o) const {
    const auto& a = summary;
    const auto& b = o.summary;
    return a.submitted == b.submitted && a.admitted == b.admitted &&
           a.rejected == b.rejected && a.completed == b.completed &&
           a.parked == b.parked && a.migrationsDrain == b.migrationsDrain &&
           a.migrationsRebalance == b.migrationsRebalance &&
           a.makespanNs == b.makespanNs && a.p99QueueWaitNs == b.p99QueueWaitNs &&
           events == o.events && relocations == o.relocations &&
           bitsDownloaded == o.bitsDownloaded && scrubRuns == o.scrubRuns &&
           repairedFrames == o.repairedFrames;
  }
  std::uint64_t failed() const {
    return summary.submitted - summary.completed;  // rejected, parked, unfinished
  }
};

double familySum(const obs::MetricsRegistry& reg, const std::string& name) {
  double sum = 0;
  for (const obs::Metric* m : reg.sorted()) {
    if (m->name != name) continue;
    if (const auto* c = std::get_if<obs::Counter>(&m->value)) sum += static_cast<double>(c->value());
    if (const auto* g = std::get_if<obs::Gauge>(&m->value)) sum += g->value();
  }
  return sum;
}

Campaign runCampaign(Setup& s, std::uint64_t seed, bool monitored,
                     obs::SpanTracer* tr) {
  Span root(tr, "cluster.campaign", "cluster");
  Simulation sim;
  std::vector<cluster::DeviceNodeSpec> specs;
  for (std::size_t d = 0; d < kDevices; ++d) {
    cluster::DeviceNodeSpec spec;
    spec.name = "dev" + std::to_string(d);
    spec.profile = s.profile;
    if (d == 1) {
      spec.faulty = true;
      spec.faultSpec.seed = mix(seed ^ 0xfa);
      spec.faultSpec.meanUpsetsPerScrub = 0.5;
      spec.faultSpec.stripFailures = {{millis(2), 2}, {millis(3), 9}};
      spec.scrubInterval = micros(200);
    }
    specs.push_back(std::move(spec));
  }
  OsOptions base;
  base.priorityScheduling = true;
  std::optional<cluster::DevicePool> pool;
  std::vector<cluster::WorkloadId> ws;
  {
    Span sp(tr, "cluster.pool", "cluster");
    pool.emplace(sim, specs, *s.bitstreams, base);
    for (std::size_t i = 0; i < s.netlists.size(); ++i) {
      ws.push_back(pool->registerWorkload(kCircuits[i], s.netlists[i], s.widths[i]));
    }
  }

  cluster::ClusterOptions copt;
  copt.placement = cluster::PlacementPolicy::kLeastLoaded;
  copt.admissionQueueDepth = kJobs;  // open loop, no backpressure losses
  copt.maxJobsPerDevice = 2;         // the cap is what makes queue waits real
  copt.minUsableColumns = 8;
  cluster::ClusterScheduler sched(sim, *pool, copt);

  Rng rng(seed);
  for (std::size_t j = 0; j < kJobs; ++j) {
    cluster::ClusterJobSpec job;
    job.name = "job" + std::to_string(j);
    job.submitAt = static_cast<SimTime>(j) * micros(100) + rng.below(micros(80));
    job.priority = static_cast<int>(rng.below(3));
    job.ops = {CpuBurst{micros(10 + rng.below(20))},
               FpgaExec{ws[rng.below(ws.size())], 10000 + 1000 * rng.below(30)},
               CpuBurst{micros(10)}};
    sched.submit(std::move(job));
  }

  obs::monitor::TimeSeriesStore store(4096);
  obs::monitor::AlertEngine engine;
  obs::monitor::HealthModel health;
  if (monitored) {
    for (std::size_t d = 0; d < kDevices; ++d) {
      bindKernelSeries(store, pool->node(d).kernel(), pool->node(d).name() + ".");
    }
    store.addSeries("cluster.queue_depth",
                    [&sched] { return static_cast<double>(sched.queueDepth()); });
    obs::monitor::AlertRule rule;
    rule.name = "queue_backlog";
    rule.series = "cluster.queue_depth";
    rule.threshold = 4;
    rule.forNs = micros(100);
    rule.resolveNs = micros(100);
    engine.addRule(rule);
    cluster::ClusterScheduler::MonitorAttachment mon;
    mon.store = &store;
    mon.engine = &engine;
    mon.health = &health;
    mon.sampleInterval = micros(50);
    sched.attachMonitor(mon);
  }
  {
    Span sp(tr, "cluster.run", "cluster");
    sched.run();
  }

  Campaign c;
  c.summary = sched.summary();
  c.events = sim.executedEvents();
  for (std::size_t d = 0; d < kDevices; ++d) {
    const OsKernel& k = pool->node(d).kernel();
    const OsMetrics& m = k.metrics();
    c.preemptions += m.fpgaPreemptions;
    c.rollbacks += m.rollbacks;
    c.relocations += m.relocations;
    c.gcs += m.garbageCollections;
    c.bitsDownloaded += m.bitsDownloaded;
    c.scrubRuns += static_cast<std::uint64_t>(
        familySum(k.metricsRegistry(), "vfpga_fault_scrub_runs_total"));
    c.repairedFrames += static_cast<std::uint64_t>(
        familySum(k.metricsRegistry(), "vfpga_fault_scrub_repaired_frames_total"));
  }
  return c;
}

std::uint64_t campaignSeed(std::uint64_t seed, std::size_t k) {
  return mix(seed ^ mix(0xc1 + k));
}

}  // namespace

void runClusterFaults(const RunConfig& cfg, Results& out) {
  // The simulated result of every monitored campaign, as first run; each
  // repeat must reproduce it exactly.
  std::map<std::size_t, Campaign> seen;
  // One timed unit = campaign k.
  auto unit = [&](Setup& s, std::size_t k, bool monitored, obs::SpanTracer* tr) {
    const std::uint64_t t0 = nowNs();
    const Campaign c = runCampaign(s, campaignSeed(cfg.seed, k), monitored, tr);
    const double ns = static_cast<double>(nowNs() - t0);
    out.attempt(c.summary.submitted);
    out.fail(c.failed(), "cluster_faults: jobs rejected, parked or unfinished");
    if (!monitored) return ns;
    const auto [it, fresh] = seen.try_emplace(k, c);
    if (!fresh && !c.sameSimulation(it->second)) {
      out.gateFailed("cluster_faults: campaign " + std::to_string(k) +
                     " not identical across repeats of one seed");
    }
    return ns;
  };

  // Set-ups alternate with equal shares of the timed passes, so both are
  // spread over the whole run. The first set-up is followed by an untimed
  // reference pass: the warm-up, and every campaign's simulated result.
  const std::size_t passes =
      cfg.trace ? 0 : passesFor(cfg.seconds, kNominalPassSec, kSetupReps);
  obs::SpanTracer setupTracer;
  std::vector<double> setupS;
  std::unique_ptr<Setup> s;
  std::optional<UnitTimes> times;
  double cacheHitRatio = 0;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    for (std::size_t i = 0; i < kSetupsPerPoint; ++i) {
      s.reset();
      setupTracer.clear();
      const double t0 = nowSec();
      s = buildSetup(cfg.trace ? &setupTracer : nullptr);
      setupS.push_back(nowSec() - t0);
    }
    if (rep == 0) {
      std::vector<double> jobs;
      for (std::size_t k = 0; k < kCampaigns; ++k) {
        unit(*s, k, true, nullptr);
        jobs.push_back(static_cast<double>(seen.at(k).summary.submitted));
      }
      times.emplace(std::move(jobs));
      cacheHitRatio = s->bitstreams->hitRate();
      const Campaign other =
          runCampaign(*s, campaignSeed(cfg.seed ^ 0x5eed, 0), true, nullptr);
      if (other.sameSimulation(seen.at(0))) {
        out.gateFailed("cluster_faults: simulated result does not depend on the seed");
      }
    }
    for (std::size_t p = 0; p < passes / kSetupReps; ++p) {
      for (std::size_t k = 0; k < kCampaigns; ++k) times->add(k, unit(*s, k, true, nullptr));
    }
  }
  if (!cfg.trace) {
    times->report(out, median(setupS));
    std::fprintf(stderr, "cluster_faults: %zu campaigns timed\n", times->units());
    return;
  }

  // ---- traced run --------------------------------------------------------------
  SelfTimes setupSt;
  setupSt.add(setupTracer.spans());
  reportFlowPhases(setupSt, out);
  std::uint64_t iterations = 0, expanded = 0;
  for (const CompiledCircuit& c : s->circuits) {
    iterations += static_cast<std::uint64_t>(c.routes.iterations);
    expanded += c.routes.nodesExpanded;
  }
  out.metric("route.iterations", static_cast<double>(iterations), "count");
  out.metric("route.nodes_expanded", static_cast<double>(expanded), "count");

  // Passes rotate: monitored untraced, monitored traced, unmonitored.
  obs::SpanTracer tracer;
  std::vector<double> plain, traced, detached;
  const std::size_t rounds = passesFor(cfg.seconds, 3 * kNominalTracedPassSec, 1);
  for (std::size_t round = 0; round < rounds; ++round) {
    for (int kind = 0; kind < 3; ++kind) {
      double passNs = 0;
      for (std::size_t k = 0; k < kTracedCampaigns; ++k) {
        passNs += unit(*s, k, kind != 2, kind == 1 ? &tracer : nullptr);
      }
      (kind == 0 ? plain : kind == 1 ? traced : detached).push_back(passNs);
    }
    if (round == 0) writeTrace(tracer, cfg.outDir, "cluster_faults");
    tracer.clear();
  }

  // Direct calls on the workload's own bitstreams: partial download and a
  // full readback scrub pass of a device holding the circuit.
  std::vector<double> partialUs, scrubUs;
  for (const CompiledCircuit& c : s->circuits) {
    Device dev = s->profile.makeDevice();
    ConfigPort port(dev, s->profile.port);
    const Bitstream bs = c.partialBitstream();
    partialUs.push_back(medianSpanNs(&tracer, "config_port.partial_download", "fabric", 9,
                                     [&] { port.download(bs); }) / 1e3);
    scrubUs.push_back(medianSpanNs(&tracer, "config_port.scrub", "fabric", 9,
                                   [&] { port.scrub(); }) / 1e3);
  }
  writeTrace(tracer, cfg.outDir, "cluster_faults_direct");

  std::uint64_t events = 0, migrations = 0, rejected = 0, preemptions = 0,
                rollbacks = 0, relocations = 0, gcs = 0, bits = 0, scrubs = 0,
                repaired = 0;
  SimTime makespan = 0;
  for (std::size_t k = 0; k < kTracedCampaigns; ++k) {
    const Campaign& c = seen.at(k);
    events += c.events;
    migrations += c.summary.migrationsDrain + c.summary.migrationsRebalance;
    rejected += c.summary.rejected;
    preemptions += c.preemptions;
    rollbacks += c.rollbacks;
    relocations += c.relocations;
    gcs += c.gcs;
    bits += c.bitsDownloaded;
    scrubs += c.scrubRuns;
    repaired += c.repairedFrames;
    makespan += c.summary.makespanNs;
  }
  const double passMs = median(plain) / 1e6;
  out.metric("cluster.events", static_cast<double>(events), "count");
  out.metric("cluster.event_us", passMs * 1e3 / static_cast<double>(events), "us");
  out.metric("cluster.migrations", static_cast<double>(migrations), "count");
  out.metric("cluster.rejected", static_cast<double>(rejected), "count");
  out.metric("bitstream_cache.hit_ratio", cacheHitRatio, "ratio");
  out.metric("config_port.bits_written", static_cast<double>(bits), "count");
  out.metric("config_port.partial_download_us", median(partialUs), "us");
  out.metric("config_port.scrub_us", median(scrubUs), "us");
  out.metric("fault.scrub_reads", static_cast<double>(scrubs), "count");
  out.metric("fault.repaired_frames", static_cast<double>(repaired), "count");
  out.metric("core.preemptions", static_cast<double>(preemptions), "count");
  out.metric("core.rollbacks", static_cast<double>(rollbacks), "count");
  out.metric("core.relocations", static_cast<double>(relocations), "count");
  out.metric("core.gc_runs", static_cast<double>(gcs), "count");
  out.metric("sim.makespan_ms",
             toMilliseconds(makespan) / static_cast<double>(kTracedCampaigns), "ms");
  out.metric("monitor.overhead_frac", median(plain) / median(detached) - 1, "ratio");
  out.metric("monitor.overhead_base_ms", median(detached) / 1e6, "ms");
  out.metric("trace.overhead_frac", median(traced) / median(plain) - 1, "ratio");
  out.metric("trace.overhead_base_ms", passMs, "ms");
}

}  // namespace perfbench
