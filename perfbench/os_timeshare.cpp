// os_timeshare: the paper's §3 technique. One medium_partial device is
// context-switched between tasks by OsKernel under kDynamicLoading with a
// non-zero FPGA slice, so executions are preempted and their register
// state saved through the configuration port. Inputs are seeded Zipf task
// sets over eight registered library circuits. Host time goes to the
// context-switch downloads the kernel performs (partial ones: the port
// supports partial reconfiguration); fabric evaluation is charged
// analytically.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "core/config_registry.hpp"
#include "core/dynamic_loader.hpp"
#include "core/os_kernel.hpp"
#include "fabric/config_port.hpp"
#include "fabric/device_family.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "workloads/compile_suite.hpp"
#include "workloads/taskset.hpp"

namespace perfbench {

namespace {

/// Points in a run where set-up happens; the timed passes are split evenly
/// between them. Set-up is short here, so each point sets up
/// kSetupsPerPoint times back to back, and setup_s is the median of all.
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kSetupsPerPoint = 3;
/// Seeded task sets every timed pass runs (the keys): enough that a run's
/// total barely depends on the seed, and >= kMinKeys.
constexpr std::size_t kCampaigns = 100;
constexpr double kNominalPassSec = 1.6;  ///< 100 campaigns, reference host
/// Campaigns the traced run's counts and layer times come from, and the
/// nominal cost of one untraced plus one traced pass over them.
constexpr std::size_t kTracedCampaigns = 8;
constexpr double kNominalTracedPairSec = 0.35;
const char* const kCircuits[] = {"tc_crc8", "tc_scrambler", "mm_rle",
                                 "mm_fir",  "nw_checksum",  "ct_fsm",
                                 "ct_bist", "ct_gray"};

workloads::TaskSetParams taskParams() {
  workloads::TaskSetParams p;
  p.numTasks = 12;
  p.numConfigs = std::size(kCircuits);
  p.execsPerTask = 3;
  p.meanArrivalGapMs = 0.4;
  p.meanCpuBurstMs = 0.2;
  p.minCycles = 20000;
  p.maxCycles = 200000;
  p.configZipf = 0.8;
  return p;
}

OsOptions osOptions() {
  OsOptions opt;
  opt.policy = FpgaPolicy::kDynamicLoading;
  opt.fpgaSlice = millis(2);
  opt.saveStateOnPreempt = true;
  opt.cpuTimeSlice = millis(1);
  return opt;
}

struct Setup {
  DeviceProfile profile = mediumPartialProfile();
  std::unique_ptr<Device> dev;
  std::unique_ptr<Compiler> compiler;
  std::vector<CompiledCircuit> circuits;
};

std::unique_ptr<Setup> buildSetup(obs::SpanTracer* tracer) {
  auto s = std::make_unique<Setup>();
  s->dev = std::make_unique<Device>(s->profile.makeDevice());
  s->compiler = std::make_unique<Compiler>(*s->dev);
  s->compiler->setObservers(tracer, nullptr);
  for (const char* name : kCircuits) {
    s->circuits.push_back(
        workloads::compileMinimal(*s->compiler, libraryNetlist(name), 1));
  }
  s->compiler->setObservers(nullptr, nullptr);
  return s;
}

/// What one campaign did: simulated results (which must repeat exactly for
/// one seed) plus the counters the traced run reports.
struct Campaign {
  std::uint64_t tasks = 0;
  std::uint64_t unfinished = 0;
  SimTime makespan = 0;
  SimDuration overheadNs = 0;  ///< configTime + stateMoveTime
  std::uint64_t events = 0;
  ConfigPortStats port;
  OsMetrics m;

  bool sameSimulation(const Campaign& o) const {
    return tasks == o.tasks && unfinished == o.unfinished &&
           makespan == o.makespan && overheadNs == o.overheadNs &&
           events == o.events && port.fullDownloads == o.port.fullDownloads &&
           port.bitsWritten == o.port.bitsWritten &&
           port.stateBitsMoved == o.port.stateBitsMoved &&
           m.fpgaPreemptions == o.m.fpgaPreemptions &&
           m.rollbacks == o.m.rollbacks;
  }
};

/// What a recorded campaign did, for replaying its layers by direct calls:
/// the simulated time of every event, and the configurations the kernel
/// downloaded, in order (from its os.config download spans).
struct Recording {
  std::vector<SimTime> eventTimes;
  std::vector<std::string> downloads;
};

/// Runs one campaign. With a tracer or a recording, the kernel is driven
/// step by step (start / Simulation::step / finalize), inside spans.
Campaign runCampaign(Setup& s, std::uint64_t seed, obs::SpanTracer* tr,
                     Recording* rec = nullptr) {
  Span root(tr, "os.campaign", "core");
  s.dev->clearConfig();
  Simulation sim;
  ConfigPort port(*s.dev, s.profile.port);
  OsKernel kernel(sim, *s.dev, port, *s.compiler, osOptions());
  {
    Span sp(tr, "os.register", "core");
    for (const CompiledCircuit& c : s.circuits) kernel.registerConfig(c);
  }
  Rng rng(seed);
  const std::vector<TaskSpec> tasks = workloads::makeTaskSet(taskParams(), rng);
  for (const TaskSpec& t : tasks) kernel.addTask(t);
  if (tr == nullptr && rec == nullptr) {
    kernel.run();
  } else {
    {
      Span sp(tr, "os.start", "core");
      kernel.start();
    }
    for (;;) {
      Span sp(tr, "sim.step", "sim");
      if (!sim.step()) break;
      if (rec != nullptr) rec->eventTimes.push_back(sim.now());
    }
    Span sp(tr, "os.finalize", "core");
    kernel.finalize();
  }
  if (rec != nullptr) {
    std::vector<const obs::SpanRecord*> loads;
    for (const obs::SpanRecord& sp : kernel.spanTracer().spans()) {
      if (sp.category == "os.config" && sp.name.rfind("download/", 0) == 0) {
        loads.push_back(&sp);
      }
    }
    std::stable_sort(loads.begin(), loads.end(), [](const auto* a, const auto* b) {
      return a->startNs < b->startNs;
    });
    for (const obs::SpanRecord* sp : loads) {
      rec->downloads.push_back(sp->name.substr(std::string("download/").size()));
    }
  }
  Campaign c;
  c.tasks = tasks.size();
  for (const TaskRuntime& t : kernel.tasks()) {
    if (!t.done()) ++c.unfinished;
  }
  c.m = kernel.metrics();
  c.makespan = c.m.makespan;
  c.overheadNs = c.m.configTime + c.m.stateMoveTime;
  c.events = sim.executedEvents();
  c.port = port.stats();
  return c;
}

std::uint64_t campaignSeed(std::uint64_t seed, std::size_t k) {
  return mix(seed ^ mix(0x05 + k));
}

}  // namespace

void runOsTimeshare(const RunConfig& cfg, Results& out) {
  // The simulated result of every campaign, as first run; each repeat must
  // reproduce it exactly.
  std::map<std::size_t, Campaign> seen;
  // One timed unit = campaign k.
  auto unit = [&](Setup& s, std::size_t k, obs::SpanTracer* tr) {
    const std::uint64_t t0 = nowNs();
    const Campaign c = runCampaign(s, campaignSeed(cfg.seed, k), tr);
    const double ns = static_cast<double>(nowNs() - t0);
    out.attempt(c.tasks);
    out.fail(c.unfinished, "os_timeshare: tasks unfinished or parked");
    const auto [it, fresh] = seen.try_emplace(k, c);
    if (!fresh && !c.sameSimulation(it->second)) {
      out.gateFailed("os_timeshare: campaign " + std::to_string(k) +
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
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    for (std::size_t i = 0; i < kSetupsPerPoint; ++i) {
      s.reset();
      setupTracer.clear();
      const double t0 = nowSec();
      s = buildSetup(cfg.trace ? &setupTracer : nullptr);
      setupS.push_back(nowSec() - t0);
    }
    if (rep == 0) {
      std::vector<double> tasks;
      for (std::size_t k = 0; k < kCampaigns; ++k) {
        unit(*s, k, nullptr);
        tasks.push_back(static_cast<double>(seen.at(k).tasks));
      }
      times.emplace(std::move(tasks));
      const Campaign other =
          runCampaign(*s, campaignSeed(cfg.seed ^ 0x5eed, 0), nullptr);
      if (other.sameSimulation(seen.at(0))) {
        out.gateFailed("os_timeshare: simulated result does not depend on the seed");
      }
    }
    for (std::size_t p = 0; p < passes / kSetupReps; ++p) {
      for (std::size_t k = 0; k < kCampaigns; ++k) times->add(k, unit(*s, k, nullptr));
    }
  }
  if (!cfg.trace) {
    times->report(out, median(setupS));
    std::fprintf(stderr, "os_timeshare: %zu campaigns timed\n", times->units());
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

  // Counts of the traced campaigns (exact, repeatable), and a recording of
  // each: its event times and its downloads.
  std::uint64_t passTasks = 0, passEvents = 0, downloads = 0,
                fullDownloads = 0, bits = 0, stateBits = 0, preemptions = 0,
                rollbacks = 0, relocations = 0, gcs = 0;
  SimTime makespan = 0;
  SimDuration overhead = 0;
  std::vector<Recording> recordings(kTracedCampaigns);
  for (std::size_t k = 0; k < kTracedCampaigns; ++k) {
    const Campaign& c = seen.at(k);
    if (!runCampaign(*s, campaignSeed(cfg.seed, k), nullptr, &recordings[k])
             .sameSimulation(c)) {
      out.gateFailed("os_timeshare: stepped campaign differs from run()");
    }
    if (recordings[k].downloads.size() != c.m.downloads) {
      out.gateFailed("os_timeshare: download spans do not match the download count");
    }
    passTasks += c.tasks;
    passEvents += c.events;
    downloads += c.m.downloads;
    fullDownloads += c.port.fullDownloads;
    bits += c.port.bitsWritten;
    stateBits += c.port.stateBitsMoved;
    preemptions += c.m.fpgaPreemptions;
    rollbacks += c.m.rollbacks;
    relocations += c.m.relocations;
    gcs += c.m.garbageCollections;
    makespan += c.makespan;
    overhead += c.overheadNs;
  }

  // Untraced and traced passes over the traced campaigns alternate.
  obs::SpanTracer tracer;
  SelfTimes st;
  st.keepSamples = true;
  std::vector<double> plain, traced;
  const std::size_t pairs = passesFor(cfg.seconds, kNominalTracedPairSec, 1);
  for (std::size_t pair = 0; pair < pairs; ++pair) {
    for (obs::SpanTracer* tr : {static_cast<obs::SpanTracer*>(nullptr), &tracer}) {
      double passNs = 0;
      for (std::size_t k = 0; k < kTracedCampaigns; ++k) passNs += unit(*s, k, tr);
      (tr != nullptr ? traced : plain).push_back(passNs);
    }
    st.add(tracer.spans());
    if (pair == 0) writeTrace(tracer, cfg.outDir, "os_timeshare");
    tracer.clear();
  }
  const double passMs = median(plain) / 1e6;

  // Direct calls on the workload's own circuits: full and partial downloads
  // through the configuration port, the dynamic loader's context switch
  // between two of them (state save, frame diff, partial download, state
  // restore: what the kernel does per download on this port), and the
  // event queue over the traced campaigns' own event times.
  std::vector<double> fullUs, partialUs;
  for (const CompiledCircuit& c : s->circuits) {
    Device dev = s->profile.makeDevice();
    ConfigPort port(dev, s->profile.port);
    const Bitstream full = c.fullBitstream();
    const Bitstream partial = c.partialBitstream();
    fullUs.push_back(medianSpanNs(&tracer, "config_port.full_download", "fabric", 9,
                                  [&] { port.download(full); }) / 1e3);
    partialUs.push_back(medianSpanNs(&tracer, "config_port.partial_download", "fabric", 9,
                                     [&] { port.download(partial); }) / 1e3);
  }
  // The campaigns' own context switches, replayed through a DynamicLoader
  // on a fresh device in the order the kernel made them (state save, frame
  // diff, partial download, state restore: what the kernel does per
  // download on this port).
  double switchesNs = 0;
  {
    Device dev = s->profile.makeDevice();
    ConfigPort port(dev, s->profile.port);
    ConfigRegistry registry;
    std::map<std::string, ConfigId> ids;
    for (const CompiledCircuit& c : s->circuits) ids[c.name] = registry.add(c);
    for (const Recording& rec : recordings) {
      std::vector<ConfigId> order;
      for (const std::string& name : rec.downloads) order.push_back(ids.at(name));
      switchesNs += medianSpanNs(&tracer, "config_port.switches", "core", 5, [&] {
        dev.clearConfig();
        port.resyncExpected();
        DynamicLoader loader(dev, port, registry);
        for (ConfigId id : order) loader.activate(id);
      });
    }
  }
  const double switchUs =
      downloads ? switchesNs / 1e3 / static_cast<double>(downloads) : 0.0;
  const double queueNsPerEvent =
      medianSpanNs(&tracer, "sim.event_queue", "sim", 9, [&] {
        for (const Recording& rec : recordings) {
          Simulation q;
          for (SimTime t : rec.eventTimes) q.scheduleAt(t, [] {});
          q.run();
        }
      }) /
      static_cast<double>(passEvents);
  writeTrace(tracer, cfg.outDir, "os_timeshare_direct");
  // Shares of the untraced pass's host time, each with that base.
  const double portShare = switchesNs / 1e6 / passMs;
  const double queueShare =
      static_cast<double>(passEvents) * queueNsPerEvent / 1e6 / passMs;

  out.metric("sim.events", static_cast<double>(passEvents), "count");
  const auto& steps = st.byName["sim.step"].samplesNs;
  out.metric("sim.step_us_p50", percentile(steps, 50) / 1e3, "us");
  out.metric("sim.step_us_p99", percentile(steps, 99) / 1e3, "us");
  out.metric("sim.dispatch_share", queueShare, "ratio");
  out.metric("config_port.full_downloads", static_cast<double>(fullDownloads), "count");
  out.metric("config_port.downloads", static_cast<double>(downloads), "count");
  out.metric("config_port.bits_written", static_cast<double>(bits), "count");
  out.metric("config_port.state_bits_moved", static_cast<double>(stateBits), "count");
  out.metric("config_port.full_download_us", median(fullUs), "us");
  out.metric("config_port.partial_download_us", median(partialUs), "us");
  out.metric("config_port.switch_us", switchUs, "us");
  out.metric("config_port.share", portShare, "ratio");
  out.metric("config_port.share_base_ms", passMs, "ms");
  out.metric("core.preemptions", static_cast<double>(preemptions), "count");
  out.metric("core.rollbacks", static_cast<double>(rollbacks), "count");
  out.metric("core.relocations", static_cast<double>(relocations), "count");
  out.metric("core.gc_runs", static_cast<double>(gcs), "count");
  out.metric("sim.makespan_ms",
             toMilliseconds(makespan) / static_cast<double>(kTracedCampaigns), "ms");
  out.metric("core.virt_overhead_frac",
             static_cast<double>(overhead) / static_cast<double>(makespan), "ratio");
  out.metric("trace.overhead_frac", median(traced) / median(plain) - 1, "ratio");
  out.metric("trace.overhead_base_ms", passMs, "ms");
  std::fprintf(stderr,
               "os_timeshare breakdown: pass %.2f ms host for %llu tasks; "
               "config_port %.1f%% (%llu downloads x %.1f us per switch); "
               "event dispatch %.2f%% (%llu events x %.3f us)\n",
               passMs, static_cast<unsigned long long>(passTasks),
               100.0 * portShare, static_cast<unsigned long long>(downloads),
               switchUs, 100.0 * queueShare,
               static_cast<unsigned long long>(passEvents),
               queueNsPerEvent / 1e3);
}

}  // namespace perfbench
