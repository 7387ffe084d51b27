// Continuous-monitor tests: the deterministic time-series store (ring
// retention, rollups, CSV/JSON), the alert engine (threshold hysteresis
// including the cancelled edge, multi-window burn-rate math, EWMA warm-up),
// the per-device health model (windowed decay, capacity grades), the MO
// lint rules, and the ClusterScheduler integration — placement steering
// away from a degraded device and the health-triggered early drain that
// fires before the hard usable-columns quarantine threshold.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/monitor_lint.hpp"
#include "cluster/scheduler.hpp"
#include "core/obs_bridge.hpp"
#include "netlist/library/control.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/monitor/alerts.hpp"
#include "obs/monitor/dashboard.hpp"
#include "obs/monitor/health.hpp"
#include "obs/monitor/timeseries.hpp"
#include "sim/rng.hpp"

namespace vfpga {
namespace {

using obs::monitor::AlertEngine;
using obs::monitor::AlertRule;
using obs::monitor::AlertSeverity;
using obs::monitor::AlertState;
using obs::monitor::AlertTransition;
using obs::monitor::HealthCounters;
using obs::monitor::HealthGrade;
using obs::monitor::HealthModel;
using obs::monitor::HealthOptions;
using obs::monitor::RuleKind;
using obs::monitor::TimeSeriesStore;

Netlist named(Netlist nl, const char* name) {
  nl.setName(name);
  return nl;
}

// ---- TimeSeriesStore -------------------------------------------------------

TEST(TimeSeries, RingDropsOldestButAllTimeStatsSurvive) {
  TimeSeriesStore store(4);
  double v = 0.0;
  store.addSeries("sig", [&v] { return v; });
  for (int t = 1; t <= 6; ++t) {
    v = static_cast<double>(t * 10);
    store.sampleAll(static_cast<std::uint64_t>(t));
  }
  EXPECT_EQ(store.retainedTicks(), 4u);
  EXPECT_EQ(store.totalTicks(), 6u);
  EXPECT_EQ(store.droppedTicks(), 2u);
  ASSERT_EQ(store.tickTimes().size(), 4u);
  EXPECT_EQ(store.tickTimes().front(), 3u);  // ticks 1 and 2 dropped
  EXPECT_EQ(store.tickTimes().back(), 6u);
  EXPECT_DOUBLE_EQ(store.values("sig").front(), 30.0);
  EXPECT_DOUBLE_EQ(store.latest("sig"), 60.0);
  // All-time stats still cover the dropped samples.
  EXPECT_EQ(store.allTime("sig").count(), 6u);
  EXPECT_DOUBLE_EQ(store.allTime("sig").min(), 10.0);
  EXPECT_DOUBLE_EQ(store.allTime("sig").max(), 60.0);
}

TEST(TimeSeries, AggregateIsInclusiveAndRollupAlignsToOldestTick) {
  TimeSeriesStore store(16);
  double v = 0.0;
  store.addSeries("sig", [&v] { return v; });
  const double vals[4] = {1.0, 3.0, 5.0, 7.0};
  const std::uint64_t times[4] = {10, 20, 30, 40};
  for (int i = 0; i < 4; ++i) {
    v = vals[i];
    store.sampleAll(times[i]);
  }
  const auto agg = store.aggregate("sig", 20, 30);  // both ends inclusive
  EXPECT_EQ(agg.count, 2u);
  EXPECT_DOUBLE_EQ(agg.min, 3.0);
  EXPECT_DOUBLE_EQ(agg.max, 5.0);
  EXPECT_DOUBLE_EQ(agg.mean, 4.0);
  EXPECT_DOUBLE_EQ(agg.last, 5.0);

  const auto buckets = store.rollup("sig", 20);
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].startNs, 10u);  // [10, 30): samples 10 and 20
  EXPECT_EQ(buckets[0].agg.count, 2u);
  EXPECT_DOUBLE_EQ(buckets[0].agg.mean, 2.0);
  EXPECT_EQ(buckets[1].startNs, 30u);  // [30, 50): samples 30 and 40
  EXPECT_EQ(buckets[1].agg.count, 2u);
  EXPECT_DOUBLE_EQ(buckets[1].agg.last, 7.0);
}

TEST(TimeSeries, RegistrationAndSamplingContracts) {
  TimeSeriesStore store(8);
  store.addSeries("a", [] { return 1.0; });
  EXPECT_THROW(store.addSeries("a", [] { return 2.0; }), std::logic_error);
  store.sampleAll(100);
  // No new series once sampling started, and time must move forward.
  EXPECT_THROW(store.addSeries("late", [] { return 0.0; }),
               std::logic_error);
  EXPECT_THROW(store.sampleAll(100), std::logic_error);
  EXPECT_THROW(store.sampleAll(50), std::logic_error);
  EXPECT_THROW(store.values("missing"), std::logic_error);
}

TEST(TimeSeries, BindMetricResolvesLazilyAndReadsHistogramFields) {
  obs::MetricsRegistry reg;
  TimeSeriesStore store(8);
  store.bindMetric("jobs", reg, "vfpga_test_jobs_total");
  store.bindMetric("wait_p50", reg, "vfpga_test_wait_ns", {},
                   obs::monitor::SeriesField::kP50);
  store.sampleAll(10);  // neither metric exists yet: reads 0
  EXPECT_DOUBLE_EQ(store.latest("jobs"), 0.0);
  EXPECT_DOUBLE_EQ(store.latest("wait_p50"), 0.0);

  reg.counter("vfpga_test_jobs_total").inc(5);
  auto& h = reg.histogram("vfpga_test_wait_ns", 0.0, 100.0, 10);
  h.observe(25.0);
  h.observe(25.0);
  h.observe(75.0);
  store.sampleAll(20);
  EXPECT_DOUBLE_EQ(store.latest("jobs"), 5.0);
  // The p50 is bucket-resolved; pin it to the bucket holding the median.
  EXPECT_GE(store.latest("wait_p50"), 20.0);
  EXPECT_LE(store.latest("wait_p50"), 30.0);
}

TEST(TimeSeries, CsvAndJsonAreByteDeterministic) {
  auto build = [] {
    TimeSeriesStore store(8);
    double v = 0.0;
    store.addSeries("sig", [&v] { return v; }, "ns");
    store.setSampleIntervalNs(100);
    for (int t = 1; t <= 5; ++t) {
      v = t * 2.5;
      store.sampleAll(static_cast<std::uint64_t>(t) * 100);
    }
    return std::make_pair(store.renderCsv(), store.renderJson());
  };
  const auto a = build();
  const auto b = build();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_EQ(a.first.substr(0, a.first.find('\n')), "t_ns,sig");
  EXPECT_NE(a.second.find("\"sample_interval_ns\": 100"), std::string::npos);
}

// ---- AlertEngine -----------------------------------------------------------

/// Drives one probe-backed series through the engine at a fixed cadence.
struct Harness {
  TimeSeriesStore store{64};
  AlertEngine engine;
  double v = 0.0;
  std::uint64_t t = 0;

  explicit Harness(AlertRule rule) {
    store.addSeries(rule.series, [this] { return v; });
    engine.addRule(std::move(rule));
  }
  void tick(double value, std::uint64_t dt = 100) {
    v = value;
    t += dt;
    store.sampleAll(t);
    engine.evaluate(t, store);
  }
  const obs::monitor::RuleStatus& status() const {
    return engine.rules().front();
  }
};

TEST(Alerts, ThresholdHysteresisPendingFiringResolved) {
  AlertRule r;
  r.name = "hot";
  r.series = "sig";
  r.kind = RuleKind::kThreshold;
  r.threshold = 5.0;
  r.forNs = 200;
  r.resolveNs = 200;
  Harness h(r);

  h.tick(1.0);  // t=100 idle
  EXPECT_EQ(h.status().state, AlertState::kIdle);
  h.tick(10.0);  // t=200 -> pending
  EXPECT_EQ(h.status().state, AlertState::kPending);
  h.tick(10.0);  // t=300, held 100 < forNs
  EXPECT_EQ(h.status().state, AlertState::kPending);
  h.tick(10.0);  // t=400, held 200 >= forNs -> firing
  EXPECT_EQ(h.status().state, AlertState::kFiring);
  EXPECT_EQ(h.engine.worstFiringGrade(), 1);
  h.tick(1.0);  // t=500: condition clear, resolution clock starts
  EXPECT_EQ(h.status().state, AlertState::kFiring);
  EXPECT_TRUE(h.engine.resolutionPending());
  h.tick(1.0);  // t=600
  h.tick(1.0);  // t=700, clear 200 >= resolveNs -> resolved
  EXPECT_EQ(h.status().state, AlertState::kIdle);
  EXPECT_EQ(h.engine.worstFiringGrade(), 0);
  EXPECT_EQ(h.status().incidents, 1u);

  std::vector<std::string> edges;
  for (const AlertTransition& tr : h.engine.transitions()) {
    edges.push_back(tr.to);
  }
  EXPECT_EQ(edges,
            (std::vector<std::string>{"pending", "firing", "resolved"}));
}

TEST(Dashboard, JsonEscapesControlCharactersInNames) {
  AlertRule r;
  r.name = "hot\trule\r";
  r.series = "sig\tnal";
  r.kind = RuleKind::kThreshold;
  r.threshold = 5.0;
  Harness h(r);
  h.tick(10.0);  // one transition, so the rule name lands twice

  obs::monitor::DashboardInput in;
  in.store = &h.store;
  in.engine = &h.engine;
  in.title = "tab\there\r\ncr";
  in.atNs = h.t;
  const obs::JsonValue doc =
      obs::JsonValue::parse(obs::monitor::renderMonitorJson(in));
  EXPECT_EQ(doc.at("title").asString(), in.title);
  EXPECT_EQ(doc.at("alerts").asArray().at(0).at("name").asString(), r.name);
  EXPECT_EQ(doc.at("transitions").asArray().at(0).at("rule").asString(),
            r.name);
  EXPECT_EQ(doc.at("timeseries").at("series").asArray().at(0).at("name")
                .asString(),
            r.series);
}

TEST(Alerts, PendingCancelsWhenConditionClearsBeforeFor) {
  AlertRule r;
  r.name = "flappy";
  r.series = "sig";
  r.kind = RuleKind::kThreshold;
  r.threshold = 5.0;
  r.forNs = 500;
  Harness h(r);

  h.tick(10.0);  // pending
  EXPECT_EQ(h.status().state, AlertState::kPending);
  h.tick(1.0);  // cleared before forNs elapsed -> cancelled
  EXPECT_EQ(h.status().state, AlertState::kIdle);
  EXPECT_EQ(h.status().incidents, 0u);
  ASSERT_EQ(h.engine.transitions().size(), 2u);
  EXPECT_EQ(h.engine.transitions()[1].to, "cancelled");
}

TEST(Alerts, ImmediateFireRecordsBothEdgesInOneTick) {
  AlertRule r;
  r.name = "instant";
  r.series = "sig";
  r.kind = RuleKind::kThreshold;
  r.threshold = 5.0;  // forNs = resolveNs = 0
  Harness h(r);
  h.tick(10.0);
  EXPECT_EQ(h.status().state, AlertState::kFiring);
  ASSERT_EQ(h.engine.transitions().size(), 2u);
  EXPECT_EQ(h.engine.transitions()[0].to, "pending");
  EXPECT_EQ(h.engine.transitions()[1].to, "firing");
  h.tick(1.0);
  EXPECT_EQ(h.status().state, AlertState::kIdle);
  EXPECT_EQ(h.engine.transitions().back().to, "resolved");
}

TEST(Alerts, BurnRateNeedsBothWindowsAndFullLongWindowRetention) {
  AlertRule r;
  r.name = "burn";
  r.series = "bad";
  r.kind = RuleKind::kBurnRate;
  r.windowNs = 200;
  r.longWindowNs = 400;
  r.objective = 0.5;
  r.burnFactor = 1.0;
  Harness h(r);

  // All-bad from the start, but the rule stays silent until the store has
  // retained a full long window (first tick at 100 => armed at t >= 500).
  h.tick(1.0);  // 100
  h.tick(1.0);  // 200
  h.tick(1.0);  // 300
  h.tick(1.0);  // 400
  EXPECT_TRUE(h.engine.transitions().empty());
  h.tick(1.0);  // 500: short mean 1.0 / 0.5 = 2.0, long mean 1.0 / 0.5 = 2.0
  EXPECT_EQ(h.status().state, AlertState::kFiring);
  EXPECT_DOUBLE_EQ(h.status().lastValue, 2.0);  // min(short, long) burn

  // Badness stops: the short window drains first, the rule resolves once
  // its burn drops below the factor even though the long window is still
  // elevated (both-windows conjunction).
  h.tick(0.0);  // 600: short {1,1,0} -> burn 1.33, still firing
  EXPECT_EQ(h.status().state, AlertState::kFiring);
  h.tick(0.0);  // 700: short {1,0,0} -> burn 0.67 < 1 -> resolved
  EXPECT_EQ(h.status().state, AlertState::kIdle);
  EXPECT_EQ(h.engine.transitions().back().to, "resolved");
}

TEST(Alerts, EwmaZScoreSuppressedDuringWarmup) {
  AlertRule r;
  r.name = "anomaly";
  r.series = "sig";
  r.kind = RuleKind::kEwmaZScore;
  r.ewmaAlpha = 0.5;
  r.zThreshold = 3.0;
  r.warmupSamples = 4;
  Harness h(r);

  h.tick(10.0);   // seeds the mean
  h.tick(90.0);   // wild swing during warm-up: suppressed
  h.tick(10.0);
  h.tick(10.0);
  EXPECT_TRUE(h.engine.transitions().empty());
  // Settle, then spike after warm-up: fires.
  h.tick(10.0);
  h.tick(10.0);
  h.tick(10.0);
  const std::size_t before = h.engine.transitions().size();
  h.tick(1000.0);
  EXPECT_EQ(h.status().state, AlertState::kFiring);
  EXPECT_GT(h.engine.transitions().size(), before);
}

TEST(Alerts, UnknownSeriesThrowsAndDuplicateRuleNameThrows) {
  TimeSeriesStore store(8);
  store.addSeries("known", [] { return 0.0; });
  AlertEngine engine;
  AlertRule r;
  r.name = "r1";
  r.series = "unknown";
  engine.addRule(r);
  EXPECT_THROW(engine.addRule(r), std::logic_error);  // duplicate name
  store.sampleAll(10);
  EXPECT_THROW(engine.evaluate(10, store), std::logic_error);
}

// ---- HealthModel -----------------------------------------------------------

TEST(Health, ActivityScoreDecaysOnceTheWindowPasses) {
  HealthOptions opt;
  opt.windowNs = 1000;
  HealthModel hm(opt);
  HealthCounters c;
  c.usableColumns = 12;
  c.totalColumns = 12;
  hm.update("dev", 0, c);
  EXPECT_EQ(hm.grade("dev"), HealthGrade::kHealthy);

  c.quarantinedStrips = 1;  // +3
  c.watchdogPreempts = 2;   // +4 -> score 7 >= criticalAt
  hm.update("dev", 100, c);
  EXPECT_EQ(hm.grade("dev"), HealthGrade::kCritical);
  EXPECT_DOUBLE_EQ(hm.score("dev"), 7.0);

  // Same counters much later: the deltas age out of the window.
  hm.update("dev", 2000, c);
  EXPECT_EQ(hm.grade("dev"), HealthGrade::kHealthy);
  EXPECT_DOUBLE_EQ(hm.score("dev"), 0.0);

  // healthy -> critical -> healthy recorded as events.
  ASSERT_EQ(hm.events().size(), 2u);
  EXPECT_EQ(hm.events()[0].to, HealthGrade::kCritical);
  EXPECT_EQ(hm.events()[1].to, HealthGrade::kHealthy);
}

TEST(Health, CapacityRatioGradesWithoutAnyFaultActivity) {
  HealthModel hm;
  HealthCounters c;
  c.totalColumns = 12;
  c.usableColumns = 7;  // 0.58 < 0.60
  hm.update("dev", 10, c);
  EXPECT_EQ(hm.grade("dev"), HealthGrade::kDegraded);
  c.usableColumns = 4;  // 0.33 < 0.35
  hm.update("dev", 20, c);
  EXPECT_EQ(hm.grade("dev"), HealthGrade::kCritical);
  c.usableColumns = 12;
  hm.update("dev", 30, c);
  EXPECT_EQ(hm.grade("dev"), HealthGrade::kHealthy);
  // Unknown devices read healthy; firing alerts weigh into the score.
  EXPECT_EQ(hm.grade("ghost"), HealthGrade::kHealthy);
  hm.update("dev", 40, c, /*firingWarnings=*/1, /*firingCriticals=*/1);
  EXPECT_DOUBLE_EQ(hm.score("dev"), 1.0 + 3.0);
}

TEST(Health, ZeroWeightsReportNoFaultInputs) {
  HealthOptions opt;
  opt.wQuarantine = opt.wRelocation = opt.wScrubRepair = 0.0;
  opt.wWatchdog = opt.wParked = opt.wRetry = opt.wCrc = 0.0;
  EXPECT_FALSE(HealthModel(opt).hasFaultInputs());
  EXPECT_TRUE(HealthModel().hasFaultInputs());
}

// ---- MO lint ---------------------------------------------------------------

TEST(MonitorLint, FlagsEveryMisconfiguration) {
  analysis::MonitorProfile p;
  p.seriesNames = {"good"};
  analysis::MonitorRuleProfile unknown;
  unknown.name = "r_unknown";
  unknown.series = "nope";
  p.rules.push_back(unknown);
  analysis::MonitorRuleProfile zero;
  zero.name = "r_zero";
  zero.series = "good";
  zero.isBurnRate = true;
  zero.windowNs = 0;
  p.rules.push_back(zero);
  analysis::MonitorRuleProfile flat;
  flat.name = "r_flat";
  flat.series = "good";
  flat.isBurnRate = true;
  flat.windowNs = 100;
  flat.longWindowNs = 100;  // not strictly nested
  p.rules.push_back(flat);
  p.healthAttached = true;
  p.healthHasFaultInputs = false;

  analysis::Report rep;
  analysis::lintMonitor(p, rep);
  std::vector<std::string> rules;
  for (const auto& d : rep.diagnostics()) rules.push_back(d.rule);
  EXPECT_EQ(rules, (std::vector<std::string>{"MO001", "MO002", "MO003",
                                             "MO004"}));
  EXPECT_FALSE(rep.ok());  // MO001-MO003 are errors

  analysis::MonitorProfile clean;
  clean.seriesNames = {"good"};
  analysis::MonitorRuleProfile okRule;
  okRule.name = "r_ok";
  okRule.series = "good";
  okRule.isBurnRate = true;
  okRule.windowNs = 100;
  okRule.longWindowNs = 400;
  clean.rules.push_back(okRule);
  clean.healthAttached = true;
  clean.healthHasFaultInputs = true;
  analysis::Report cleanRep;
  analysis::lintMonitor(clean, cleanRep);
  EXPECT_TRUE(cleanRep.diagnostics().empty());
}

// ---- ClusterScheduler integration ------------------------------------------

struct MonitoredRun {
  Simulation sim;
  cluster::BitstreamCache cache{16};
  std::unique_ptr<cluster::DevicePool> pool;
  std::unique_ptr<cluster::ClusterScheduler> sched;
  TimeSeriesStore store{512};
  AlertEngine engine;
  HealthModel health;
  cluster::WorkloadId workload = 0;
};

std::unique_ptr<MonitoredRun> makeRun(std::size_t devices,
                                      std::size_t jobs) {
  auto run = std::make_unique<MonitoredRun>();
  std::vector<cluster::DeviceNodeSpec> specs(devices);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "dev" + std::to_string(i);
    specs[i].profile = mediumPartialProfile();
  }
  run->pool = std::make_unique<cluster::DevicePool>(run->sim, specs,
                                                    run->cache);
  run->workload = run->pool->registerWorkload(
      "count", named(lib::makeCounter(6), "count"), 4);
  cluster::ClusterOptions copt;
  copt.minUsableColumns = 8;
  run->sched = std::make_unique<cluster::ClusterScheduler>(run->sim,
                                                           *run->pool, copt);
  for (std::size_t j = 0; j < jobs; ++j) {
    cluster::ClusterJobSpec job;
    job.name = "t" + std::to_string(j);
    job.submitAt = static_cast<SimTime>(j) * micros(30);
    job.ops = {CpuBurst{micros(10)}, FpgaExec{run->workload, 40000},
               CpuBurst{micros(5)}};
    run->sched->submit(std::move(job));
  }
  return run;
}

TEST(MonitorScheduler, PlacementAvoidsDegradedDeviceWhileHealthyOnesFit) {
  // Control: without a health model, least-loaded spreads across devices.
  auto control = makeRun(2, 4);
  control->sched->run();
  bool controlUsedDev1 = false;
  for (const auto& o : control->sched->outcomes()) {
    if (o.device == "dev1") controlUsedDev1 = true;
  }
  ASSERT_TRUE(controlUsedDev1);

  // Same campaign, but dev1 is pre-graded degraded (capacity ratio) in a
  // consult-only attachment (sampleInterval = 0): every job must land on
  // the healthy dev0 even though dev1 has free capacity and equal load.
  auto run = makeRun(2, 4);
  HealthCounters c;
  c.totalColumns = 12;
  c.usableColumns = 7;  // 0.58 < 0.60 -> degraded
  run->health.update("dev1", 0, c);
  cluster::ClusterScheduler::MonitorAttachment mon;
  mon.health = &run->health;
  run->sched->attachMonitor(mon);
  EXPECT_EQ(run->sched->deviceHealth(1), HealthGrade::kDegraded);
  run->sched->run();
  const auto& s = run->sched->summary();
  EXPECT_EQ(s.completed, s.admitted);
  for (const auto& o : run->sched->outcomes()) {
    EXPECT_EQ(o.device, "dev0") << o.name;
    EXPECT_EQ(o.migrations, 0u);
  }
}

TEST(MonitorScheduler, CriticalHealthDrainsEarlyBeforeHardQuarantine) {
  auto run = makeRun(2, 4);
  cluster::ClusterScheduler::MonitorAttachment mon;
  mon.health = &run->health;
  run->sched->attachMonitor(mon);

  // Let jobs spread, then mark dev1 critical mid-run. No fault plan is
  // installed anywhere: dev1's usable span never shrinks, so the classic
  // quarantine drain (usableColumns < minUsableColumns) can never trigger.
  HealthCounters ok;
  ok.totalColumns = 12;
  ok.usableColumns = 12;
  run->health.update("dev1", 0, ok);
  run->sim.scheduleAt(micros(200), [&run] {
    HealthCounters bad;
    bad.totalColumns = 12;
    bad.usableColumns = 4;  // 0.33 < 0.35 -> critical
    run->health.update("dev1", micros(200), bad);
  });
  run->sched->run();

  const auto& s = run->sched->summary();
  EXPECT_EQ(s.completed, s.admitted);
  EXPECT_EQ(s.parked, 0u);
  // The early drain moved work off dev1 while its fabric was still fully
  // usable — the whole point of acting on health before quarantine.
  EXPECT_GE(s.migrationsDrain, 1u);
  EXPECT_EQ(run->pool->node(1).usableColumns(), 12);
  const obs::Metric* drains = run->sched->metricsRegistry().find(
      "vfpga_cluster_health_drains_total");
  ASSERT_NE(drains, nullptr);
  EXPECT_GE(std::get<obs::Counter>(drains->value).value(), 1u);
  // Every job finished on the healthy device.
  for (const auto& o : run->sched->outcomes()) {
    EXPECT_EQ(o.device, "dev0") << o.name;
  }
}

// Counts the rows of the health table in a rendered text dashboard.
std::size_t healthDeviceRows(const std::string& text) {
  if (text.find("\nhealth\n") == std::string::npos) return 0;
  std::size_t n = 0;
  for (const char* dev : {"  dev0", "  dev1"}) {
    if (text.find(dev) != std::string::npos) ++n;
  }
  return n;
}

TEST(MonitorScheduler, SampledCampaignRendersAreByteIdentical) {
  auto campaign = [](std::string* text, std::string* json, std::string* html,
                     std::vector<std::string>* edges) {
    auto run = makeRun(2, 6);
    bindKernelSeries(run->store, run->pool->node(0).kernel(), "dev0.");
    bindKernelSeries(run->store, run->pool->node(1).kernel(), "dev1.");
    auto* sched = run->sched.get();
    run->store.addSeries("cluster.queue_depth", [sched] {
      return static_cast<double>(sched->queueDepth());
    });
    AlertRule r;
    r.name = "busy";
    r.series = "dev0.running";
    r.kind = RuleKind::kThreshold;
    r.threshold = 0.5;
    r.forNs = micros(100);
    r.resolveNs = micros(100);
    run->engine.addRule(r);
    run->engine.setTransitionObserver(
        [edges](const AlertTransition& tr) { edges->push_back(tr.to); });

    cluster::ClusterScheduler::MonitorAttachment mon;
    mon.store = &run->store;
    mon.engine = &run->engine;
    mon.health = &run->health;
    mon.sampleInterval = micros(50);
    run->sched->attachMonitor(mon);
    run->sched->run();

    obs::monitor::DashboardInput in;
    in.store = &run->store;
    in.engine = &run->engine;
    in.health = &run->health;
    in.atNs = run->store.lastTickNs();
    *text = renderMonitorText(in);
    *json = renderMonitorJson(in);
    *html = renderMonitorHtml(in);
  };

  std::string textA, jsonA, htmlA, textB, jsonB, htmlB;
  std::vector<std::string> edgesA, edgesB;
  campaign(&textA, &jsonA, &htmlA, &edgesA);
  campaign(&textB, &jsonB, &htmlB, &edgesB);
  EXPECT_EQ(textA, textB);
  EXPECT_EQ(jsonA, jsonB);
  EXPECT_EQ(htmlA, htmlB);
  EXPECT_EQ(edgesA, edgesB);
  // The kernels were genuinely busy, so the rule fired at least once and
  // was resolved by the post-settle grace ticks before the campaign ended.
  EXPECT_GE(std::count(edgesA.begin(), edgesA.end(), "firing"), 1);
  ASSERT_FALSE(edgesA.empty());
  EXPECT_EQ(edgesA.back(), "resolved");
  // Health collection ran on the scheduler cadence for both devices.
  EXPECT_EQ(healthDeviceRows(textA), 2u);
}

TEST(MonitorScheduler, AttachmentContracts) {
  auto run = makeRun(2, 1);
  cluster::ClusterScheduler::MonitorAttachment mon;
  mon.sampleInterval = micros(50);  // sampling without a store
  EXPECT_THROW(run->sched->attachMonitor(mon), std::invalid_argument);
  run->sched->run();
  cluster::ClusterScheduler::MonitorAttachment late;
  late.health = &run->health;
  EXPECT_THROW(run->sched->attachMonitor(late), std::logic_error);
}

// ---- FlightRecorder notes --------------------------------------------------

TEST(FlightRecorder, NotesRideIntoTheBundleBounded) {
  obs::FlightRecorder::Options opt;
  opt.noteCapacity = 2;
  obs::FlightRecorder fr(opt);
  fr.note(100, "alert a -> firing");
  fr.note(200, "alert a -> resolved");
  fr.note(300, "alert b -> firing");
  ASSERT_EQ(fr.notes().size(), 2u);  // oldest dropped
  EXPECT_EQ(fr.notes().front().atNs, 200u);
  const std::string bundle = fr.renderBundle("MO000", "test");
  EXPECT_NE(bundle.find("\"notes\""), std::string::npos);
  EXPECT_NE(bundle.find("alert b -> firing"), std::string::npos);
  EXPECT_EQ(bundle.find("alert a -> firing"), std::string::npos);
}

}  // namespace
}  // namespace vfpga
