// compile_flow: every library circuit compiled netlist -> bitstream on
// medium_partial and xc4000_partial, six placement seeds each, at the
// circuit's minimal relocatable width (found in set-up; widened in the
// untimed reference pass only where a seed does not route in it). The CAD
// layers do all the timed work; the fabric only checks results.
#include <cstdio>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "fabric/device_family.hpp"
#include "workloads/app_circuits.hpp"
#include "workloads/compile_suite.hpp"

namespace perfbench {

namespace {

/// Set-ups per run; the timed passes are split evenly between them.
constexpr std::size_t kSetupReps = 3;
/// 23 circuits x 2 profiles x 6 seeds = 276 jobs. How long a compile takes
/// depends strongly on its placement seed, so many seeds per circuit keep
/// a run's percentiles from hanging on a few of them.
constexpr std::size_t kSeedsPerCircuit = 6;
constexpr double kNominalPassSec = 2.5;  ///< 276 compiles, reference host
constexpr std::size_t kCheckCycles = 32;

struct Target {
  DeviceProfile profile;
  std::unique_ptr<Device> dev;       ///< compile target (read only)
  std::unique_ptr<Device> checkDev;  ///< downloads results for the gate
  std::unique_ptr<Compiler> compiler;
};

struct Setup {
  std::vector<workloads::AppCircuit> circuits;
  std::vector<Target> targets;
  std::vector<std::uint16_t> minimalWidth;  ///< [target * circuits + circuit]
};

struct Job {
  std::size_t target = 0;
  std::size_t circuit = 0;
  std::uint64_t placementSeed = 0;
  std::uint16_t width = 0;
  // Filled by the first (checked) compile; later repeats must match.
  bool checked = false;
  std::uint64_t imageHash = 0;
  int routeIterations = 0;
  std::uint64_t nodesExpanded = 0;
};

std::uint64_t imageHash(const ConfigImage& img) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : img.raw()) h = (h ^ b) * 0x100000001b3ull;
  return h;
}

std::unique_ptr<Setup> buildSetup() {
  auto s = std::make_unique<Setup>();
  s->circuits = workloads::allSuites();
  for (const char* name : {"medium_partial", "xc4000_partial"}) {
    Target t;
    t.profile = profileByName(name);
    t.dev = std::make_unique<Device>(t.profile.makeDevice());
    t.checkDev = std::make_unique<Device>(t.profile.makeDevice());
    t.compiler = std::make_unique<Compiler>(*t.dev);
    for (const workloads::AppCircuit& c : s->circuits) {
      s->minimalWidth.push_back(workloads::minimalStripWidth(*t.compiler, c.netlist));
    }
    s->targets.push_back(std::move(t));
  }
  return s;
}

std::vector<Job> makeJobs(const Setup& s, std::uint64_t seed) {
  std::vector<Job> jobs;
  for (std::size_t t = 0; t < s.targets.size(); ++t) {
    for (std::size_t c = 0; c < s.circuits.size(); ++c) {
      for (std::size_t k = 0; k < kSeedsPerCircuit; ++k) {
        Job j;
        j.target = t;
        j.circuit = c;
        j.placementSeed = mix(seed ^ mix((t << 16) | (c << 4) | k));
        j.width = s.minimalWidth[t * s.circuits.size() + c];
        jobs.push_back(j);
      }
    }
  }
  return jobs;
}

/// Widens job `j` from the circuit's minimal width while its placement seed
/// does not route there, so the timed compiles of the same (netlist, width,
/// seed) cannot fail.
void widenUntilRoutable(Setup& s, Job& j) {
  Compiler& compiler = *s.targets[j.target].compiler;
  const FabricGeometry& g = compiler.geometry();
  CompileOptions opt;
  opt.seed = j.placementSeed;
  for (;; ++j.width) {
    try {
      (void)compiler.compile(s.circuits[j.circuit].netlist,
                             Region::columns(g, 0, j.width), opt);
      return;
    } catch (const CompileError&) {
      if (j.width == g.cols) throw;
    }
  }
}

/// Compiles job `j`; returns the compile's wall time in ns (up to the throw
/// when it fails, which counts as a failed operation).
/// The result is checked outside the timed interval: the first compile of a
/// job is downloaded and compared with its netlist, repeats must reproduce
/// the same image and routing effort bit for bit.
double compileJob(Setup& s, Job& j, Results& out, std::vector<double>* elabNs) {
  Target& t = s.targets[j.target];
  const workloads::AppCircuit& ac = s.circuits[j.circuit];
  CompileOptions opt;
  opt.seed = j.placementSeed;
  out.attempt();
  std::optional<CompiledCircuit> c;
  const std::uint64_t t0 = nowNs();
  try {
    c = t.compiler->compile(ac.netlist,
                            Region::columns(t.dev->geometry(), 0, j.width), opt);
  } catch (const CompileError& e) {
    out.fail(1, ac.name + ": " + e.what());
    return static_cast<double>(nowNs() - t0);
  }
  const double ns = static_cast<double>(nowNs() - t0);

  const std::uint64_t h = imageHash(c->image);
  if (!j.checked) {
    if (elabNs != nullptr) {
      const std::uint64_t e0 = nowNs();
      t.checkDev->clearConfig();
      t.checkDev->applyBitstream(c->fullBitstream());
      (void)t.checkDev->elaboration();
      elabNs->push_back(static_cast<double>(nowNs() - e0));
    }
    const std::uint64_t bad = checkAgainstNetlist(
        *t.checkDev, ac.netlist, *c, kCheckCycles, j.placementSeed);
    if (bad != 0) {
      out.fail(1, ac.name + ": downloaded result differs from its netlist");
      out.gateFailed(ac.name + " on " + t.profile.name + ": " +
                     std::to_string(bad) + " mismatched cycles");
    }
    j.checked = true;
    j.imageHash = h;
    j.routeIterations = c->routes.iterations;
    j.nodesExpanded = c->routes.nodesExpanded;
  } else if (h != j.imageHash || c->routes.iterations != j.routeIterations ||
             c->routes.nodesExpanded != j.nodesExpanded) {
    out.fail(1, ac.name + ": repeat compile is not bit-identical");
    out.gateFailed(ac.name + ": compile not deterministic for one seed");
  }
  return ns;
}

/// Routing effort of a fixed subset compiled at full width with the run's
/// placement seeds: the determinism fingerprint, which must repeat exactly
/// for one seed and change with the seed.
std::uint64_t fingerprint(Setup& s, std::uint64_t seed) {
  std::uint64_t total = 0;
  Target& t = s.targets.front();
  for (std::size_t c = 0; c < s.circuits.size(); c += 6) {
    CompileOptions opt;
    opt.seed = mix(seed ^ c);
    const CompiledCircuit cc = t.compiler->compile(
        s.circuits[c].netlist,
        Region::columns(t.dev->geometry(), 0, t.dev->geometry().cols), opt);
    total = total * 1000003 + cc.routes.nodesExpanded;
  }
  return total;
}

}  // namespace

void runCompileFlow(const RunConfig& cfg, Results& out) {
  // Set-up runs kSetupReps times, and an equal share of the timed passes
  // follows each: host contention comes in phases, and a job's time is
  // taken from all its repeats (UnitTimes), so they are spread over the
  // whole run.
  const std::size_t passes =
      cfg.trace ? 0 : passesFor(cfg.seconds, kNominalPassSec, kSetupReps);
  std::vector<double> setupS;
  std::unique_ptr<Setup> s;
  std::vector<Job> jobs;
  std::vector<double> elabNs;
  std::optional<UnitTimes> times;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    std::vector<std::uint16_t> firstWidths;
    if (s) firstWidths = s->minimalWidth;
    s.reset();
    const double t0 = nowSec();
    s = buildSetup();
    setupS.push_back(nowSec() - t0);

    if (r == 0) {
      // Determinism across seeds: the fingerprint repeats for one seed and
      // moves with it.
      const std::uint64_t fp = fingerprint(*s, cfg.seed);
      if (fingerprint(*s, cfg.seed) != fp) {
        out.gateFailed("compile_flow fingerprint differs across repeats");
      }
      if (fingerprint(*s, cfg.seed ^ 0x5eed) == fp) {
        out.gateFailed("compile_flow fingerprint does not depend on the seed");
      }
      // The reference pass: every job widened where its seed needs it, its
      // result downloaded and compared with its netlist, and its routing
      // effort recorded.
      jobs = makeJobs(*s, cfg.seed);
      for (Job& j : jobs) {
        widenUntilRoutable(*s, j);
        compileJob(*s, j, out, &elabNs);
      }
      times.emplace(std::vector<double>(jobs.size(), 1.0));
    } else if (s->minimalWidth != firstWidths) {
      out.gateFailed("compile_flow set-up not deterministic");
    }
    for (std::size_t p = 0; p < passes / kSetupReps; ++p) {
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        times->add(i, compileJob(*s, jobs[i], out, nullptr));
      }
    }
  }
  std::uint64_t iterations = 0, expanded = 0;
  for (const Job& j : jobs) {
    iterations += static_cast<std::uint64_t>(j.routeIterations);
    expanded += j.nodesExpanded;
  }

  if (!cfg.trace) {
    times->report(out, median(setupS));
    std::fprintf(stderr, "compile_flow: %zu compiles (%zu jobs per pass)\n",
                 times->units(), jobs.size());
    return;
  }

  // Traced run: untraced and traced passes alternate, so the tracer's own
  // cost is measured on identical work.
  obs::SpanTracer tracer;
  SelfTimes st;
  std::vector<double> plainPass, tracedPass;
  const std::size_t pairs = passesFor(cfg.seconds, 2 * kNominalPassSec, 1);
  for (std::size_t pair = 0; pair < pairs; ++pair) {
    for (const bool traced : {false, true}) {
      for (Target& t : s->targets) {
        t.compiler->setObservers(traced ? &tracer : nullptr, nullptr);
      }
      double passNs = 0;
      for (Job& j : jobs) passNs += compileJob(*s, j, out, nullptr);
      (traced ? tracedPass : plainPass).push_back(passNs);
    }
    st.add(tracer.spans());
    if (pair == 0) writeTrace(tracer, cfg.outDir, "compile_flow");
    tracer.clear();
  }
  for (Target& t : s->targets) t.compiler->setObservers(nullptr, nullptr);

  reportFlowPhases(st, out);
  out.metric("route.iterations", static_cast<double>(iterations), "count");
  out.metric("route.nodes_expanded", static_cast<double>(expanded), "count");
  out.metric("fabric.elaborate_us", median(elabNs) / 1e3, "us");
  out.metric("trace.overhead_frac", median(tracedPass) / median(plainPass) - 1,
             "ratio");
  out.metric("trace.overhead_base_ms", median(plainPass) / 1e6, "ms");
}

}  // namespace perfbench
