// Fabric workloads: a ladder of library circuits compiled for
// xc4000_partial in setup, then seeded stimulus replayed through one of
// two evaluation paths. Compiling is set-up only here.
//
//   fabric_replay   LoadedCircuit name-based ports + Device::evaluate/tick,
//                   compiled fast path attached (the path examples and
//                   tests use); its traced run also times the layers of a
//                   cycle by direct calls, the same evaluation with an
//                   ActivityProbe attached, which forces the interpretive
//                   walk (the profiler's path), and the 64-lane
//                   compiled::BatchEvaluator
//   fabric_threads  DevicePool::replayFabrics on 4 devices, one worker
//                   thread per device up to the process's CPU count
//
// A timed unit replays one rung on one seeded stimulus; a pass runs every
// (rung, stimulus) key once. Every unit is checked against the netlist
// Evaluator on the same stimulus, outside the timed interval.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>

#include "bench.hpp"
#include "cluster/device_pool.hpp"
#include "fabric/activity_probe.hpp"
#include "fabric/device_family.hpp"
#include "sim/compiled/batch.hpp"
#include "sim/compiled/compiled_fabric.hpp"
#include "sim/compiled/kernel_cache.hpp"
#include "workloads/compile_suite.hpp"

namespace perfbench {

namespace {

/// Set-ups per run; the timed passes are split evenly between them.
constexpr std::size_t kSetupReps = 3;
/// Small rungs are dominated by port I/O, large ones by the kernel.
const char* const kLadder[] = {"tc_hamming", "ct_counter", "tc_crc8",
                               "mm_rle",     "mm_fir",     "ct_fsm",
                               "mm_mac",     "nw_sort4",   "ct_pi"};
constexpr std::size_t kRungs = std::size(kLadder);
/// The rungs port_io.share_small / port_io.share_large are taken over.
constexpr std::size_t kEndRungs = 3;
/// Seeded stimuli per rung: kRungs x kStimuli keys, >= kMinKeys.
constexpr std::size_t kStimuli = 12;
constexpr std::size_t kKeys = kRungs * kStimuli;
constexpr std::size_t kCycles = 256;        ///< per fabric_replay unit
constexpr std::size_t kReplayCycles = 512;  ///< per device per replayFabrics call
constexpr std::size_t kReplayDevices = 4;
constexpr unsigned kLanes = compiled::BatchEvaluator::kLanes;
/// Nominal cost of one pass over the keys on the reference host.
constexpr double kNominalReplayPassSec = 0.05;
constexpr double kNominalThreadsPassSec = 0.35;
/// Repeats of each direct layer loop in the traced run.
constexpr int kLayerReps = 15;

struct Rung {
  Netlist nl;
  CompiledCircuit c;
  PortNames ports;
  std::vector<std::uint32_t> inSlots;   ///< parallel to ports.inputs
  std::vector<std::uint32_t> outSlots;  ///< parallel to ports.outputs
  // fabric_replay.
  std::unique_ptr<Device> dev;
  std::unique_ptr<compiled::CompiledFabric> engine;
  // fabric_threads.
  cluster::WorkloadId workload = 0;
};

struct Setup {
  DeviceProfile profile = xc4000PartialProfile();
  std::unique_ptr<Device> target;
  std::unique_ptr<Compiler> compiler;
  compiled::CompiledKernelCache kernelCache{64};
  std::vector<Rung> rungs;
  // fabric_threads.
  std::unique_ptr<Simulation> sim;
  std::unique_ptr<cluster::BitstreamCache> bitstreams;
  std::unique_ptr<cluster::DevicePool> pool;
};

/// One timed unit's input and its netlist reference; kept across set-ups.
struct Key {
  std::size_t rung = 0;
  std::uint64_t seed = 0;
  std::vector<std::vector<bool>> stim;             ///< fabric_replay
  std::vector<std::vector<std::uint64_t>> ref;     ///< fabric_replay
  std::vector<std::uint64_t> replayDigest;         ///< fabric_threads, per device
};

std::uint64_t keySeed(std::uint64_t seed, std::size_t rung, std::size_t stimulus) {
  return mix(seed ^ mix((rung << 8) | stimulus));
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
  return h;
}

std::unique_ptr<Setup> buildSetup(bool threaded, obs::SpanTracer* tracer) {
  auto s = std::make_unique<Setup>();
  s->target = std::make_unique<Device>(s->profile.makeDevice());
  s->compiler = std::make_unique<Compiler>(*s->target);
  s->compiler->setObservers(tracer, nullptr);
  for (const char* name : kLadder) {
    Rung r;
    r.nl = libraryNetlist(name);
    r.c = workloads::compileMinimal(*s->compiler, r.nl, 1);
    r.ports = portNames(r.nl, r.c);
    for (const auto& in : r.ports.inputs) r.inSlots.push_back(r.c.padSlotOf(in.second));
    for (const auto& o : r.ports.outputs) r.outSlots.push_back(r.c.padSlotOf(o));
    s->rungs.push_back(std::move(r));
  }
  s->compiler->setObservers(nullptr, nullptr);

  if (threaded) {
    s->sim = std::make_unique<Simulation>();
    s->bitstreams = std::make_unique<cluster::BitstreamCache>(32);
    std::vector<cluster::DeviceNodeSpec> specs;
    for (std::size_t d = 0; d < kReplayDevices; ++d) {
      cluster::DeviceNodeSpec spec;
      spec.name = "replay" + std::to_string(d);
      spec.profile = s->profile;
      specs.push_back(std::move(spec));
    }
    s->pool = std::make_unique<cluster::DevicePool>(*s->sim, specs,
                                                    *s->bitstreams);
    for (Rung& r : s->rungs) {
      r.workload = s->pool->registerWorkload(r.c.name, r.nl, r.c.region.w);
    }
    return s;
  }

  for (Rung& r : s->rungs) {
    r.dev = std::make_unique<Device>(s->profile.makeDevice());
    r.dev->applyBitstream(r.c.fullBitstream());
    r.engine = std::make_unique<compiled::CompiledFabric>(*r.dev,
                                                          &s->kernelCache);
    if (!r.engine->ready()) throw std::runtime_error(r.c.name + ": faulted");
  }
  return s;
}

// ---- correctness references --------------------------------------------------

std::vector<Key> makeKeys(std::uint64_t seed) {
  std::vector<Key> keys;
  for (std::size_t v = 0; v < kStimuli; ++v) {
    for (std::size_t i = 0; i < kRungs; ++i) {
      Key k;
      k.rung = i;
      k.seed = keySeed(seed, i, v);
      keys.push_back(std::move(k));
    }
  }
  return keys;
}

void buildScalarReference(const Setup& s, std::vector<Key>& keys) {
  for (Key& k : keys) {
    const Netlist& nl = s.rungs[k.rung].nl;
    k.stim = makeStimulus(nl, kCycles, k.seed);
    k.ref = referenceOutputs(nl, k.stim);
  }
}

/// Reference digests for replayFabrics: the replay's stimulus and digest
/// fold re-derived here, outputs taken from the netlist Evaluator and
/// register state from an interpretive device whose outputs are checked
/// against the Evaluator cycle by cycle. Returns mismatched cycles.
std::uint64_t buildReplayReference(const Setup& s, std::vector<Key>& keys) {
  std::uint64_t bad = 0;
  for (Key& k : keys) {
    const Rung& r = s.rungs[k.rung];
    k.replayDigest.clear();
    for (std::size_t d = 0; d < kReplayDevices; ++d) {
      Device dev = s.profile.makeDevice();
      dev.applyBitstream(r.c.fullBitstream());
      dev.resetFfs();
      Evaluator ev(r.nl);
      ev.setState(std::vector<bool>(r.nl.dffs().size(), false));
      const Elaboration& e = dev.elaboration();
      const std::vector<std::uint32_t> inputSlots = e.inputSlots;
      std::vector<std::uint32_t> outSlots;
      for (const Elaboration::PadOut& po : e.padOuts) outSlots.push_back(po.slot);
      // The netlist port bound to each pad slot.
      auto gateOf = [&](std::uint32_t slot, std::span<const GateId> among) {
        for (const PortBinding& b : r.c.ports) {
          if (b.padSlot != slot) continue;
          for (GateId g : among)
            if (r.nl.gate(g).name == b.name) return g;
        }
        throw std::runtime_error("unbound pad slot");
      };
      std::vector<GateId> inGates, outGates;
      for (std::uint32_t slot : inputSlots) inGates.push_back(gateOf(slot, r.nl.inputs()));
      for (std::uint32_t slot : outSlots) outGates.push_back(gateOf(slot, r.nl.outputs()));
      std::uint64_t h = 0xcbf29ce484222325ull;
      for (std::uint64_t cyc = 0; cyc < kReplayCycles; ++cyc) {
        for (std::size_t pos = 0; pos < inputSlots.size(); ++pos) {
          const std::uint64_t w =
              mix(k.seed ^ 0xd1342543de82ef95ull * (cyc + 1) ^
                  0x9e6c63d0876a9a47ull * (d + 1) ^ (pos >> 6));
          const bool bit = (w >> (pos & 63)) & 1;
          dev.setPadSlotInput(inputSlots[pos], bit);
          ev.setInput(inGates[pos], bit);
        }
        dev.evaluate();
        ev.eval();
        std::uint64_t outs = 0;
        bool ok = true;
        for (std::size_t o = 0; o < outSlots.size(); ++o) {
          const bool v = ev.value(outGates[o]);
          if (dev.padSlotOutput(outSlots[o]) != v) ok = false;
          if (v) outs |= 1ull << (o & 63);
          if ((o & 63) == 63) {
            h = fnv(h, outs);
            outs = 0;
          }
        }
        h = fnv(h, outs);
        if (!ok) ++bad;
        dev.tick();
        ev.tick();
        if (cyc + 1 == kReplayCycles) {  // syncEvery == cycles: one sync point
          const std::vector<bool> ff = dev.ffState();
          std::uint64_t word = 0;
          for (std::size_t b = 0; b < ff.size(); ++b) {
            if (ff[b]) word |= 1ull << (b & 63);
            if ((b & 63) == 63) {
              h = fnv(h, word);
              word = 0;
            }
          }
          h = fnv(h, word);
        }
      }
      k.replayDigest.push_back(h);
    }
  }
  return bad;
}

/// Determinism fingerprint: the netlist reference outputs of every rung on
/// its first stimulus. It must repeat for one seed and move with the seed.
std::uint64_t stimulusFingerprint(const Setup& s, std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < s.rungs.size(); ++i) {
    const Rung& r = s.rungs[i];
    const auto stim = makeStimulus(r.nl, kCycles, keySeed(seed, i, 0));
    for (const auto& words : referenceOutputs(r.nl, stim)) {
      for (std::uint64_t v : words) h = fnv(h, v);
    }
  }
  return h;
}

// ---- timed units -------------------------------------------------------------

/// One scalar (or probed) replay of key `k` through LoadedCircuit's
/// name-based ports. Returns the timed ns; mismatched cycles are added to
/// `bad`.
double scalarUnit(Setup& s, const Key& k, obs::SpanTracer* tr, std::uint64_t& bad) {
  Rung& r = s.rungs[k.rung];
  LoadedCircuit lc(*r.dev, r.c);
  lc.applyInitialState();
  const std::size_t words = k.ref.front().size();
  std::vector<std::uint64_t> got(kCycles * words, 0);
  const std::uint64_t t0 = nowNs();
  {
    Span sp(tr, "fabric.replay", "fabric");
    for (std::size_t cyc = 0; cyc < kCycles; ++cyc) {
      const std::vector<bool>& in = k.stim[cyc];
      for (const auto& [idx, name] : r.ports.inputs) lc.setInput(name, in[idx]);
      lc.evaluate();
      std::uint64_t* w = &got[cyc * words];
      for (std::size_t o = 0; o < r.ports.outputs.size(); ++o) {
        if (lc.output(r.ports.outputs[o])) w[o / 64] |= 1ull << (o % 64);
      }
      lc.tick();
    }
  }
  const double ns = static_cast<double>(nowNs() - t0);
  for (std::size_t cyc = 0; cyc < kCycles; ++cyc) {
    if (!std::equal(k.ref[cyc].begin(), k.ref[cyc].end(), &got[cyc * words])) ++bad;
  }
  return ns;
}

/// One threaded replayFabrics call of key `k`.
double replayUnit(Setup& s, const Key& k, unsigned threads, obs::SpanTracer* tr,
                  std::uint64_t& bad) {
  cluster::FabricReplaySpec spec;
  spec.workload = s.rungs[k.rung].workload;
  spec.cycles = kReplayCycles;
  spec.syncEvery = kReplayCycles;
  spec.threads = threads;
  spec.seed = k.seed;
  const std::uint64_t t0 = nowNs();
  cluster::FabricReplayResult res;
  {
    Span sp(tr, "replay.replayFabrics", "cluster");
    res = s.pool->replayFabrics(spec);
  }
  const double ns = static_cast<double>(nowNs() - t0);
  for (std::size_t d = 0; d < res.devices.size(); ++d) {
    if (res.devices[d].digest != k.replayDigest.at(d)) bad += kReplayCycles;
  }
  return ns;
}

// ---- direct layer timings (traced fabric_replay) -----------------------------

/// Per-cycle host time of each layer of a fabric_replay cycle on one rung,
/// in ns, each the median of kLayerReps direct loops over the rung's first
/// stimulus.
struct RungLayers {
  double portIo = 0, evaluate = 0, tick = 0, probeEvaluate = 0, batchLane = 0;
};

RungLayers timeRungLayers(Rung& r, const Key& k, ActivityProbe& probe,
                          obs::SpanTracer* tr) {
  constexpr double kPerCycle = 1.0 / static_cast<double>(kCycles);
  RungLayers t;
  LoadedCircuit lc(*r.dev, r.c);
  lc.applyInitialState();
  t.portIo = kPerCycle * medianSpanNs(tr, "port_io", "fabric", kLayerReps, [&] {
    for (std::size_t cyc = 0; cyc < kCycles; ++cyc) {
      for (const auto& [idx, name] : r.ports.inputs) lc.setInput(name, k.stim[cyc][idx]);
      for (const std::string& o : r.ports.outputs) (void)lc.output(o);
    }
  });
  t.evaluate = kPerCycle * medianSpanNs(tr, "fabric.evaluate", "fabric", kLayerReps, [&] {
    for (std::size_t cyc = 0; cyc < kCycles; ++cyc) lc.evaluate();
  });
  t.tick = kPerCycle * medianSpanNs(tr, "fabric.tick", "fabric", kLayerReps, [&] {
    for (std::size_t cyc = 0; cyc < kCycles; ++cyc) lc.tick();
  });
  r.dev->attachActivityProbe(&probe);
  t.probeEvaluate = kPerCycle * medianSpanNs(tr, "probe.evaluate", "fabric", kLayerReps, [&] {
    for (std::size_t cyc = 0; cyc < kCycles; ++cyc) lc.evaluate();
  });
  r.dev->attachActivityProbe(nullptr);

  auto program = compiled::levelizeDevice(*r.dev);
  if (program == nullptr) throw std::runtime_error(r.c.name + ": faulted");
  compiled::BatchEvaluator be(program);
  t.batchLane = kPerCycle / kLanes *
                medianSpanNs(tr, "batch.evaluate_tick", "compiled", kLayerReps, [&] {
                  for (std::size_t cyc = 0; cyc < kCycles; ++cyc) {
                    be.evaluate();
                    be.tick();
                  }
                });
  return t;
}

/// The 64-lane batch evaluator over rung `r`, lane l driven by the rung's
/// stimulus l (mod kStimuli), checked against the netlist reference of
/// every lane. Returns mismatched lane-cycles.
std::uint64_t checkBatch(const Setup& s, Rung& r, const std::vector<Key>& keys,
                         std::size_t rungIndex) {
  auto program = compiled::levelizeDevice(*r.dev);
  if (program == nullptr) throw std::runtime_error(r.c.name + ": faulted");
  compiled::BatchEvaluator be(program);
  const Elaboration& e = r.dev->elaboration();
  const std::uint16_t cols = s.profile.geometry.cols;
  for (std::size_t i = 0; i < r.c.ffSites.size(); ++i) {
    const CellSite site = r.c.ffSites[i];
    const auto cell = e.cellOfClb[site.y * cols + site.x];
    be.setFfWord(e.cells[static_cast<std::size_t>(cell)].ffIndex,
                 r.c.initialState[i] ? ~0ull : 0ull);
  }
  std::vector<const Key*> laneKey;
  for (const Key& k : keys) {
    if (k.rung == rungIndex) laneKey.push_back(&k);
  }
  std::uint64_t bad = 0;
  for (std::size_t cyc = 0; cyc < kCycles; ++cyc) {
    for (std::size_t in = 0; in < r.inSlots.size(); ++in) {
      std::uint64_t lanes = 0;
      for (unsigned l = 0; l < kLanes; ++l) {
        if (laneKey[l % laneKey.size()]->stim[cyc][r.ports.inputs[in].first]) lanes |= 1ull << l;
      }
      be.setPadInput(r.inSlots[in], lanes);
    }
    be.evaluate();
    std::uint64_t wrongLanes = 0;
    for (std::size_t o = 0; o < r.outSlots.size(); ++o) {
      std::uint64_t want = 0;
      for (unsigned l = 0; l < kLanes; ++l) {
        if ((laneKey[l % laneKey.size()]->ref[cyc][o / 64] >> (o % 64)) & 1) want |= 1ull << l;
      }
      wrongLanes |= be.padOutput(r.outSlots[o]) ^ want;
    }
    bad += static_cast<std::uint64_t>(__builtin_popcountll(wrongLanes));
    be.tick();
  }
  return bad;
}

}  // namespace

void runFabric(const RunConfig& cfg, Results& out) {
  const std::string& w = cfg.workload;
  const bool threaded = w == "fabric_threads";
  const unsigned threads = std::min<unsigned>(cfg.cpus, kReplayDevices);
  // Cycles (device-cycles for the threaded replay) one unit replays, all
  // of them checked (failed_frac's denominator).
  const std::uint64_t unitCycles =
      threaded ? kReplayCycles * kReplayDevices : kCycles;
  // Records a unit's mismatches; `what` names the pass.
  auto check = [&](std::uint64_t cycles, std::uint64_t bad, const char* what) {
    out.attempt(cycles);
    if (bad != 0) {
      out.fail(bad, w + ": " + what + " cycles differ from the netlist reference");
      out.gateFailed(w + ": " + what + " outputs differ from the netlist reference");
    }
  };
  std::vector<Key> keys = makeKeys(cfg.seed);
  auto unit = [&](Setup& s, const Key& k, obs::SpanTracer* tr, unsigned nThreads) {
    std::uint64_t bad = 0;
    const double ns = threaded ? replayUnit(s, k, nThreads, tr, bad)
                               : scalarUnit(s, k, tr, bad);
    check(unitCycles, bad, threaded ? "replayFabrics" : "scalar");
    return ns;
  };

  // Set-ups alternate with equal shares of the timed passes. After the
  // first, the netlist references are built (outside every timed interval)
  // and an untimed pass warms up; every timed unit is compared with them,
  // which also checks that the outputs repeat exactly, and the fingerprint
  // checks that the stimulus moves with the seed.
  const std::size_t passes =
      cfg.trace ? 0
                : passesFor(cfg.seconds,
                            threaded ? kNominalThreadsPassSec : kNominalReplayPassSec,
                            kSetupReps);
  obs::SpanTracer setupTracer;
  std::vector<double> setupS;
  std::unique_ptr<Setup> s;
  UnitTimes times(std::vector<double>(kKeys, static_cast<double>(unitCycles)));
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    setupTracer.clear();
    const double t0 = nowSec();
    s = buildSetup(threaded, cfg.trace ? &setupTracer : nullptr);
    setupS.push_back(nowSec() - t0);
    if (rep == 0) {
      if (threaded) {
        if (const std::uint64_t bad = buildReplayReference(*s, keys)) {
          out.gateFailed(w + ": interpretive replay differs from the netlist on " +
                         std::to_string(bad) + " cycles");
        }
      } else {
        buildScalarReference(*s, keys);
      }
      const std::uint64_t fp = stimulusFingerprint(*s, cfg.seed);
      if (stimulusFingerprint(*s, cfg.seed) != fp) {
        out.gateFailed(w + ": reference not deterministic");
      }
      if (stimulusFingerprint(*s, cfg.seed ^ 0x5eed) == fp) {
        out.gateFailed(w + ": reference does not depend on the seed");
      }
      for (const Key& k : keys) unit(*s, k, nullptr, threads);
    }
    for (std::size_t p = 0; p < passes / kSetupReps; ++p) {
      for (std::size_t i = 0; i < kKeys; ++i) times.add(i, unit(*s, keys[i], nullptr, threads));
    }
  }
  if (!cfg.trace) {
    times.report(out, median(setupS));
    std::fprintf(stderr, "%s: %zu units of %llu cycles timed\n", w.c_str(),
                 times.units(), static_cast<unsigned long long>(unitCycles));
    return;
  }

  // ---- traced run --------------------------------------------------------------
  SelfTimes setupSt;
  setupSt.add(setupTracer.spans());
  reportFlowPhases(setupSt, out);
  std::uint64_t iterations = 0, expanded = 0;
  for (const Rung& r : s->rungs) {
    iterations += static_cast<std::uint64_t>(r.c.routes.iterations);
    expanded += r.c.routes.nodesExpanded;
  }
  out.metric("route.iterations", static_cast<double>(iterations), "count");
  out.metric("route.nodes_expanded", static_cast<double>(expanded), "count");

  // Untraced and traced passes alternate (one span per unit); for the
  // threaded replay, one-thread and full-width passes alternate too.
  obs::SpanTracer tracer;
  std::vector<double> plain, traced, oneThread;
  const double nominalPass = threaded ? kNominalThreadsPassSec : kNominalReplayPassSec;
  const std::size_t rounds =
      passesFor(cfg.seconds, (threaded ? 3 : 2) * nominalPass, 1);
  auto pass = [&](obs::SpanTracer* tr, unsigned nThreads) {
    double ns = 0;
    for (const Key& k : keys) ns += unit(*s, k, tr, nThreads);
    return ns;
  };
  for (std::size_t round = 0; round < rounds; ++round) {
    plain.push_back(pass(nullptr, threads));
    traced.push_back(pass(&tracer, threads));
    if (threaded) oneThread.push_back(pass(nullptr, 1));
    if (round == 0) writeTrace(tracer, cfg.outDir, w);
    tracer.clear();
  }
  out.metric("trace.overhead_frac", median(traced) / median(plain) - 1, "ratio");
  out.metric("trace.overhead_base_ms", median(plain) / 1e6, "ms");

  // Direct calls on the ladder's own bitstreams: download + elaboration,
  // and levelization of the compiled program.
  std::vector<double> elabUs, buildUs;
  for (const Rung& r : s->rungs) {
    Device dev = s->profile.makeDevice();
    const Bitstream bs = r.c.fullBitstream();
    elabUs.push_back(medianSpanNs(&tracer, "fabric.elaborate", "fabric", 5, [&] {
                       dev.clearConfig();
                       dev.applyBitstream(bs);
                       (void)dev.elaboration();
                     }) / 1e3);
    buildUs.push_back(medianSpanNs(&tracer, "compiled.build", "compiled", 5,
                                   [&] { (void)compiled::levelizeDevice(dev); }) / 1e3);
  }
  out.metric("fabric.elaborate_us", median(elabUs), "us");
  out.metric("compiled.build_us", median(buildUs), "us");

  if (threaded) {
    writeTrace(tracer, cfg.outDir, w + "_direct");
    out.metric("replay.thread_scaling", median(oneThread) / median(plain), "ratio");
    const compiled::KernelCacheStats kc = s->pool->kernelCache().stats();
    out.metric("kernel_cache.hit_ratio",
               kc.lookups ? static_cast<double>(kc.hits) / kc.lookups : 0.0,
               "ratio");
    out.metric("bitstream_cache.hit_ratio", s->bitstreams->hitRate(), "ratio");
    // Engine counters are per replayFabrics call: read them off one call.
    cluster::FabricReplaySpec spec;
    spec.workload = s->rungs.front().workload;
    spec.cycles = kReplayCycles;
    spec.threads = threads;
    const cluster::FabricReplayResult res = s->pool->replayFabrics(spec);
    std::uint64_t compiledEvals = 0, fallbacks = 0, cycles = 0;
    for (const auto& d : res.devices) {
      compiledEvals += d.stats.compiledEvaluates;
      fallbacks += d.stats.fallbacks;
      cycles += d.cycles;
    }
    out.metric("compiled.serve_ratio",
               cycles ? static_cast<double>(compiledEvals) / cycles : 0.0,
               "ratio");
    out.metric("compiled.fallbacks", static_cast<double>(fallbacks), "count");
    return;
  }

  // Compiled serves over one checked pass (one evaluate per ticked cycle).
  struct EngineTotals {
    double compiledEvals = 0, fallbacks = 0, evalCalls = 0;
  };
  auto engineTotals = [&] {
    EngineTotals t;
    for (const Rung& r : s->rungs) {
      t.compiledEvals += static_cast<double>(r.engine->stats().compiledEvaluates);
      t.fallbacks += static_cast<double>(r.engine->stats().fallbacks);
      t.evalCalls += static_cast<double>(r.dev->cyclesTicked());
    }
    return t;
  };
  const EngineTotals before = engineTotals();
  pass(nullptr, threads);
  const EngineTotals after = engineTotals();
  out.metric("compiled.serve_ratio",
             (after.compiledEvals - before.compiledEvals) /
                 (after.evalCalls - before.evalCalls),
             "ratio");
  out.metric("compiled.fallbacks", after.fallbacks - before.fallbacks, "count");

  // The profiler's path, checked: one pass with an ActivityProbe attached.
  ActivityProbe probe;
  for (Rung& r : s->rungs) r.dev->attachActivityProbe(&probe);
  for (const Key& k : keys) {
    std::uint64_t bad = 0;
    scalarUnit(*s, k, nullptr, bad);
    check(kCycles, bad, "probed");
  }
  for (Rung& r : s->rungs) r.dev->attachActivityProbe(nullptr);
  // The 64-lane batch evaluator, checked lane by lane.
  for (std::size_t i = 0; i < kRungs; ++i) {
    check(kCycles * kLanes, checkBatch(*s, s->rungs[i], keys, i), "batch");
  }

  // Each layer of a cycle by direct calls over whole kCycles loops, per
  // rung: the name-based port I/O, Device::evaluate and tick (compiled fast
  // path), evaluate with the probe attached, and the batch evaluator.
  std::vector<RungLayers> layers;
  for (std::size_t i = 0; i < kRungs; ++i) {
    layers.push_back(timeRungLayers(s->rungs[i], keys[i], probe, &tracer));
  }
  writeTrace(tracer, cfg.outDir, w + "_layers");
  auto mean = [&](double RungLayers::*field, std::size_t from, std::size_t to) {
    double sum = 0;
    for (std::size_t i = from; i < to; ++i) sum += layers[i].*field;
    return sum / static_cast<double>(to - from);
  };
  auto portShare = [&](std::size_t from, std::size_t to) {
    const double io = mean(&RungLayers::portIo, from, to);
    return io / (io + mean(&RungLayers::evaluate, from, to) +
                 mean(&RungLayers::tick, from, to));
  };
  out.metric("fabric.evaluate_ns", mean(&RungLayers::evaluate, 0, kRungs), "ns");
  out.metric("fabric.tick_ns", mean(&RungLayers::tick, 0, kRungs), "ns");
  out.metric("port_io.ns", mean(&RungLayers::portIo, 0, kRungs), "ns");
  out.metric("port_io.share_small", portShare(0, kEndRungs), "ratio");
  out.metric("port_io.share_large", portShare(kRungs - kEndRungs, kRungs), "ratio");
  out.metric("probe.evaluate_ns", mean(&RungLayers::probeEvaluate, 0, kRungs), "ns");
  out.metric("batch.lane_ns", mean(&RungLayers::batchLane, 0, kRungs), "ns");
  for (std::size_t i = 0; i < kRungs; ++i) {
    std::fprintf(stderr,
                 "%-11s per cycle: port_io %7.1f ns  evaluate %7.1f ns  tick %6.1f ns  "
                 "probed evaluate %8.1f ns  batch %5.2f ns/lane\n",
                 kLadder[i], layers[i].portIo, layers[i].evaluate, layers[i].tick,
                 layers[i].probeEvaluate, layers[i].batchLane);
  }
}

}  // namespace perfbench
