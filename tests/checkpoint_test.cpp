// Durable checkpoint/restart tests: on-disk format guards (byte-wise
// payload CRC, inner register CRC, slot-parity stale-generation detection,
// double-buffered generation fallback), kernel death + restore (same
// kernel instance gone, fresh kernel re-admits from disk), bit-exactness
// of a restored task against an uninterrupted reference (same strip,
// relocated strip, different device), congruence-violation rejection,
// contention-aware scrub deferral, residency fault classes in the
// technique managers, the FT007-FT009 / CK001-CK005 lint rules, and
// cluster re-admission through submitFromCheckpoint.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/equiv/verify.hpp"
#include "analysis/fault_lint.hpp"
#include "cluster/scheduler.hpp"
#include "compile/compiler.hpp"
#include "compile/loaded_circuit.hpp"
#include "core/os_kernel.hpp"
#include "core/overlay_manager.hpp"
#include "core/page_manager.hpp"
#include "core/segment_manager.hpp"
#include "fabric/device_family.hpp"
#include "fabric/bitstream.hpp"
#include "fault/checkpoint.hpp"
#include "fault/fault_plan.hpp"
#include "fault/recovery.hpp"
#include "netlist/library/coding.hpp"
#include "netlist/library/control.hpp"
#include "netlist/library/datapath.hpp"
#include "sim/rng.hpp"

namespace vfpga {
namespace {

Netlist named(Netlist nl, const char* name) {
  nl.setName(name);
  return nl;
}

std::string tempDir(const char* tag) {
  const std::string dir =
      ::testing::TempDir() + "/vfpga_ck_" + tag + "_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

std::vector<char> readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void writeFile(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// "VFCK" + u16 version + u64 generation + u32 payloadLen.
constexpr std::size_t kHeader = 18;

/// Reference CRC-16/CCITT-FALSE over dense bytes (must match the store's
/// payload seal so tests can re-seal a tampered payload).
std::uint16_t refCrc16(const std::uint8_t* p, std::size_t n) {
  std::uint16_t crc = 0xFFFF;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= static_cast<std::uint16_t>(std::uint16_t{p[i]} << 8);
    for (int b = 0; b < 8; ++b) {
      crc = (crc & 0x8000) != 0
                ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                : static_cast<std::uint16_t>(crc << 1);
    }
  }
  return crc;
}

fault::TaskCheckpoint sampleCheckpoint() {
  fault::TaskCheckpoint ck;
  ck.task = "sample";
  ck.priority = -3;
  ck.device = "12x12";
  ck.placementX0 = 4;
  ck.placementWidth = 4;
  fault::CheckpointOp fpga;
  fpga.isFpga = true;
  fpga.config = "count";
  fpga.configWidth = 4;
  fpga.cycles = 1234;
  fault::CheckpointOp cpu;
  cpu.isFpga = false;
  cpu.cpuNs = micros(30);
  ck.ops = {fpga, cpu};
  ck.registers = {true, false, true, true, false, false, true, false, true};
  ck.overlayResidency = {1, 2};
  ck.segmentResidency = {7};
  ck.pageResidency = {(3u << 16) | 1u, (3u << 16) | 2u};
  ck.ioBindings = {"q0=p3", "q1=p4"};
  return ck;
}

// ---- on-disk format --------------------------------------------------------

TEST(CheckpointFormat, SharedCrcCoresMatchIndependentReference) {
  Rng rng(42);
  for (std::size_t n : {0u, 1u, 2u, 9u, 64u, 257u}) {
    std::vector<std::uint8_t> bytes(n);
    for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(crc16Bytes(bytes), refCrc16(bytes.data(), bytes.size()));

    // The saved-FF-state CRC is the bit CRC over the same 0/1 sequence.
    std::vector<bool> state(n);
    std::vector<std::uint8_t> stateBits(n);
    for (std::size_t i = 0; i < n; ++i) {
      state[i] = (bytes[i] & 1) != 0;
      stateBits[i] = bytes[i] & 1;
    }
    EXPECT_EQ(fault::stateCrc(state), crc16Bits(stateBits));
  }
}

TEST(CheckpointFormat, EncodeDecodeRoundTrip) {
  const fault::TaskCheckpoint ck = sampleCheckpoint();
  const auto bytes = fault::encodeCheckpoint(ck, 5);
  const fault::DecodeResult r = fault::decodeCheckpoint(bytes);
  ASSERT_TRUE(r.ok) << r.diagnostic;
  EXPECT_EQ(r.generation, 5u);
  EXPECT_EQ(r.version, fault::kCheckpointVersion);
  EXPECT_EQ(r.checkpoint.task, ck.task);
  EXPECT_EQ(r.checkpoint.priority, ck.priority);
  EXPECT_EQ(r.checkpoint.device, ck.device);
  EXPECT_EQ(r.checkpoint.placementX0, ck.placementX0);
  EXPECT_EQ(r.checkpoint.placementWidth, ck.placementWidth);
  ASSERT_EQ(r.checkpoint.ops.size(), 2u);
  EXPECT_TRUE(r.checkpoint.ops[0].isFpga);
  EXPECT_EQ(r.checkpoint.ops[0].config, "count");
  EXPECT_EQ(r.checkpoint.ops[0].configWidth, 4);
  EXPECT_EQ(r.checkpoint.ops[0].cycles, 1234u);
  EXPECT_FALSE(r.checkpoint.ops[1].isFpga);
  EXPECT_EQ(r.checkpoint.ops[1].cpuNs, micros(30));
  EXPECT_EQ(r.checkpoint.registers, ck.registers);
  EXPECT_EQ(r.checkpoint.overlayResidency, ck.overlayResidency);
  EXPECT_EQ(r.checkpoint.segmentResidency, ck.segmentResidency);
  EXPECT_EQ(r.checkpoint.pageResidency, ck.pageResidency);
  EXPECT_EQ(r.checkpoint.ioBindings, ck.ioBindings);
}

/// Regression: the payload CRC must be byte-wise. The fabric's frame CRC
/// consumes 0/1 bit streams and reduces each byte to nonzero-vs-zero —
/// sealing the payload with it let any flip that kept a byte nonzero
/// (e.g. 'x' -> '8' inside a circuit name) pass validation.
TEST(CheckpointFormat, SingleBitRotInNonzeroByteIsRejected) {
  auto bytes = fault::encodeCheckpoint(sampleCheckpoint(), 1);
  // Flip bit 6 of every payload byte in turn; each variant must fail.
  int nonzeroBefore = 0;
  for (std::size_t i = kHeader; i < bytes.size() - 2; ++i) {
    auto rotted = bytes;
    rotted[i] ^= 0x40;
    if (bytes[i] != 0 && rotted[i] != 0) ++nonzeroBefore;
    const fault::DecodeResult r = fault::decodeCheckpoint(rotted);
    EXPECT_FALSE(r.ok) << "flip at payload byte " << i << " not caught";
    EXPECT_FALSE(r.payloadCrcOk);
  }
  // The regression is only meaningful if nonzero->nonzero flips occurred.
  EXPECT_GT(nonzeroBefore, 0);
}

TEST(CheckpointFormat, TruncationIsRejected) {
  const auto bytes = fault::encodeCheckpoint(sampleCheckpoint(), 1);
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() / 2, kHeader, std::size_t{3}}) {
    auto cut = bytes;
    cut.resize(keep);
    const fault::DecodeResult r = fault::decodeCheckpoint(cut);
    EXPECT_FALSE(r.ok) << "truncation to " << keep << " bytes not caught";
    EXPECT_FALSE(r.diagnostic.empty());
  }
}

TEST(CheckpointFormat, UnsupportedVersionIsRejected) {
  auto bytes = fault::encodeCheckpoint(sampleCheckpoint(), 1);
  bytes[4] = static_cast<std::uint8_t>(fault::kCheckpointVersion + 1);
  const fault::DecodeResult r = fault::decodeCheckpoint(bytes);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.magicOk);
  EXPECT_FALSE(r.versionSupported);
}

/// Targeted register rot with a re-sealed outer CRC must still be caught
/// by the snapshot's own CRC (defense in depth for the state bits).
TEST(CheckpointFormat, InnerStateCrcGuardsRegisterRot) {
  fault::TaskCheckpoint ck;
  ck.task = "t";
  ck.registers = {true, false, true, false, true, false, true, false,
                  true};
  auto bytes = fault::encodeCheckpoint(ck, 1);
  // Payload layout with no device/ops: task(4+1) priority(8) device(4)
  // placement(2+2) opCount(4) -> register bit count at 25, bits at 29.
  const std::size_t regByte = kHeader + 29;
  ASSERT_LT(regByte, bytes.size() - 2);
  bytes[regByte] ^= 0x05;  // flip two register bits
  const std::uint16_t crc =
      refCrc16(bytes.data() + kHeader, bytes.size() - kHeader - 2);
  bytes[bytes.size() - 2] = static_cast<std::uint8_t>(crc & 0xff);
  bytes[bytes.size() - 1] = static_cast<std::uint8_t>(crc >> 8);
  const fault::DecodeResult r = fault::decodeCheckpoint(bytes);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.payloadCrcOk);  // the outer seal was legitimately redone
  EXPECT_FALSE(r.stateCrcOk);   // ...but the snapshot's own CRC catches it
}

// ---- double-buffered store -------------------------------------------------

TEST(CheckpointStore, FallsBackPastRottenNewestGeneration) {
  fault::CheckpointStore store(tempDir("fallback"));
  fault::TaskCheckpoint ck = sampleCheckpoint();
  store.write(ck);  // generation 1 -> slot 1
  ck.ops[0].cycles = 99;
  const auto w2 = store.write(ck);  // generation 2 -> slot 0
  EXPECT_EQ(w2.generation, 2u);
  auto bytes = readFile(w2.path);
  bytes[kHeader + bytes.size() / 2] ^= 0x10;
  writeFile(w2.path, bytes);

  const auto lr = store.load(ck.task);
  ASSERT_TRUE(lr.ok) << lr.diagnostic;
  EXPECT_EQ(lr.generation, 1u);
  EXPECT_TRUE(lr.fellBack);
  EXPECT_EQ(lr.corruptSlots, 1u);
  EXPECT_EQ(lr.checkpoint.ops[0].cycles, 1234u);  // the *old* content
  EXPECT_EQ(store.stats().fallbacks, 1u);
}

TEST(CheckpointStore, StaleGenerationRestampViolatesSlotParity) {
  fault::CheckpointStore store(tempDir("stale"));
  const fault::TaskCheckpoint ck = sampleCheckpoint();
  store.write(ck);
  const auto w2 = store.write(ck);
  // Re-stamp generation 2 (slot 0) as generation 3: slot 0 may only hold
  // even generations, so the forged header is detected without any CRC.
  auto bytes = readFile(w2.path);
  bytes[6] = 3;
  for (int i = 1; i < 8; ++i) bytes[6 + i] = 0;
  writeFile(w2.path, bytes);

  const auto lr = store.load(ck.task);
  ASSERT_TRUE(lr.ok);
  EXPECT_EQ(lr.generation, 1u);
  EXPECT_TRUE(lr.fellBack);
  ASSERT_EQ(lr.slotDiagnostics.size(), 1u);
  EXPECT_NE(lr.slotDiagnostics[0].find("stale generation"),
            std::string::npos);
}

TEST(CheckpointStore, BothSlotsBadIsACleanDiagnosedFailure) {
  fault::CheckpointStore store(tempDir("bothbad"));
  const fault::TaskCheckpoint ck = sampleCheckpoint();
  store.write(ck);
  store.write(ck);
  for (const std::string& path : store.slotPaths(ck.task)) {
    auto bytes = readFile(path);
    bytes.resize(bytes.size() / 3);
    writeFile(path, bytes);
  }
  const auto lr = store.load(ck.task);
  EXPECT_FALSE(lr.ok);
  EXPECT_EQ(lr.corruptSlots, 2u);
  EXPECT_NE(lr.diagnostic.find("no intact checkpoint"), std::string::npos);
  EXPECT_EQ(store.stats().failedLoads, 1u);
}

TEST(CheckpointStore, GenerationNumberingSurvivesRestart) {
  const std::string dir = tempDir("restart");
  const fault::TaskCheckpoint ck = sampleCheckpoint();
  {
    fault::CheckpointStore store(dir);
    EXPECT_EQ(store.write(ck).generation, 1u);
    EXPECT_EQ(store.write(ck).generation, 2u);
  }
  // A fresh store (fresh process) must continue numbering, not restart at
  // 1 — otherwise a restore could pick a pre-crash generation as newest.
  fault::CheckpointStore store(dir);
  EXPECT_EQ(store.write(ck).generation, 3u);
  const auto lr = store.load(ck.task);
  ASSERT_TRUE(lr.ok);
  EXPECT_EQ(lr.generation, 3u);
  EXPECT_EQ(store.taskNames(), std::vector<std::string>{"sample"});
}

TEST(CheckpointStore, TaskNamesAreSanitizedIntoFileStems) {
  fault::CheckpointStore store(tempDir("sanitize"));
  fault::TaskCheckpoint ck = sampleCheckpoint();
  ck.task = "../evil/task";
  const auto wr = store.write(ck);
  // Slashes are neutralized, so the file may not escape the store
  // directory ("..": still a legal filename prefix, not traversal).
  const std::filesystem::path p(wr.path);
  EXPECT_EQ(p.filename().string().find('/'), std::string::npos);
  EXPECT_EQ(std::filesystem::weakly_canonical(p.parent_path()),
            std::filesystem::weakly_canonical(store.dir()));
  EXPECT_EQ(store.taskNames(), std::vector<std::string>{".._evil_task"});
}

// ---- kernel death and restore ----------------------------------------------

struct KernelEnv {
  Device dev;
  ConfigPort port;
  Compiler compiler;
  explicit KernelEnv(const DeviceProfile& prof)
      : dev(prof.makeDevice()), port(dev, prof.port), compiler(dev) {}
};

std::vector<ConfigId> registerThree(OsKernel& kernel, Compiler& compiler,
                                    Device& dev) {
  const Region strip = Region::columns(dev.geometry(), 0, 4);
  return {
      kernel.registerConfig(
          compiler.compile(named(lib::makeCounter(6), "count"), strip)),
      kernel.registerConfig(
          compiler.compile(named(lib::makeChecksum(6), "csum"), strip)),
      kernel.registerConfig(
          compiler.compile(named(lib::makeLfsr(8, 0b10111000), "lfsr"),
                           strip)),
  };
}

TaskSpec checkpointTask(std::size_t i, ConfigId cfg) {
  TaskSpec t;
  t.name = "ck" + std::to_string(i);
  t.arrival = static_cast<SimTime>(i) * micros(100);
  t.ops = {CpuBurst{micros(20)}, FpgaExec{cfg, 20000 + 4000 * i},
           CpuBurst{micros(10)}};
  return t;
}

OsOptions checkpointOptions(const std::string& dir) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedVariable;
  opt.ft.checkpointDir = dir;
  opt.ft.checkpointInterval = micros(150);
  return opt;
}

/// Kernel death mid-campaign (no finalize, object destroyed), then a
/// fresh kernel on the same directory restores every task and finishes
/// them all — the post-kernel-restart survival path.
TEST(KernelCheckpoint, SurvivesKernelDeathViaRestore) {
  const std::string dir = tempDir("kernel");
  const OsOptions opt = checkpointOptions(dir);
  {
    KernelEnv env(mediumPartialProfile());
    Simulation sim;
    OsKernel kernel(sim, env.dev, env.port, env.compiler, opt);
    const auto cfgs = registerThree(kernel, env.compiler, env.dev);
    for (std::size_t i = 0; i < 4; ++i) {
      kernel.addTask(checkpointTask(i, cfgs[i % 3]));
    }
    kernel.start();
    while (sim.step() && sim.now() < micros(600)) {
    }
    // Kernel dies here: scope exit without finalize().
  }

  KernelEnv env(mediumPartialProfile());
  Simulation sim;
  OsKernel kernel(sim, env.dev, env.port, env.compiler, opt);
  registerThree(kernel, env.compiler, env.dev);
  fault::CheckpointStore* store = kernel.checkpointStore();
  ASSERT_NE(store, nullptr);
  const std::vector<std::string> names = store->taskNames();
  ASSERT_FALSE(names.empty());
  std::size_t restored = 0;
  for (const std::string& task : names) {
    const auto lr = store->load(task);
    ASSERT_TRUE(lr.ok) << lr.diagnostic;
    kernel.restoreTask(lr.checkpoint);
    ++restored;
  }
  kernel.run();
  kernel.checkInvariants();
  ASSERT_EQ(kernel.tasks().size(), restored);
  for (const TaskRuntime& t : kernel.tasks()) {
    EXPECT_EQ(t.state, TaskState::kDone) << t.spec.name;
    EXPECT_EQ(t.restores, 1u);
  }
  const std::uint64_t metricRestores =
      kernel.metricsRegistry()
          .counter("vfpga_fault_checkpoint_restores_total",
                   {{"policy", fpgaPolicyName(opt.policy)}}, "")
          .value();
  EXPECT_EQ(metricRestores, restored);
}

TEST(KernelCheckpoint, ParkAndPreemptWriteCheckpoints) {
  const std::string dir = tempDir("park");
  OsOptions opt = checkpointOptions(dir);
  opt.ft.checkpointInterval = 0;  // only park/preempt writes
  opt.ft.watchdogFactor = 4.0;
  opt.ft.watchdogTripLimit = 1;
  fault::FaultPlanSpec spec;
  spec.seed = 3;
  spec.execHangRate = 1.0;  // every execution hangs -> watchdog parks
  fault::FaultPlan plan(spec);
  opt.ft.plan = &plan;

  KernelEnv env(mediumPartialProfile());
  Simulation sim;
  OsKernel kernel(sim, env.dev, env.port, env.compiler, opt);
  const auto cfgs = registerThree(kernel, env.compiler, env.dev);
  kernel.addTask(checkpointTask(0, cfgs[0]));
  kernel.run();
  ASSERT_EQ(kernel.tasks()[0].state, TaskState::kParked);
  // The park left a durable checkpoint behind (preempt + park reasons).
  EXPECT_GT(kernel.tasks()[0].checkpoints, 0u);
  EXPECT_GT(kernel.tasks()[0].checkpointedBytes, 0u);
  const auto lr = kernel.checkpointStore()->load("ck0");
  ASSERT_TRUE(lr.ok) << lr.diagnostic;
  EXPECT_FALSE(lr.checkpoint.ops.empty());
}

TEST(KernelCheckpoint, CongruenceViolationIsDiagnosedNotSilent) {
  KernelEnv env(mediumPartialProfile());
  Simulation sim;
  OsKernel kernel(sim, env.dev, env.port, env.compiler,
                  checkpointOptions(tempDir("congruence")));
  registerThree(kernel, env.compiler, env.dev);

  fault::TaskCheckpoint unknown;
  unknown.task = "ghost";
  fault::CheckpointOp op;
  op.isFpga = true;
  op.config = "not_registered";
  op.configWidth = 4;
  op.cycles = 10;
  unknown.ops = {op};
  EXPECT_THROW(kernel.restoreTask(unknown), std::runtime_error);

  fault::TaskCheckpoint wrongWidth = unknown;
  wrongWidth.task = "wide";
  wrongWidth.ops[0].config = "count";  // registered, but at width 4
  wrongWidth.ops[0].configWidth = 6;
  EXPECT_THROW(kernel.restoreTask(wrongWidth), std::runtime_error);
  EXPECT_TRUE(kernel.tasks().empty());  // neither task was admitted
}

/// A restored register snapshot must continue bit-exactly: same strip,
/// relocated strip, and a different (congruent) device all have to match
/// an uninterrupted reference register for register.
TEST(KernelCheckpoint, RestoredCounterIsBitExactEverywhere) {
  const DeviceProfile prof = mediumPartialProfile();
  auto clock = [](LoadedCircuit& lc, int cycles) {
    lc.setInput("en", true);
    lc.setInput("clr", false);
    for (int i = 0; i < cycles; ++i) {
      lc.evaluate();
      lc.tick();
    }
    lc.evaluate();
  };

  Device devA = prof.makeDevice();
  Compiler ca(devA);
  const CompiledCircuit cc =
      ca.compile(named(lib::makeCounter(6), "bx"),
                 Region::columns(devA.geometry(), 0, 4));
  devA.applyBitstream(cc.fullBitstream());
  LoadedCircuit la(devA, cc);
  la.applyInitialState();
  clock(la, 23);

  // Durable round trip: what a restore actually gets back.
  fault::CheckpointStore store(tempDir("bitexact"));
  fault::TaskCheckpoint ck;
  ck.task = "bx";
  ck.registers = la.saveState();
  store.write(ck);
  const auto lr = store.load("bx");
  ASSERT_TRUE(lr.ok);

  // Uninterrupted reference.
  Device devR = prof.makeDevice();
  devR.applyBitstream(cc.fullBitstream());
  LoadedCircuit lref(devR, cc);
  lref.applyInitialState();
  clock(lref, 64);

  // Same strip, same device profile (a restarted kernel on the machine).
  {
    Device dev = prof.makeDevice();
    dev.applyBitstream(cc.fullBitstream());
    LoadedCircuit lb(dev, cc);
    lb.restoreState(lr.checkpoint.registers);
    clock(lb, 41);
    EXPECT_EQ(lb.saveState(), lref.saveState());
    EXPECT_EQ(lb.outputBus("q", 6), lref.outputBus("q", 6));
  }
  // Relocated strip on a fresh device (repaired / congruent target), with
  // the equivalence proof a kernel restore performs before state writeback.
  {
    Device dev = prof.makeDevice();
    Compiler cb(dev);
    const CompiledCircuit cr = cb.relocate(cc, 5);
    dev.applyBitstream(cr.fullBitstream());
    ASSERT_NO_THROW(analysis::equiv::verifyConfiguredOrThrow(
        dev, cr, "checkpoint restore test"));
    LoadedCircuit lb(dev, cr);
    lb.restoreState(lr.checkpoint.registers);
    clock(lb, 41);
    EXPECT_EQ(lb.saveState(), lref.saveState());
    EXPECT_EQ(lb.outputBus("q", 6), lref.outputBus("q", 6));
  }
}

// ---- contention-aware scrubbing --------------------------------------------

TEST(KernelCheckpoint, ScrubDefersWhileConfigPortBusy) {
  fault::FaultPlanSpec spec;
  spec.seed = 5;
  spec.meanUpsetsPerScrub = 0.5;
  fault::FaultPlan plan(spec);
  KernelEnv env(mediumPartialProfile());
  Simulation sim;
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedVariable;
  opt.ft.plan = &plan;
  // Scrub far more often than a download completes: ticks must land while
  // the port is busy and be deferred instead of stealing bandwidth.
  opt.ft.scrubInterval = micros(20);
  OsKernel kernel(sim, env.dev, env.port, env.compiler, opt);
  const auto cfgs = registerThree(kernel, env.compiler, env.dev);
  for (std::size_t i = 0; i < 4; ++i) {
    kernel.addTask(checkpointTask(i, cfgs[i % 3]));
  }
  kernel.run();
  const auto counter = [&](const char* name) {
    return kernel.metricsRegistry()
        .counter(name, {{"policy", fpgaPolicyName(opt.policy)}}, "")
        .value();
  };
  EXPECT_GT(counter("vfpga_fault_scrub_deferred_total"), 0u);
  EXPECT_GT(counter("vfpga_fault_scrub_runs_total"), 0u);
  for (const TaskRuntime& t : kernel.tasks()) {
    EXPECT_EQ(t.state, TaskState::kDone) << t.spec.name;
  }
}

// ---- technique-manager residency fault classes -----------------------------

TEST(ManagerFaults, OverlayStaleReuseDetectedWithVerification) {
  fault::FaultPlanSpec spec;
  spec.seed = 9;
  spec.overlayStaleReuseRate = 0.5;
  fault::FaultPlan plan(spec);
  const DeviceProfile prof = mediumPartialProfile();
  for (const bool verify : {true, false}) {
    Device dev = prof.makeDevice();
    ConfigPort port(dev, prof.port);
    Compiler compiler(dev);
    OverlayManager om(dev, port, compiler, 4);
    om.setFaultPlan(&plan, verify);
    om.installResident(
        compiler.compile(named(lib::makeChecksum(6), "ov_common"),
                         Region::columns(dev.geometry(), 0, 4)));
    const OverlayId o = om.addOverlay(
        compiler.compile(named(lib::makeCounter(6), "ov_f"),
                         Region::columns(dev.geometry(), 0, 4)));
    for (int i = 0; i < 20; ++i) om.invoke(o);
    if (verify) {
      EXPECT_GT(om.staleReusesDetected(), 0u);
      EXPECT_EQ(om.silentStaleReuses(), 0u);
    } else {
      EXPECT_GT(om.silentStaleReuses(), 0u);
      EXPECT_EQ(om.staleReusesDetected(), 0u);
    }
  }
}

TEST(ManagerFaults, SegmentTableCorruptionDetectedWithVerification) {
  fault::FaultPlanSpec spec;
  spec.seed = 9;
  spec.segmentTableCorruptRate = 0.5;
  fault::FaultPlan plan(spec);
  const DeviceProfile prof = mediumPartialProfile();
  for (const bool verify : {true, false}) {
    Device dev = prof.makeDevice();
    ConfigPort port(dev, prof.port);
    Compiler compiler(dev);
    SegmentManager sm(dev, port, compiler, ReplacementPolicy::kLru);
    sm.setFaultPlan(&plan, verify);
    std::vector<SegmentId> segs;
    for (int i = 0; i < 2; ++i) {
      segs.push_back(sm.addSegment(compiler.compile(
          named(lib::makeCounter(6),
                ("sg" + std::to_string(i)).c_str()),
          Region::columns(dev.geometry(), 0, 5))));
    }
    for (int i = 0; i < 20; ++i) sm.access(segs[i % 2]);
    if (verify) {
      EXPECT_GT(sm.tableCorruptionsDetected(), 0u);
      EXPECT_EQ(sm.silentTableCorruptions(), 0u);
    } else {
      EXPECT_GT(sm.silentTableCorruptions(), 0u);
      EXPECT_EQ(sm.tableCorruptionsDetected(), 0u);
    }
  }
}

TEST(ManagerFaults, PageResidencyLossDetectedWithVerification) {
  fault::FaultPlanSpec spec;
  spec.seed = 9;
  spec.pageResidencyLossRate = 0.5;
  fault::FaultPlan plan(spec);
  const DeviceProfile prof = mediumPartialProfile();
  for (const bool verify : {true, false}) {
    PageManager pm(prof.port, 128, PageManagerOptions{4, 16});
    pm.setFaultPlan(&plan, verify);
    const ConfigId f = pm.addFunction(10);
    for (int i = 0; i < 20; ++i) pm.access(f);
    if (verify) {
      EXPECT_GT(pm.residencyLossesDetected(), 0u);
      EXPECT_EQ(pm.silentResidencyLosses(), 0u);
    } else {
      EXPECT_GT(pm.silentResidencyLosses(), 0u);
      EXPECT_EQ(pm.residencyLossesDetected(), 0u);
    }
  }
}

// ---- lint rules ------------------------------------------------------------

bool hasRule(const analysis::Report& rep, const char* rule) {
  for (const auto& d : rep.diagnostics()) {
    if (d.rule == rule) return true;
  }
  return false;
}

TEST(FaultLint, ResidencyFaultsWithoutVerificationFireFt007To009) {
  analysis::FaultToleranceProfile p;
  p.overlayStaleReuseRate = 0.2;
  p.segmentTableCorruptRate = 0.2;
  p.pageResidencyLossRate = 0.2;
  p.verifyResidency = false;
  analysis::Report rep;
  analysis::lintFaultTolerance(p, rep);
  EXPECT_TRUE(hasRule(rep, "FT007"));
  EXPECT_TRUE(hasRule(rep, "FT008"));
  EXPECT_TRUE(hasRule(rep, "FT009"));

  p.verifyResidency = true;
  analysis::Report clean;
  analysis::lintFaultTolerance(p, clean);
  EXPECT_FALSE(hasRule(clean, "FT007"));
  EXPECT_FALSE(hasRule(clean, "FT008"));
  EXPECT_FALSE(hasRule(clean, "FT009"));
}

TEST(FaultLint, CheckpointVerdictsMapToCkRules) {
  struct Case {
    const char* rule;
    analysis::CheckpointProfile p;
  };
  std::vector<Case> cases(5);
  cases[0].rule = "CK001";
  cases[0].p.magicOk = false;
  cases[1].rule = "CK002";
  cases[1].p.payloadCrcOk = false;
  cases[2].rule = "CK003";
  cases[2].p.stateCrcOk = false;
  cases[3].rule = "CK004";
  cases[3].p.stateBits = 6;
  cases[3].p.expectedStateBits = 9;
  cases[4].rule = "CK005";
  cases[4].p.generationParityOk = false;
  for (const Case& c : cases) {
    analysis::Report rep;
    analysis::lintCheckpoint(c.p, rep);
    EXPECT_TRUE(hasRule(rep, c.rule)) << c.rule;
    EXPECT_FALSE(rep.ok()) << c.rule;
  }
  analysis::Report clean;
  analysis::lintCheckpoint(analysis::CheckpointProfile{}, clean);
  EXPECT_TRUE(clean.ok());
}

// ---- cluster re-admission --------------------------------------------------

TEST(ClusterCheckpoint, SubmitFromCheckpointCompletesOnAnyDevice) {
  Simulation sim;
  cluster::BitstreamCache cache(8);
  std::vector<cluster::DeviceNodeSpec> specs(2);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "dev" + std::to_string(i);
    specs[i].profile = mediumPartialProfile();
  }
  cluster::DevicePool pool(sim, specs, cache);
  pool.registerWorkload("count", named(lib::makeCounter(6), "count"), 4);
  cluster::ClusterOptions copt;
  cluster::ClusterScheduler sched(sim, pool, copt);

  fault::TaskCheckpoint ck;
  ck.task = "revived";
  ck.priority = 1;
  fault::CheckpointOp op;
  op.isFpga = true;
  op.config = "count";
  op.configWidth = 4;
  op.cycles = 8000;
  ck.ops = {op};
  ck.registers = std::vector<bool>(9, true);

  // Unknown circuit and incongruent width are diagnosed rejections.
  fault::TaskCheckpoint ghost = ck;
  ghost.ops[0].config = "missing";
  EXPECT_THROW(sched.submitFromCheckpoint(ghost, 0), std::runtime_error);
  fault::TaskCheckpoint wide = ck;
  wide.ops[0].configWidth = 6;
  EXPECT_THROW(sched.submitFromCheckpoint(wide, 0), std::runtime_error);

  sched.submitFromCheckpoint(ck, micros(10));
  sched.run();
  ASSERT_EQ(sched.outcomes().size(), 1u);
  const cluster::ClusterJobOutcome& out = sched.outcomes()[0];
  EXPECT_EQ(out.name, "revived");
  EXPECT_TRUE(out.admitted);
  EXPECT_TRUE(out.completed);
  EXPECT_FALSE(out.device.empty());
  EXPECT_TRUE(sched.summary().slosMet);
}

}  // namespace
}  // namespace vfpga
