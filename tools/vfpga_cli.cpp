// vfpga_cli — command-line front end to the library. Run it with no
// arguments for the command list (kCommands, near main, is the one place
// commands are declared).
//
// Exit codes: 0 success, 1 findings / runtime errors, 2 usage,
// 3 export or validation failure. The same codes apply to every command
// (lint --json and trace --validate return 3 on export/validation
// failure, 1 on findings).
#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "analysis/cluster_lint.hpp"
#include "analysis/compiled_lint.hpp"
#include "analysis/equiv/verify.hpp"
#include "analysis/fault_lint.hpp"
#include "analysis/flow_lint.hpp"
#include "analysis/monitor_lint.hpp"
#include "analysis/netlist_lint.hpp"
#include "analysis/timing_lint/timing_lint.hpp"
#include "cluster/scheduler.hpp"
#include "fault/fault_plan.hpp"
#include "compile/compiler.hpp"
#include "compile/loaded_circuit.hpp"
#include "core/dynamic_loader.hpp"
#include "core/io_mux.hpp"
#include "core/obs_bridge.hpp"
#include "core/os_kernel.hpp"
#include "core/overlay_manager.hpp"
#include "core/page_manager.hpp"
#include "core/partition_manager.hpp"
#include "core/prefetch_loader.hpp"
#include "core/segment_manager.hpp"
#include "fabric/device_family.hpp"
#include "fabric/sta.hpp"
#include "fabric/vcd.hpp"
#include "netlist/library/coding.hpp"
#include "netlist/library/control.hpp"
#include "netlist/library/datapath.hpp"
#include "netlist/optimize.hpp"
#include "netlist/text_io.hpp"
#include "obs/exporters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/heatmap.hpp"
#include "obs/json.hpp"
#include "obs/monitor/dashboard.hpp"
#include "obs/output_dir.hpp"
#include "obs/profile/flamegraph.hpp"
#include "obs/profile/waterfall.hpp"
#include "obs/stream.hpp"
#include "sim/compiled/compiled_fabric.hpp"
#include "sim/compiled/oracle.hpp"
#include "sim/rng.hpp"
#include "workloads/app_circuits.hpp"
#include "workloads/compile_suite.hpp"

using namespace vfpga;
using workloads::AppCircuit;

namespace {

/// printf's %llu argument.
unsigned long long ull(std::uint64_t v) { return v; }

/// A malformed command line: main reports it and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The one numeric-option parser: a plain decimal number (no sign, no
/// whitespace, nothing trailing) no greater than `max`; anything else is a
/// UsageError naming `what`.
template <typename T>
T parseNumber(const std::string& what, const std::string& text, T max) {
  T v{};
  const char* end = text.data() + text.size();
  const bool plain =
      !text.empty() && (std::isdigit(static_cast<unsigned char>(text[0])) ||
                        text[0] == '.');
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (plain && ec == std::errc{} && stop == end && v <= max) return v;
  std::string expected = "an unsigned number";
  if constexpr (std::is_integral_v<T>) {
    expected = "an unsigned integer <= " + std::to_string(max);
  }
  throw UsageError(what + ": expected " + expected + ", got '" + text + "'");
}

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  bool has(const std::string& k) const { return options.count(k) != 0; }
  std::string get(const std::string& k, const std::string& dflt = "") const {
    auto it = options.find(k);
    return it == options.end() ? dflt : it->second;
  }
  /// Numeric option --k: `dflt` when absent, else parseNumber's verdict
  /// (the destination type bounds `max`).
  template <typename T>
  T num(const std::string& k, T dflt,
        T max = std::numeric_limits<T>::max()) const {
    const auto it = options.find(k);
    return it == options.end() ? dflt : parseNumber("--" + k, it->second, max);
  }
};

int usage();

/// Loads the circuit under test: a built-in library circuit by name, or a
/// .vnl text netlist from disk.
AppCircuit loadCircuit(const Args& a) {
  if (a.has("netlist")) {
    std::ifstream in(a.get("netlist"));
    if (!in) throw std::runtime_error("cannot open " + a.get("netlist"));
    std::stringstream buf;
    buf << in.rdbuf();
    Netlist nl = parseNetlistText(buf.str());
    std::string name = nl.name().empty() ? a.get("netlist") : nl.name();
    return AppCircuit{name, "user", std::move(nl)};
  }
  return workloads::appCircuitByName(a.get("circuit"));
}

std::optional<Args> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return std::nullopt;
    key = key.substr(2);
    if (key == "no-optimize" || key == "all" || key == "json" ||
        key == "list-rules" || key == "validate" || key == "links" ||
        key == "fix" || key == "relocate" || key == "activity" ||
        key == "waterfall" || key == "ledger") {
      a.options[key] = "1";
    } else {
      if (i + 1 >= argc) return std::nullopt;
      a.options[key] = argv[++i];
    }
  }
  return a;
}

/// --width N, when given. Commands read it before any per-circuit error
/// handling, so a bad value stays a usage error.
std::optional<std::uint16_t> stripWidth(const Args& a) {
  if (!a.has("width")) return std::nullopt;
  const auto w = a.num<std::uint16_t>("width", 0);
  if (w == 0) throw UsageError("--width: a strip has at least one column");
  return w;
}

/// Compiles `nl` into `width` columns from column 0, or without a width
/// into the narrowest strip that fits.
CompiledCircuit compileAt(Compiler& compiler, const Netlist& nl,
                          std::optional<std::uint16_t> width,
                          const CompileOptions& opt = {}) {
  if (!width) return workloads::compileMinimal(compiler, nl, opt.seed);
  return compiler.compile(nl, Region::columns(compiler.geometry(), 0, *width),
                          opt);
}

/// The one file writer: `bytes` to `path`, truncating. False, with the
/// path named on stderr, when the file cannot be written.
bool writeFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (out) return true;
  std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
  return false;
}

/// Machine-readable payloads go to --out (or stdout, alone); human chatter
/// stays on stderr. Exit 3 when the export cannot be written.
int emitPayload(const Args& a, std::string_view payload) {
  if (!a.has("out")) {
    std::fwrite(payload.data(), 1, payload.size(), stdout);
    return 0;
  }
  const std::string path = a.get("out");
  if (!writeFile(path, payload)) return 3;
  std::fprintf(stderr, "wrote %zu bytes to %s\n", payload.size(),
               path.c_str());
  return 0;
}

int listCircuits(const Args&) {
  std::printf("%-14s %-12s %8s %8s %6s %6s\n", "name", "domain", "gates",
              "DFFs", "ins", "outs");
  for (const AppCircuit& c : workloads::allSuites()) {
    const GateCounts n = c.netlist.counts();
    std::printf("%-14s %-12s %8zu %8zu %6zu %6zu\n", c.name.c_str(),
                c.domain.c_str(), n.combinational, n.dffs, n.inputs,
                n.outputs);
  }
  return 0;
}

int listDevices(const Args&) {
  std::printf("%-16s %6s %6s %5s %7s %12s %10s %9s\n", "name", "cols",
              "rows", "K", "wires", "config_bits", "full_ms", "partial?");
  for (const DeviceProfile& p : allProfiles()) {
    Device dev = p.makeDevice();
    ConfigPort port(dev, p.port);
    std::printf("%-16s %6u %6u %5u %7u %12u %10.2f %9s\n", p.name.c_str(),
                p.geometry.cols, p.geometry.rows, p.geometry.lutInputs,
                p.geometry.wiresPerChannel, dev.configMap().totalBits(),
                toMilliseconds(port.fullDownloadCost()),
                p.port.partialReconfig ? "yes" : "no");
  }
  return 0;
}

int deviceInfo(const Args& a) {
  DeviceProfile p = profileByName(a.get("device"));
  Device dev = p.makeDevice();
  ConfigPort port(dev, p.port);
  std::printf("device profile: %s\n", p.name.c_str());
  std::printf("  CLB grid        %u x %u (%zu CLBs, %u-input LUTs)\n",
              p.geometry.cols, p.geometry.rows, p.geometry.clbCount(),
              p.geometry.lutInputs);
  std::printf("  routing         %u wires/channel, disjoint switchboxes\n",
              p.geometry.wiresPerChannel);
  std::printf("  I/O             %zu pads x %u slots = %zu pad slots\n",
              p.geometry.padCount(), p.geometry.slotsPerPad,
              p.geometry.padSlotCount());
  std::printf("  config RAM      %u bits in %u frames of %u bits\n",
              dev.configMap().totalBits(), dev.configMap().frameCount(),
              dev.configMap().frameBits());
  std::printf("  full download   %.3f ms (%s)\n",
              toMilliseconds(port.fullDownloadCost()),
              p.port.partialReconfig ? "partial reconfig supported"
                                     : "serial-full only");
  std::printf("  state access    %s\n",
              p.port.stateAccess ? "readback/writeback supported" : "none");
  return 0;
}

/// Optimizes and compiles one circuit, then prints its size, download cost
/// and timing report; --out writes the partial bitstream.
int compileCmd(const Args& a) {
  const auto width = stripWidth(a);
  AppCircuit circuit = loadCircuit(a);
  DeviceProfile p = profileByName(a.get("device"));
  Device dev = p.makeDevice();
  ConfigPort port(dev, p.port);
  Compiler compiler(dev);

  Netlist nl = circuit.netlist;
  OptimizeStats ostats;
  if (!a.has("no-optimize")) {
    nl = optimize(nl, &ostats);
    std::printf("optimize: %zu -> %zu gates (%zu folded, %zu CSE, %zu dead)\n",
                ostats.gatesIn, ostats.gatesOut, ostats.constantsFolded,
                ostats.deduplicated, ostats.deadRemoved);
  }
  CompileOptions opt;
  opt.optimize = false;  // already done above
  const CompiledCircuit c = compileAt(compiler, nl, width, opt);
  std::printf("compiled %s for %s:\n", circuit.name.c_str(), p.name.c_str());
  std::printf("  %zu LUT cells (%zu registered), depth %zu\n", c.cellCount(),
              c.ffCount(), c.mapped.depth());
  std::printf("  strip width %u columns, %zu ports, %zu config frames\n",
              c.region.w, c.portCount(), c.frames.size());
  const Bitstream bs = c.partialBitstream();
  std::printf("  partial bitstream %zu bits, download %.3f ms "
              "(full device: %.3f ms)\n",
              bs.bitCount(), toMilliseconds(port.downloadCost(bs)),
              toMilliseconds(port.fullDownloadCost()));
  dev.applyBitstream(c.fullBitstream());
  if (!dev.configOk()) {
    std::fprintf(stderr, "configuration fault: %s\n",
                 dev.elaboration().faults.front().c_str());
    return 1;
  }
  std::printf("  min clock period %llu ns (%.1f MHz)\n",
              ull(dev.minClockPeriod()),
              1e3 / static_cast<double>(dev.minClockPeriod()));
  std::fputs(renderTimingReport(dev, 3).c_str(), stdout);
  if (a.has("out")) {
    const auto bytes = serializeBitstream(bs);
    if (!writeFile(a.get("out"),
                   {reinterpret_cast<const char*>(bytes.data()),
                    bytes.size()})) {
      return 3;
    }
    std::printf("  wrote %zu bytes to %s\n", bytes.size(),
                a.get("out").c_str());
  }
  return 0;
}

/// Runs one compiled circuit on the device under seeded random stimulus and
/// prints a per-cycle port table; --vcd also writes the output trace.
int simulateCmd(const Args& a) {
  AppCircuit circuit = loadCircuit(a);
  DeviceProfile p = profileByName(a.get("device"));
  Device dev = p.makeDevice();
  Compiler compiler(dev);
  const CompiledCircuit c =
      compileAt(compiler, circuit.netlist, stripWidth(a));
  dev.applyBitstream(c.fullBitstream());
  if (!dev.configOk()) {
    std::fprintf(stderr, "configuration fault: %s\n",
                 dev.elaboration().faults.front().c_str());
    return 1;
  }
  LoadedCircuit lc(dev, c);
  lc.applyInitialState();

  const int cycles = a.num("cycles", 16);
  Rng rng(a.num<std::uint64_t>("seed", 1));

  std::ostringstream vcdText;
  std::optional<VcdWriter> vcd;
  if (a.has("vcd")) {
    vcd.emplace(vcdText);
    for (const PortBinding& pb : c.ports) {
      if (pb.isInput) continue;
      vcd->addSignal(pb.name, [&lc, name = pb.name] {
        return lc.output(name);
      });
    }
  }

  // Header: input names then output names.
  std::printf("cycle |");
  for (const PortBinding& pb : c.ports) {
    if (pb.isInput) std::printf(" %s", pb.name.c_str());
  }
  std::printf(" ||");
  for (const PortBinding& pb : c.ports) {
    if (!pb.isInput) std::printf(" %s", pb.name.c_str());
  }
  std::printf("\n");
  for (int cycle = 0; cycle < cycles; ++cycle) {
    std::printf("%5d |", cycle);
    for (const PortBinding& pb : c.ports) {
      if (!pb.isInput) continue;
      const bool v = rng.bernoulli(0.5);
      lc.setInput(pb.name, v);
      std::printf(" %*d", static_cast<int>(pb.name.size()), v ? 1 : 0);
    }
    dev.evaluate();
    std::printf(" ||");
    for (const PortBinding& pb : c.ports) {
      if (pb.isInput) continue;
      std::printf(" %*d", static_cast<int>(pb.name.size()),
                  lc.output(pb.name) ? 1 : 0);
    }
    std::printf("\n");
    if (vcd) vcd->sample(static_cast<std::uint64_t>(cycle) * 10);
    dev.tick();
  }
  if (a.has("vcd")) {
    if (!writeFile(a.get("vcd"), vcdText.view())) return 3;
    std::printf("wrote VCD trace to %s\n", a.get("vcd").c_str());
  }
  return 0;
}

/// Shared --stream* flags -> exporter options ("-" streams to stdout).
obs::StreamOptions streamOptions(const Args& a) {
  obs::StreamOptions o;
  o.path = a.get("stream");
  o.ringCapacity = a.num<std::size_t>("stream-ring", 1024);
  o.flushEveryRecords = a.num<std::size_t>("stream-flush", 64);
  o.flushTimeDeltaNs = a.num<std::uint64_t>("stream-flush-ns", 0);
  // --stream-sample key=N[,key=N]: keep 1 of every N records per key
  // (span/instant category, or "trace" for Trace-ring records).
  std::stringstream ss(a.get("stream-sample"));
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw UsageError("bad --stream-sample entry '" + tok + "'");
    }
    o.sampleEvery[tok.substr(0, eq)] = parseNumber(
        "--stream-sample " + tok.substr(0, eq), tok.substr(eq + 1),
        std::numeric_limits<std::uint32_t>::max());
  }
  return o;
}

/// Opens the live exporter when --stream is given. False, with the path
/// named on stderr, when the stream cannot be opened (the caller exits 3).
bool openStream(const Args& a, std::optional<obs::StreamExporter>& stream) {
  if (!a.has("stream")) return true;
  stream.emplace(streamOptions(a));
  if (stream->ok()) return true;
  std::fprintf(stderr, "error: cannot open stream %s\n",
               a.get("stream").c_str());
  return false;
}

/// Wires a kernel's span tracer and Trace ring into the live exporter.
void attachKernelStream(obs::StreamExporter& stream, OsKernel& kernel,
                        std::string domain) {
  stream.attach(kernel.spanTracer(), domain);
  kernel.traceRing().setRecordSink([&stream, domain](const TraceRecord& r) {
    stream.onTrace(r.at, traceKindName(r.kind), r.detail, domain);
  });
}

/// Drop accounting is explicit, never silent: summarize it on stderr (the
/// payload on stdout/--out stays machine-readable).
void reportStreamTotals(const obs::StreamExporter& stream, const char* cmd) {
  std::fprintf(stderr,
               "%s: stream wrote %llu records (%llu emitted, %llu dropped,"
               " %llu sampled out)\n",
               cmd, ull(stream.written()), ull(stream.emitted()),
               ull(stream.dropped()), ull(stream.sampledOut()));
  for (const auto& [key, n] : stream.droppedByKey()) {
    std::fprintf(stderr, "%s: stream dropped %llu x %s\n", cmd, ull(n),
                 key.c_str());
  }
}

int validateChromeOrFail(const std::string& chrome) {
  const std::vector<std::string> problems = obs::validateChromeTrace(chrome);
  if (!problems.empty()) {
    for (const std::string& problem : problems) {
      std::fprintf(stderr, "trace: invalid: %s\n", problem.c_str());
    }
    return 3;
  }
  std::fprintf(stderr, "trace: chrome trace validates clean\n");
  return 0;
}

TaskSpec traceTask(const std::string& name, SimTime arrival, ConfigId cfg,
                   std::uint64_t cycles) {
  TaskSpec t;
  t.name = name;
  t.arrival = arrival;
  t.ops = {CpuBurst{micros(20)}, FpgaExec{cfg, cycles}, CpuBurst{micros(10)}};
  return t;
}

Netlist named(Netlist nl, const char* name) {
  nl.setName(name);
  return nl;
}

/// The three circuits the OS campaigns share: a 6-bit counter, a 6-bit
/// checksum and an 8-bit LFSR.
std::array<Netlist, 3> campaignNetlists() {
  return {named(lib::makeCounter(6), "count"),
          named(lib::makeChecksum(6), "csum"),
          named(lib::makeLfsr(8, 0b10111000), "lfsr")};
}

/// Compiles each campaign circuit into `strip` and registers it with the
/// kernel, one after the other.
std::array<ConfigId, 3> registerCampaign(OsKernel& kernel, Compiler& compiler,
                                         const Region& strip) {
  const std::array<Netlist, 3> nls = campaignNetlists();
  std::array<ConfigId, 3> ids{};
  for (std::size_t i = 0; i < nls.size(); ++i) {
    ids[i] = kernel.registerConfig(compiler.compile(nls[i], strip));
  }
  return ids;
}

/// The partitioned kernel under a fault plan: periodic scrubbing, verified
/// downloads with up to four retries, and a hang watchdog.
OsOptions faultTolerantOptions(fault::FaultPlan& plan) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedVariable;
  opt.ft.plan = &plan;
  opt.ft.scrubInterval = micros(500);
  opt.ft.recovery = fault::RecoveryOptions{true, 4, micros(50)};
  opt.ft.watchdogFactor = 4.0;
  return opt;
}

/// Static FT-rule check of a fault campaign's knobs before anything runs;
/// findings go to stderr, false on any error. `prof` carries what the plan
/// spec does not (the residency fault classes).
bool faultKnobsOk(const fault::FaultPlanSpec& spec, const OsOptions& opt,
                  analysis::FaultToleranceProfile prof = {}) {
  prof.downloadCorruptRate = spec.downloadCorruptRate;
  prof.downloadAbortRate = spec.downloadAbortRate;
  prof.stateCorruptRate = spec.stateCorruptRate;
  prof.meanUpsetsPerScrub = spec.meanUpsetsPerScrub;
  prof.execHangRate = spec.execHangRate;
  prof.anyStripFailures = !spec.stripFailures.empty();
  prof.scrubInterval = opt.ft.scrubInterval;
  prof.verifyDownloads = opt.ft.recovery.verifyDownloads;
  prof.maxDownloadRetries = opt.ft.recovery.maxDownloadRetries;
  prof.watchdogFactor = opt.ft.watchdogFactor;
  prof.garbageCollect = opt.garbageCollect;
  analysis::Report rep;
  analysis::lintFaultTolerance(prof, rep);
  if (!rep.diagnostics().empty()) {
    std::fprintf(stderr, "%s", rep.renderText().c_str());
  }
  return rep.ok();
}

/// The scripted strip-failure campaign behind heatmap and profile: six
/// staggered tasks over the campaign circuits on a fault-tolerant
/// partitioned kernel while strips 2 and 9 fail at 2 ms and 5 ms.
struct StripFailureCampaign {
  fault::FaultPlan plan;
  Device dev;
  ConfigPort port;
  Compiler compiler;
  Simulation sim;
  OsKernel kernel;

  StripFailureCampaign(const DeviceProfile& p, std::uint64_t seed)
      : plan(spec(seed)),
        dev(p.makeDevice()),
        port(dev, p.port),
        compiler(dev),
        kernel(sim, dev, port, compiler, faultTolerantOptions(plan)) {}
  // The kernel and the plan pointer refer to the members above.
  StripFailureCampaign(const StripFailureCampaign&) = delete;
  StripFailureCampaign& operator=(const StripFailureCampaign&) = delete;

  static fault::FaultPlanSpec spec(std::uint64_t seed) {
    fault::FaultPlanSpec s;
    s.seed = seed;
    s.stripFailures = {{millis(2), 2}, {millis(5), 9}};
    return s;
  }

  /// Registers the circuits, submits the tasks (named prefix0..prefix5)
  /// and runs the kernel to completion.
  void run(const char* taskPrefix) {
    const auto cfgs = registerCampaign(
        kernel, compiler, Region::columns(dev.geometry(), 0, 4));
    for (std::size_t i = 0; i < 6; ++i) {
      TaskSpec t;
      t.name = taskPrefix + std::to_string(i);
      t.arrival = static_cast<SimTime>(i) * micros(200);
      t.ops = {CpuBurst{micros(25)}, FpgaExec{cfgs[i % 3], 15000 + 4000 * i},
               CpuBurst{micros(15)}};
      kernel.addTask(std::move(t));
    }
    kernel.run();
  }
};

/// Compiles the circuit, runs it under two OS policies and emits the merged
/// timeline (Perfetto-loadable); --stream also writes live NDJSON while the
/// run is in flight. --from re-renders a captured stream instead (exit 3
/// when any line is truncated or fails the strict JSON parser).
int traceCmd(const Args& a) {
  const std::string fmt = a.get("format", "chrome");
  if (fmt != "chrome" && fmt != "csv") {
    std::fprintf(stderr, "trace: unknown --format '%s' (chrome|csv)\n",
                 fmt.c_str());
    return 2;
  }

  // Replay path: re-render (and optionally validate) a captured NDJSON
  // stream instead of running a workload.
  if (a.has("from")) {
    const obs::CapturedStream cap = obs::loadStream(a.get("from"));
    if (!cap.ok()) {
      std::fprintf(stderr, "error: %s\n", cap.error.c_str());
      return 3;
    }
    std::fprintf(stderr,
                 "trace: replayed %llu stream records across %zu domains"
                 " (%llu summaries)\n",
                 ull(cap.records), cap.tracers.size() + cap.traces.size(),
                 ull(cap.summaries));
    const obs::ChromeTraceInput input = obs::capturedInput(cap);
    const std::string chrome = obs::renderChromeTrace(input);
    if (a.has("validate")) {
      const int vrc = validateChromeOrFail(chrome);
      if (vrc != 0) return vrc;
    }
    return emitPayload(a, fmt == "chrome" ? chrome
                                        : obs::renderTimelineCsv(input));
  }

  AppCircuit circuit = loadCircuit(a);
  DeviceProfile p = profileByName(a.get("device", "medium_partial"));
  Device dev = p.makeDevice();
  ConfigPort port(dev, p.port);
  Compiler compiler(dev);

  // Wall-clock flow spans: every compile below lands on pid 1.
  obs::SpanTracer wall;
  obs::MetricsRegistry flowMetrics;
  compiler.setObservers(&wall, &flowMetrics);

  // Live streaming: attach before anything compiles or runs so the NDJSON
  // file fills while the workload is in flight.
  std::optional<obs::StreamExporter> stream;
  if (!openStream(a, stream)) return 3;
  if (stream) stream->attach(wall, "flow");

  const CompiledCircuit primary =
      compileAt(compiler, circuit.netlist, stripWidth(a));
  // A second circuit so the kernels genuinely context-switch.
  const CompiledCircuit aux =
      workloads::compileMinimal(compiler, named(lib::makeChecksum(6), "csum"));

  // Simulated process 1: whole-device dynamic loading with a preemption
  // slice (downloads, state save/restore).
  Simulation dynSim;
  OsOptions dynOpt;
  dynOpt.policy = FpgaPolicy::kDynamicLoading;
  dynOpt.fpgaSlice = micros(100);
  OsKernel dyn(dynSim, dev, port, compiler, dynOpt);
  if (stream) attachKernelStream(*stream, dyn, "os/dynamic_loading");
  {
    const ConfigId da = dyn.registerConfig(primary);
    const ConfigId db = dyn.registerConfig(aux);
    dyn.addTask(traceTask("t0", 0, da, 30000));
    dyn.addTask(traceTask("t1", micros(40), db, 20000));
    dyn.addTask(traceTask("t2", micros(80), da, 12000));
    dyn.run();
  }

  // Simulated process 2: variable column-strip partitions (concurrent
  // residency, garbage collection).
  Simulation partSim;
  OsOptions partOpt;
  partOpt.policy = FpgaPolicy::kPartitionedVariable;
  OsKernel part(partSim, dev, port, compiler, partOpt);
  if (stream) attachKernelStream(*stream, part, "os/partitioned_variable");
  {
    const ConfigId pa = part.registerConfig(primary);
    const ConfigId pb = part.registerConfig(aux);
    part.addTask(traceTask("t0", 0, pa, 30000));
    part.addTask(traceTask("t1", micros(40), pb, 20000));
    part.addTask(traceTask("t2", micros(80), pa, 12000));
    part.run();
  }

  if (stream) {
    stream->finish();
    reportStreamTotals(*stream, "trace");
  }

  obs::ChromeTraceInput input;
  input.wall = &wall;
  input.sim.push_back({"os/dynamic_loading", &dyn.spanTracer(), &dyn.trace()});
  input.sim.push_back(
      {"os/partitioned_variable", &part.spanTracer(), &part.trace()});

  const std::string chrome = obs::renderChromeTrace(input);
  if (a.has("validate")) {
    const int vrc = validateChromeOrFail(chrome);
    if (vrc != 0) return vrc;
  }
  return emitPayload(a, fmt == "chrome" ? chrome
                                        : obs::renderTimelineCsv(input));
}

/// Runs a six-technique workload and exposes every metric it collected;
/// --stream also publishes the vfpga_obs_flush_ns histogram (what streaming
/// itself cost). --links prints the compile-span -> OS-span link table
/// instead (exit 1 when any FPGA task resolves no link).
int reportCmd(const Args& a) {
  const std::string fmt = a.get("format", "prometheus");
  if (fmt != "prometheus" && fmt != "csv" && fmt != "json") {
    std::fprintf(stderr,
                 "report: unknown --format '%s' (prometheus|csv|json)\n",
                 fmt.c_str());
    return 2;
  }
  DeviceProfile p = profileByName(a.get("device", "medium_partial"));
  Device dev = p.makeDevice();
  ConfigPort port(dev, p.port);
  Compiler compiler(dev);

  obs::MetricsRegistry reg;
  // vfpga_flow_* phase timings; the wall tracer also gives every compile a
  // process-unique span id that the kernels' download/exec spans link back
  // to — the --links join below resolves them.
  obs::SpanTracer wall;
  compiler.setObservers(&wall, &reg);

  // --stream: live NDJSON of the wall tracer and both kernel runs. The
  // exporter's own flush cost lands in the vfpga_obs_flush_ns histogram
  // (published only when a stream is attached, so plain runs keep their
  // exact metric-family set).
  std::optional<obs::StreamExporter> stream;
  if (!openStream(a, stream)) return 3;
  if (stream) stream->attach(wall, "flow");

  // --links: per-config counts of OS spans carrying the compile span id,
  // plus a per-task verdict (>=1 linked download span for some config the
  // task names).
  struct LinkRow {
    std::string policy;
    std::string config;
    std::uint64_t compileSpan = 0;
    std::uint64_t downloads = 0;
    std::uint64_t execs = 0;
  };
  struct TaskLinks {
    std::string policy;
    std::string task;
    bool resolved = false;
  };
  std::vector<LinkRow> linkRows;
  std::vector<TaskLinks> taskLinks;
  auto collectLinks = [&linkRows, &taskLinks](OsKernel& kernel,
                                              const char* policy) {
    const std::vector<obs::SpanRecord>& spans = kernel.spanTracer().spans();
    auto linked = [&spans](std::uint64_t compileSpan, const char* category) {
      std::uint64_t n = 0;
      for (const obs::SpanRecord& s : spans) {
        const bool categoryOk =
            category == nullptr ? s.category != "os.config"
                                : s.category == category;
        if (categoryOk && std::find(s.links.begin(), s.links.end(),
                                    compileSpan) != s.links.end()) {
          ++n;
        }
      }
      return n;
    };
    for (ConfigId id = 0; id < kernel.registry().size(); ++id) {
      LinkRow row;
      row.policy = policy;
      row.config = kernel.registry().circuit(id).name;
      row.compileSpan = kernel.compileSpanOf(id);
      if (row.compileSpan != 0) {
        row.downloads = linked(row.compileSpan, "os.config");
        row.execs = linked(row.compileSpan, nullptr);
      }
      linkRows.push_back(std::move(row));
    }
    for (const TaskRuntime& t : kernel.tasks()) {
      TaskLinks tl;
      tl.policy = policy;
      tl.task = t.spec.name;
      for (const TaskOp& op : t.spec.ops) {
        const FpgaExec* fx = std::get_if<FpgaExec>(&op);
        if (fx == nullptr) continue;
        const std::uint64_t compileSpan = kernel.compileSpanOf(fx->config);
        if (compileSpan != 0 && linked(compileSpan, "os.config") > 0) {
          tl.resolved = true;
          break;
        }
      }
      taskLinks.push_back(std::move(tl));
    }
  };

  const Region strip = Region::columns(dev.geometry(), 0, 4);
  const CompiledCircuit count =
      compiler.compile(named(lib::makeCounter(6), "count"), strip);
  const CompiledCircuit csum =
      compiler.compile(named(lib::makeChecksum(6), "csum"), strip);
  const CompiledCircuit lfsr =
      compiler.compile(named(lib::makeLfsr(8, 0b10111000), "lfsr"), strip);

  // Techniques 1+2 through the kernel: sliced dynamic loading, then
  // variable partitions. Each run's registry merges in under its policy
  // label.
  {
    Simulation sim;
    OsOptions opt;
    opt.policy = FpgaPolicy::kDynamicLoading;
    opt.fpgaSlice = micros(100);
    OsKernel kernel(sim, dev, port, compiler, opt);
    if (stream) attachKernelStream(*stream, kernel, "os/dynamic_loading");
    const ConfigId ka = kernel.registerConfig(count);
    const ConfigId kb = kernel.registerConfig(csum);
    kernel.addTask(traceTask("d0", 0, ka, 30000));
    kernel.addTask(traceTask("d1", micros(40), kb, 20000));
    kernel.addTask(traceTask("d2", micros(80), ka, 12000));
    kernel.run();
    reg.merge(kernel.metricsRegistry());
    if (a.has("links")) collectLinks(kernel, "dynamic_loading");
  }
  {
    Simulation sim;
    OsOptions opt;
    opt.policy = FpgaPolicy::kPartitionedVariable;
    OsKernel kernel(sim, dev, port, compiler, opt);
    if (stream) attachKernelStream(*stream, kernel, "os/partitioned_variable");
    const ConfigId ka = kernel.registerConfig(count);
    const ConfigId kb = kernel.registerConfig(csum);
    const ConfigId kc = kernel.registerConfig(lfsr);
    kernel.addTask(traceTask("p0", 0, ka, 30000));
    kernel.addTask(traceTask("p1", micros(40), kb, 20000));
    kernel.addTask(traceTask("p2", micros(80), kc, 12000));
    kernel.run();
    reg.merge(kernel.metricsRegistry());
    if (a.has("links")) collectLinks(kernel, "partitioned_variable");
  }
  // Standalone manager exercises for the remaining techniques (the §2
  // tour), snapshotted via publishMetrics.
  {
    ConfigRegistry cfgs;
    DynamicLoader loader(dev, port, cfgs);
    const ConfigId la = cfgs.add(count);
    const ConfigId lb = cfgs.add(csum);
    loader.activate(la);
    loader.activate(lb);
    loader.activate(la);
    publishMetrics(loader, reg);
  }
  {
    ConfigRegistry cfgs;
    PartitionManager pm(dev, port, cfgs, compiler, {});
    pm.load(cfgs.add(count));
    pm.load(cfgs.add(csum));
    pm.load(cfgs.add(lfsr));
    publishMetrics(pm, reg);
  }
  {
    OverlayManager om(dev, port, compiler, 4);
    om.installResident(csum);
    const OverlayId f1 = om.addOverlay(count);
    const OverlayId f2 = om.addOverlay(lfsr);
    om.invoke(f1);
    om.invoke(f1);
    om.invoke(f2);
    om.invoke(f1);
    publishMetrics(om, reg);
  }
  {
    SegmentManager sm(dev, port, compiler);
    std::vector<SegmentId> segs;
    for (int i = 0; i < 3; ++i) {
      Netlist nl = lib::makeChecksum(4);
      nl.setName("seg" + std::to_string(i));
      segs.push_back(sm.addSegment(
          compiler.compile(nl, Region::columns(dev.geometry(), 0, 5))));
    }
    for (SegmentId s : {segs[0], segs[1], segs[0], segs[2], segs[0]}) {
      sm.access(s);
    }
    publishMetrics(sm, reg);
  }
  {
    PageManager pg(p.port, dev.configMap().frameBits(),
                   PageManagerOptions{4, 32, ReplacementPolicy::kLru});
    const ConfigId big = pg.addFunction(112);
    const ConfigId sml = pg.addFunction(20);
    pg.access(big);
    pg.access(sml);
    pg.access(big);
    publishMetrics(pg, reg);
  }
  {
    ConfigRegistry cfgs;
    PrefetchLoader pf(dev, port, cfgs, compiler);
    const ConfigId fa = cfgs.add(count);
    const ConfigId fb = cfgs.add(csum);
    SimTime now = 0;
    for (int i = 0; i < 8; ++i) {
      pf.activate(i % 2 ? fb : fa, now);
      now += millis(50);
    }
    publishMetrics(pf, reg);
  }
  {
    IoMux mux(IoMuxSpec{16, nanos(50), nanos(20), nanos(5)});
    mux.rebind(64);
    mux.transfer(64);
    mux.transfer(64);
    publishMetrics(mux, reg);
  }
  {
    // Compiled fast path: replay two circuits back to back on a scratch
    // device (build, invalidation on the reconfiguration, rebuild) plus
    // one forced interpretive service, so every
    // vfpga_sim_compiled_*_total family carries signal.
    Device cdev = p.makeDevice();
    compiled::CompiledKernelCache kcache(16);
    compiled::CompiledFabric engine(cdev, &kcache);
    cdev.applyBitstream(count.fullBitstream());
    for (int i = 0; i < 256; ++i) {
      cdev.evaluate();
      cdev.tick();
    }
    cdev.applyBitstream(csum.fullBitstream());
    for (int i = 0; i < 256; ++i) {
      cdev.evaluate();
      cdev.tick();
    }
    cdev.setFastPathInhibited(true);
    cdev.evaluate();
    cdev.setFastPathInhibited(false);
    publishMetrics(engine, reg);
  }

  if (stream) {
    stream->finish();
    stream->publishSelfMetrics(reg);
    reportStreamTotals(*stream, "report");
  }

  if (a.has("links")) {
    std::size_t resolved = 0;
    for (const TaskLinks& t : taskLinks) resolved += t.resolved ? 1 : 0;
    std::ostringstream os;
    if (fmt == "json") {
      std::string out;
      obs::JsonWriter w(out);
      w.beginObject().newline().key("configs").beginArray();
      for (const LinkRow& r : linkRows) {
        w.newline().beginObject().key("policy").value(r.policy).key("config")
            .value(r.config).key("compile_span").value(r.compileSpan)
            .key("download_spans").value(r.downloads).key("exec_spans")
            .value(r.execs).endObject();
      }
      w.newline().endArray().newline().key("tasks").beginArray();
      for (const TaskLinks& t : taskLinks) {
        w.newline().beginObject().key("policy").value(t.policy).key("task")
            .value(t.task).key("resolved").value(t.resolved).endObject();
      }
      w.newline().endArray().newline().endObject();
      os << out << '\n';
    } else {
      os << "span links (compile -> OS)\n";
      os << "==========================\n";
      char buf[160];
      std::snprintf(buf, sizeof buf, "%-22s %-8s %12s %10s %10s\n", "policy",
                    "config", "compile_span", "downloads", "execs");
      os << buf;
      for (const LinkRow& r : linkRows) {
        std::snprintf(buf, sizeof buf, "%-22s %-8s %12llu %10llu %10llu\n",
                      r.policy.c_str(), r.config.c_str(), ull(r.compileSpan),
                      ull(r.downloads), ull(r.execs));
        os << buf;
      }
      os << "\ntask link coverage\n";
      for (const TaskLinks& t : taskLinks) {
        std::snprintf(buf, sizeof buf, "%-22s %-8s %s\n", t.policy.c_str(),
                      t.task.c_str(), t.resolved ? "resolved" : "UNRESOLVED");
        os << buf;
      }
      os << "resolved: " << resolved << "/" << taskLinks.size() << " tasks\n";
    }
    std::fprintf(stderr,
                 "report: %zu/%zu tasks resolved a compile->download link\n",
                 resolved, taskLinks.size());
    const int rc = emitPayload(a, os.str());
    if (rc != 0) return rc;
    return resolved == taskLinks.size() && !taskLinks.empty() ? 0 : 1;
  }

  std::fprintf(stderr, "report: %zu metric families, %zu series\n",
               reg.familyCount(), reg.size());
  if (a.has("min-names")) {
    const std::size_t need = a.num<std::size_t>("min-names", 0);
    if (reg.familyCount() < need) {
      std::fprintf(stderr,
                   "report: only %zu metric families (< %zu required)\n",
                   reg.familyCount(), need);
      return 3;
    }
  }
  const std::string payload = fmt == "prometheus" ? obs::renderPrometheus(reg)
                              : fmt == "csv"      ? obs::renderCsv(reg)
                                                  : obs::renderMetricsJson(reg);
  return emitPayload(a, payload);
}

/// Auto-repair pass for the fixable lint rules. Netlist-level findings
/// (NL007 dead gates) are repaired by the equivalence-preserving optimizer
/// rewrite and the repaired .vnl is emitted; allocator-level findings
/// (AL004 unmerged idle strips) are runtime state, repaired in-process via
/// StripAllocator::repairUnmergedIdle() — see docs/ANALYSIS.md.
int lintFixCmd(const Args& a) {
  if (!a.has("netlist")) {
    std::fprintf(stderr,
                 "lint --fix: requires --netlist file.vnl (built-in "
                 "circuits are read-only)\n");
    return 2;
  }
  const AppCircuit circuit = loadCircuit(a);
  const auto fixableCount = [](const analysis::Report& rep) {
    std::size_t n = 0;
    for (const analysis::Diagnostic& d : rep.diagnostics()) {
      if (d.rule == "NL007") ++n;
    }
    return n;
  };

  analysis::Report before;
  analysis::lintNetlist(circuit.netlist, before);
  const std::size_t found = fixableCount(before);

  OptimizeStats stats;
  const Netlist fixed = optimize(circuit.netlist, &stats);
  analysis::Report after;
  analysis::lintNetlist(fixed, after);
  const std::size_t left = fixableCount(after);

  std::fprintf(stderr,
               "lint --fix: %s: %zu fixable finding(s), %zu dead gate(s) "
               "removed, %zu fixable remaining, %zu error(s) after re-lint\n",
               circuit.name.c_str(), found, stats.deadRemoved, left,
               after.errorCount());
  const int rc = emitPayload(a, writeNetlistText(fixed));
  if (rc != 0) return rc;
  return left == 0 && after.ok() ? 0 : 1;
}

/// Runs every analysis pass over the flow (netlist, compiled stages,
/// timing, equivalence of the configured device); exit 1 on any
/// error-severity diagnostic.
int lintCmd(const Args& a) {
  if (a.has("fix")) return lintFixCmd(a);
  if (a.has("list-rules")) {
    for (const analysis::RuleInfo& r : analysis::allRules()) {
      std::printf("%-6s %-8s %s\n       %s\n", r.id,
                  analysis::severityName(r.severity), r.title, r.description);
    }
    return 0;
  }

  DeviceProfile p = profileByName(a.get("device", "medium_partial"));
  Device dev = p.makeDevice();
  Compiler compiler(dev);

  std::vector<AppCircuit> circuits;
  if (a.has("all")) {
    circuits = workloads::allSuites();
  } else {
    circuits.push_back(loadCircuit(a));
  }

  const bool json = a.has("json");
  const auto width = stripWidth(a);
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::string doc;
  obs::JsonWriter w(doc);
  if (json) w.beginArray();
  for (const AppCircuit& circuit : circuits) {
    analysis::Report rep;
    // A flow failure (CompileError, ...) on one circuit must not corrupt
    // the machine-readable stream: it is captured per circuit, keeping the
    // JSON array well-formed and stdout free of interleaved chatter.
    std::string failure;
    try {
      Netlist nl = circuit.netlist;
      if (!a.has("no-optimize")) nl = optimize(nl);
      analysis::lintNetlist(nl, rep);
      if (rep.ok()) {
        // The netlist is structurally sound: run the whole flow and lint
        // every compiled stage (mapping, placement, routing, bitstream).
        CompileOptions opt;
        opt.optimize = false;  // handled above
        const CompiledCircuit c = compileAt(compiler, nl, width, opt);
        analysis::lintCompiled(c, dev.rrg(), dev.configMap(), rep);
        // Configure the device and close the loop: timing against the
        // family clock constraint (TA rules) and formal equivalence of the
        // configured fabric against the netlist that was compiled (EQ
        // rules). fullBitstream() blanks everything outside the circuit,
        // so reusing one device across --all iterations is safe.
        dev.applyBitstream(c.fullBitstream());
        analysis::lintTiming(dev, analysis::constraintsFor(p), rep);
        const analysis::equiv::ConfiguredCheck chk =
            analysis::equiv::checkConfiguredAgainst(dev, c, nl);
        analysis::equiv::lintEquivalence(chk, circuit.name, rep);
      }
    } catch (const std::exception& e) {
      failure = e.what();
      ++errors;
    }
    errors += rep.errorCount();
    warnings += rep.warningCount();
    if (json) {
      w.beginObject().key("name").value(circuit.name);
      if (!failure.empty()) w.key("error").value(failure);
      w.key("report").token(rep.renderJson()).endObject();
    } else {
      if (!failure.empty()) {
        std::fprintf(stderr, "lint: %s: %s\n", circuit.name.c_str(),
                     failure.c_str());
      }
      std::printf("== %s ==\n%s", circuit.name.c_str(),
                  rep.renderText().c_str());
    }
  }
  if (json) {
    w.endArray();
    std::printf("%s\n", doc.c_str());
  } else {
    std::printf("lint: %zu error(s), %zu warning(s) across %zu circuit(s)\n",
                errors, warnings, circuits.size());
  }
  return errors != 0 ? 1 : 0;
}

/// Formal equivalence gate: compile each circuit, download it, extract the
/// configuration back out of the device and prove the fabric computes the
/// *source* netlist; with --relocate the circuit is additionally retargeted
/// to the rightmost strip and re-proven there. Output is byte-deterministic
/// for a given seed; exit 0 iff every stage of every circuit is equivalent.
int equivCmd(const Args& a) {
  if (!a.has("circuit") && !a.has("netlist") && !a.has("all")) return usage();
  DeviceProfile p = profileByName(a.get("device", "medium_partial"));
  const std::uint64_t seed = a.num<std::uint64_t>("seed", 1);
  const auto width = stripWidth(a);

  std::vector<AppCircuit> circuits;
  if (a.has("all")) {
    circuits = workloads::allSuites();
  } else {
    circuits.push_back(loadCircuit(a));
  }

  struct Stage {
    std::string name;
    analysis::equiv::ConfiguredCheck chk;
  };
  const bool json = a.has("json");
  std::ostringstream os;
  std::string doc;
  obs::JsonWriter w(doc);
  std::size_t failed = 0;
  if (json) w.beginArray();
  for (const AppCircuit& circuit : circuits) {
    std::vector<Stage> stages;
    std::string failure;
    try {
      Device dev = p.makeDevice();
      Compiler compiler(dev);
      CompileOptions co;
      co.seed = seed;
      const CompiledCircuit c =
          compileAt(compiler, circuit.netlist, width, co);
      dev.applyBitstream(c.fullBitstream());
      stages.push_back({"post_pnr", analysis::equiv::checkConfiguredAgainst(
                                        dev, c, circuit.netlist)});
      if (a.has("relocate")) {
        const auto newX0 =
            static_cast<std::uint16_t>(dev.geometry().cols - c.region.w);
        const CompiledCircuit r = compiler.relocate(c, newX0);
        Device dev2 = p.makeDevice();
        dev2.applyBitstream(r.fullBitstream());
        stages.push_back({"post_relocate_x" + std::to_string(newX0),
                          analysis::equiv::checkConfiguredAgainst(
                              dev2, r, circuit.netlist)});
      }
    } catch (const std::exception& e) {
      failure = e.what();
    }
    bool circuitOk = failure.empty();
    for (const Stage& s : stages) {
      if (!s.chk.ok()) circuitOk = false;
    }
    if (!circuitOk) ++failed;

    if (json) {
      w.newline().beginObject().key("name").value(circuit.name);
      if (!failure.empty()) w.key("error").value(failure);
      w.key("equivalent").value(circuitOk).key("stages").beginArray();
      for (const Stage& st : stages) {
        w.beginObject().key("stage").value(st.name).key("equivalent")
            .value(st.chk.ok()).key("fully_proven")
            .value(st.chk.result.fullyProven).key("summary")
            .value(st.chk.result.summary());
        if (!st.chk.extracted.problems.empty()) {
          w.key("extraction_problems").beginArray();
          for (const std::string& prob : st.chk.extracted.problems) {
            w.value(prob);
          }
          w.endArray();
        }
        if (!st.chk.result.counterexamples.empty()) {
          w.key("counterexamples").beginArray();
          for (const auto& cx : st.chk.result.counterexamples) {
            w.value(cx.render());
          }
          w.endArray();
        }
        w.endObject();
      }
      w.endArray().endObject();
    } else {
      os << "== " << circuit.name << " ==\n";
      if (!failure.empty()) os << "  flow error: " << failure << "\n";
      for (const Stage& st : stages) {
        os << "  " << st.name << ": "
           << (st.chk.ok() ? "EQUIVALENT" : "NOT EQUIVALENT") << " ("
           << st.chk.result.summary() << ")\n";
        for (const std::string& prob : st.chk.extracted.problems) {
          os << "    extraction: " << prob << "\n";
        }
        for (const std::string& prob : st.chk.result.portMismatches) {
          os << "    port: " << prob << "\n";
        }
        for (const std::string& prob : st.chk.result.stateMismatches) {
          os << "    state: " << prob << "\n";
        }
        for (const auto& cx : st.chk.result.counterexamples) {
          os << "    counterexample: " << cx.render() << "\n";
        }
      }
    }
  }
  if (json) {
    w.newline().endArray();
    doc += '\n';
  } else {
    os << "equiv: " << circuits.size() << " circuit(s), " << failed
       << " failure(s)\n";
  }
  const int rc = emitPayload(a, json ? doc : os.str());
  if (rc != 0) return rc;
  return failed != 0 ? 1 : 0;
}

/// Seeded fault-injection campaign against the partitioned kernel: three
/// relocatable circuits, eight staggered tasks, wire corruption/truncation,
/// configuration upsets, scripted permanent strip failures and hangs. The
/// report is byte-identical for a given seed and campaign (the whole stack
/// is deterministic), which is what the CI smoke test pins.
int faultsCmd(const Args& a) {
  const std::uint64_t seed = a.num<std::uint64_t>("seed", 7);
  const std::string campaign = a.get("campaign", "ci");
  if (a.has("flight-dir")) {
    setenv("VFPGA_FLIGHT_DIR", a.get("flight-dir").c_str(), 1);
  }

  fault::FaultPlanSpec spec;
  spec.seed = seed;
  if (campaign == "ci") {
    spec.downloadCorruptRate = 0.25;
    spec.downloadAbortRate = 0.15;
    spec.stateCorruptRate = 0.20;
    spec.meanUpsetsPerScrub = 1.5;
    spec.execHangRate = 0.10;
    spec.stripFailures = {{millis(2), 2}, {millis(5), 9}};
  } else if (campaign == "stress") {
    spec.downloadCorruptRate = 0.40;
    spec.downloadAbortRate = 0.30;
    spec.stateCorruptRate = 0.35;
    spec.meanUpsetsPerScrub = 3.0;
    spec.execHangRate = 0.20;
    spec.stripFailures = {{millis(1), 2}, {millis(3), 7}, {millis(6), 10}};
  } else {
    std::fprintf(stderr, "error: unknown campaign '%s' (ci|stress)\n",
                 campaign.c_str());
    return 2;
  }
  fault::FaultPlan plan(spec);

  const OsOptions opt = faultTolerantOptions(plan);

  if (!faultKnobsOk(spec, opt)) return 1;

  DeviceProfile p = profileByName(a.get("device", "medium_partial"));
  Device dev = p.makeDevice();
  ConfigPort port(dev, p.port);
  Compiler compiler(dev);

  const Region strip = Region::columns(dev.geometry(), 0, 4);
  Simulation sim;
  OsKernel kernel(sim, dev, port, compiler, opt);
  // Live NDJSON stream of the campaign (watch with tail -f); the summary
  // goes to stderr so the survival report stays byte-identical per seed.
  std::optional<obs::StreamExporter> stream;
  if (!openStream(a, stream)) return 3;
  if (stream) attachKernelStream(*stream, kernel, "os/faults");
  const auto cfgs = registerCampaign(kernel, compiler, strip);
  const std::size_t kTasks = 8;
  for (std::size_t i = 0; i < kTasks; ++i) {
    TaskSpec t;
    t.name = "ft" + std::to_string(i);
    t.arrival = static_cast<SimTime>(i) * micros(150);
    t.ops = {CpuBurst{micros(30)}, FpgaExec{cfgs[i % 3], 20000 + 5000 * i},
             CpuBurst{micros(20)}};
    kernel.addTask(std::move(t));
  }
  kernel.run();
  if (stream) {
    stream->finish();
    reportStreamTotals(*stream, "faults");
  }

  std::size_t finished = 0;
  std::size_t parked = 0;
  for (const TaskRuntime& t : kernel.tasks()) {
    if (t.state == TaskState::kDone) ++finished;
    if (t.state == TaskState::kParked) ++parked;
  }
  const fault::FaultCounters& in = plan.counters();
  const ConfigPortStats& ps = port.stats();
  const obs::Labels l = {{"policy", fpgaPolicyName(opt.policy)}};
  obs::MetricsRegistry& reg = kernel.metricsRegistry();
  auto c = [&](const char* name) {
    return reg.counter(name, l, "").value();
  };

  char buf[512];
  std::string out;
  auto line = [&](const char* fmt2, auto... args2) {
    std::snprintf(buf, sizeof buf, fmt2, args2...);
    out += buf;
  };
  const bool survived = finished == kTasks && parked == 0;
  line("vfpga fault campaign report\n");
  line("===========================\n");
  line("campaign: %s\nseed: %llu\npolicy: %s\ndevice: %s\n\n",
       campaign.c_str(), ull(seed), fpgaPolicyName(opt.policy),
       p.name.c_str());
  line("tasks: %zu   finished: %zu   parked: %zu\n\n", kTasks, finished,
       parked);
  line("injected\n");
  line("  corrupted downloads:     %llu\n", ull(in.corruptedDownloads));
  line("  aborted downloads:       %llu\n", ull(in.abortedDownloads));
  line("  flipped wire bits:       %llu\n", ull(in.flippedBits));
  line("  state corruptions:       %llu\n", ull(in.stateCorruptions));
  line("  config upsets:           %llu\n", ull(in.upsets));
  line("  hung executions:         %llu\n\n", ull(in.hangs));
  line("detected\n");
  line("  verify failures (frames):%llu\n", ull(ps.verifyFailures));
  line("  state CRC failures:      %llu\n\n",
       ull(c("vfpga_fault_state_corruptions_total")));
  line("recovered\n");
  line("  download retries:        %llu\n",
       ull(c("vfpga_fault_download_retries_total")));
  line("  scrub runs:              %llu\n",
       ull(c("vfpga_fault_scrub_runs_total")));
  line("  scrub repaired frames:   %llu\n",
       ull(c("vfpga_fault_scrub_repaired_frames_total")));
  line("  watchdog preemptions:    %llu\n",
       ull(c("vfpga_fault_watchdog_preemptions_total")));
  line("  strips quarantined:      %llu\n",
       ull(c("vfpga_fault_strips_quarantined_total")));
  line("  quarantine relocations:  %llu\n\n",
       ull(c("vfpga_fault_quarantine_relocations_total")));
  line("makespan: %.3f ms\n", toMilliseconds(kernel.metrics().makespan));
  line("survived: %s\n", survived ? "yes" : "no");

  const int rc = emitPayload(a, out);
  if (rc != 0) return rc;
  return survived ? 0 : 1;
}

/// Seeded chaos campaign: prove the stack survives *kernel death*, not
/// just device faults. Three phases, byte-deterministic per seed:
///
///   A  kill-restore-verify — a fault-injected partitioned campaign with
///      durable checkpointing is killed mid-flight (the kernel object is
///      destroyed without finalize, exactly what a crash leaves behind),
///      the on-disk checkpoint slots are then tampered with (truncation,
///      payload bit rot, stale-generation re-stamps), and a fresh kernel
///      on the same directory re-admits every task it can prove intact.
///      Every tampered slot must be rejected by the CRC / version / slot-
///      parity guards AND named by a CK lint rule; recovery must fall
///      back to the previous good generation or park with a diagnostic —
///      never restore silent wrong state.
///   B  bit-exactness — a counter is cut at cycle 23, checkpointed twice,
///      the newest generation is rotted; the restore (forced to fall back
///      to generation 1) relocates to a different strip on a fresh
///      device, proves equivalence, runs the remaining 41 cycles and must
///      match a 64-cycle uninterrupted reference register for register.
///   C  technique-manager residency faults — overlay / segment / page
///      managers run under stale-reuse / table-corruption / residency-
///      loss injection with verification on; every injection must be
///      detected (the silent counters stay zero).
///
/// Exit 0 iff all three phases survive with zero silent wrong state.
int chaosCmd(const Args& a) {
  const std::uint64_t seed = a.num<std::uint64_t>("seed", 7);
  const std::string campaign = a.get("campaign", "ci");
  const std::string ckDir = a.get("dir", ".vfpga_chaos");
  if (a.has("flight-dir")) {
    setenv("VFPGA_FLIGHT_DIR", a.get("flight-dir").c_str(), 1);
  }
  // Generation numbering continues from whatever is on disk (that is the
  // point of a durable store), so start from a clean slate — otherwise a
  // second run of the same seed would write different generation numbers
  // and the report would not be byte-identical.
  std::error_code ec;
  std::filesystem::remove_all(ckDir, ec);

  fault::FaultPlanSpec spec;
  spec.seed = seed;
  if (campaign == "ci") {
    spec.downloadCorruptRate = 0.20;
    spec.downloadAbortRate = 0.10;
    spec.stateCorruptRate = 0.15;
    spec.meanUpsetsPerScrub = 1.0;
    spec.execHangRate = 0.05;
  } else if (campaign == "stress") {
    spec.downloadCorruptRate = 0.35;
    spec.downloadAbortRate = 0.25;
    spec.stateCorruptRate = 0.30;
    spec.meanUpsetsPerScrub = 2.5;
    spec.execHangRate = 0.12;
    spec.stripFailures = {{millis(2), 9}};
  } else {
    std::fprintf(stderr, "error: unknown campaign '%s' (ci|stress)\n",
                 campaign.c_str());
    return 2;
  }
  fault::FaultPlan plan(spec);

  OsOptions opt = faultTolerantOptions(plan);
  opt.ft.checkpointDir = ckDir;
  opt.ft.checkpointInterval = micros(200);

  // The knob check covers the phase-C residency fault classes too.
  analysis::FaultToleranceProfile residency;
  residency.overlayStaleReuseRate = 0.35;
  residency.segmentTableCorruptRate = 0.35;
  residency.pageResidencyLossRate = 0.35;
  if (!faultKnobsOk(spec, opt, residency)) return 1;

  DeviceProfile p = profileByName(a.get("device", "medium_partial"));
  const Region strip = Region::columns(p.geometry, 0, 4);
  auto readFile = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };

  // ---- phase A part 1: run to the kill point, then die without finalize.
  const SimTime killAt = millis(1);
  const std::size_t kTasks = 8;
  {
    Device dev = p.makeDevice();
    ConfigPort port(dev, p.port);
    Compiler compiler(dev);
    Simulation sim;
    OsKernel kernel(sim, dev, port, compiler, opt);
    const auto cfgs = registerCampaign(kernel, compiler, strip);
    for (std::size_t i = 0; i < kTasks; ++i) {
      TaskSpec t;
      t.name = "ch" + std::to_string(i);
      t.arrival = static_cast<SimTime>(i) * micros(120);
      t.ops = {CpuBurst{micros(30)}, FpgaExec{cfgs[i % 3], 20000 + 5000 * i},
               CpuBurst{micros(20)}};
      kernel.addTask(std::move(t));
    }
    kernel.start();
    while (sim.step() && sim.now() < killAt) {
    }
    // Scope exit without finalize(): this is the kernel dying. Whatever
    // reached disk is all the restart gets.
  }

  // ---- phase A part 2: seeded tampering with the checkpoint slots.
  std::uint64_t tamperTruncated = 0;
  std::uint64_t tamperRotten = 0;
  std::uint64_t tamperStale = 0;
  std::uint64_t leftIntact = 0;
  std::size_t diskTasks = 0;
  {
    fault::CheckpointStore store(ckDir);
    Rng rng(seed ^ 0xc5a0c5a0ull);
    for (const std::string& task : store.taskNames()) {
      ++diskTasks;
      const auto lr = store.load(task);
      if (!lr.ok) continue;  // the kill itself already broke this pair
      // Tamper with the *newest* valid generation so recovery must fall
      // back (or, when it was the only slot, park with a diagnostic).
      const auto slot = static_cast<unsigned>(lr.generation & 1);
      const std::string path = store.slotPaths(task)[slot];
      std::string bytes = readFile(path);
      if (bytes.size() < fault::kCheckpointHeaderBytes + 4) continue;
      // Cycle the corruption class (seeded positions within it) so every
      // run exercises truncation, bit rot, stale generations AND a clean
      // untampered restore.
      switch ((diskTasks - 1 + seed) % 4) {
        case 0:  // truncation (a crash mid-write cut the file short)
          bytes.resize(bytes.size() / 2);
          ++tamperTruncated;
          break;
        case 1: {  // bit rot in the payload (or its trailing CRC)
          const std::size_t payload = fault::kCheckpointHeaderBytes;
          const std::size_t idx =
              payload +
              static_cast<std::size_t>(rng.below(bytes.size() - payload));
          bytes[idx] = static_cast<char>(bytes[idx] ^
                                         (1 << rng.below(8)));
          ++tamperRotten;
          break;
        }
        case 2: {  // stale generation: re-stamp the header out of parity
          const std::vector<std::uint8_t> forged =
              fault::encodeCheckpoint(lr.checkpoint, lr.generation + 1);
          bytes.assign(forged.begin(), forged.end());
          ++tamperStale;
          break;
        }
        default:
          ++leftIntact;
          continue;
      }
      if (!writeFile(path, bytes)) return 3;
    }
  }
  const std::uint64_t tampered =
      tamperTruncated + tamperRotten + tamperStale;

  // ---- phase A part 3: fresh kernel, same directory — restore or reject.
  std::uint64_t detectedSlots = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t parkedDiag = 0;
  std::uint64_t restored = 0;
  std::uint64_t congruenceRejects = 0;
  std::uint64_t ckErrorSlots = 0;
  std::size_t restoredFinished = 0;
  std::size_t restoredParked = 0;
  double restartMakespanMs = 0.0;
  {
    Device dev = p.makeDevice();
    ConfigPort port(dev, p.port);
    Compiler compiler(dev);
    Simulation sim;
    OsKernel kernel(sim, dev, port, compiler, opt);
    registerCampaign(kernel, compiler, strip);
    fault::CheckpointStore* store = kernel.checkpointStore();
    for (const std::string& task : store->taskNames()) {
      // Per-slot CK lint: every rejected slot must be named by a rule.
      const std::vector<std::string> paths = store->slotPaths(task);
      for (unsigned slot = 0; slot < 2; ++slot) {
        std::ifstream in(paths[slot], std::ios::binary);
        if (!in) continue;
        std::vector<std::uint8_t> bytes(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        const fault::DecodeResult dr = fault::decodeCheckpoint(bytes);
        analysis::CheckpointProfile cp;
        cp.magicOk = dr.magicOk;
        cp.versionSupported = dr.versionSupported;
        cp.version = dr.version;
        cp.payloadCrcOk = dr.payloadCrcOk;
        cp.stateCrcOk = dr.stateCrcOk;
        cp.generationParityOk =
            !dr.magicOk || (dr.generation & 1) == slot;
        cp.stateBits = dr.checkpoint.registers.size();
        analysis::Report rep;
        analysis::lintCheckpoint(cp, rep);
        if (!rep.ok()) ++ckErrorSlots;
      }
      const auto lr = store->load(task);
      detectedSlots += lr.corruptSlots;
      if (lr.fellBack) ++fallbacks;
      if (!lr.ok) {
        // No intact generation: a clean, diagnosed park — never a guess.
        ++parkedDiag;
        continue;
      }
      try {
        kernel.restoreTask(lr.checkpoint);
        ++restored;
      } catch (const std::runtime_error&) {
        ++congruenceRejects;
      }
    }
    kernel.run();
    for (const TaskRuntime& t : kernel.tasks()) {
      if (t.state == TaskState::kDone) ++restoredFinished;
      if (t.state == TaskState::kParked) ++restoredParked;
    }
    restartMakespanMs = toMilliseconds(kernel.metrics().makespan);
  }
  const bool phaseA = diskTasks > 0 && restored > 0 &&
                      congruenceRejects == 0 && restoredParked == 0 &&
                      restoredFinished == restored &&
                      detectedSlots >= tampered && ckErrorSlots >= tampered;

  // ---- phase B: bit-exact restore vs an uninterrupted reference.
  bool bitFellBack = false;
  bool equivOk = false;
  bool bitExact = false;
  std::uint64_t bitGen = 0;
  {
    fault::CheckpointStore store(ckDir);
    Device devA = p.makeDevice();
    Compiler ca(devA);
    const CompiledCircuit cc =
        ca.compile(named(lib::makeCounter(6), "bx_counter"),
                   Region::columns(devA.geometry(), 0, 4));
    devA.applyBitstream(cc.fullBitstream());
    LoadedCircuit la(devA, cc);
    la.applyInitialState();
    auto clock = [](LoadedCircuit& lc, int cycles) {
      lc.setInput("en", true);
      lc.setInput("clr", false);
      for (int i = 0; i < cycles; ++i) {
        lc.evaluate();
        lc.tick();
      }
      lc.evaluate();
    };
    clock(la, 23);

    fault::TaskCheckpoint ck;
    ck.task = "bitexact";
    ck.device = std::to_string(devA.geometry().cols) + "x" +
                std::to_string(devA.geometry().rows);
    ck.placementX0 = 0;
    ck.placementWidth = 4;
    fault::CheckpointOp op;
    op.isFpga = true;
    op.config = "bx_counter";
    op.configWidth = 4;
    op.cycles = 41;
    ck.ops = {op};
    ck.registers = la.saveState();
    store.write(ck);
    const auto w2 = store.write(ck);
    {  // rot the newest generation: the load below must fall back
      std::string bytes = readFile(w2.path);
      const std::size_t payload = fault::kCheckpointHeaderBytes;
      bytes[payload + (bytes.size() - payload) / 2] ^= 0x40;
      if (!writeFile(w2.path, bytes)) return 3;
    }
    const auto lr = store.load("bitexact");
    bitFellBack = lr.ok && lr.fellBack;
    bitGen = lr.generation;
    if (lr.ok) {
      // Restore onto a *different strip* of a fresh device — the repaired-
      // device path — via pure relocation, proven equivalent before any
      // state is written back.
      Device devB = p.makeDevice();
      Compiler cb(devB);
      const CompiledCircuit cr = cb.relocate(cc, 4);
      devB.applyBitstream(cr.fullBitstream());
      try {
        analysis::equiv::verifyConfiguredOrThrow(devB, cr,
                                                 "chaos bit-exact restore");
        equivOk = true;
      } catch (const std::exception&) {
        equivOk = false;
      }
      if (equivOk) {
        LoadedCircuit lb(devB, cr);
        lb.restoreState(lr.checkpoint.registers);
        clock(lb, 41);
        Device devR = p.makeDevice();
        devR.applyBitstream(cc.fullBitstream());
        LoadedCircuit lref(devR, cc);
        lref.applyInitialState();
        clock(lref, 64);
        bitExact = lb.outputBus("q", 6) == lref.outputBus("q", 6) &&
                   lb.saveState() == lref.saveState();
      }
    }
  }
  const bool phaseB = bitFellBack && bitGen == 1 && equivOk && bitExact;

  // ---- phase C: technique-manager residency fault classes.
  fault::FaultPlanSpec mspec;
  mspec.seed = seed + 101;
  mspec.overlayStaleReuseRate = 0.35;
  mspec.segmentTableCorruptRate = 0.35;
  mspec.pageResidencyLossRate = 0.35;
  fault::FaultPlan mplan(mspec);
  std::uint64_t ovDet = 0, ovSil = 0;
  std::uint64_t sgDet = 0, sgSil = 0;
  std::uint64_t pgDet = 0, pgSil = 0;
  {
    Device dev = p.makeDevice();
    ConfigPort port(dev, p.port);
    Compiler compiler(dev);
    OverlayManager om(dev, port, compiler, 4);
    om.setFaultPlan(&mplan);
    om.installResident(
        compiler.compile(named(lib::makeChecksum(6), "cm_common"),
                         Region::columns(dev.geometry(), 0, 4)));
    const OverlayId o1 = om.addOverlay(
        compiler.compile(named(lib::makeCounter(6), "cm_f1"),
                         Region::columns(dev.geometry(), 0, 4)));
    for (int i = 0; i < 24; ++i) om.invoke(o1);  // 23 hits draw the fault
    ovDet = om.staleReusesDetected();
    ovSil = om.silentStaleReuses();
  }
  {
    Device dev = p.makeDevice();
    ConfigPort port(dev, p.port);
    Compiler compiler(dev);
    SegmentManager sm(dev, port, compiler, ReplacementPolicy::kLru);
    sm.setFaultPlan(&mplan);
    std::vector<SegmentId> segs;
    for (int i = 0; i < 2; ++i) {
      Netlist nl = lib::makeCounter(6);
      nl.setName("sg" + std::to_string(i));
      segs.push_back(sm.addSegment(
          compiler.compile(nl, Region::columns(dev.geometry(), 0, 5))));
    }
    for (int i = 0; i < 24; ++i) sm.access(segs[i % 2]);
    sgDet = sm.tableCorruptionsDetected();
    sgSil = sm.silentTableCorruptions();
  }
  {
    PageManager pm(p.port, 128, PageManagerOptions{4, 16});
    pm.setFaultPlan(&mplan);
    const ConfigId f = pm.addFunction(10);
    for (int i = 0; i < 24; ++i) pm.access(f);
    pgDet = pm.residencyLossesDetected();
    pgSil = pm.silentResidencyLosses();
  }
  const fault::FaultCounters& mc = mplan.counters();
  const std::uint64_t silentTotal = ovSil + sgSil + pgSil;
  const bool phaseC = silentTotal == 0 && (ovDet + sgDet + pgDet) > 0;

  const bool survived = phaseA && phaseB && phaseC;
  char buf[512];
  std::string out;
  auto line = [&](const char* fmt2, auto... args2) {
    std::snprintf(buf, sizeof buf, fmt2, args2...);
    out += buf;
  };
  auto yn = [](bool b) { return b ? "yes" : "no"; };
  line("vfpga chaos campaign report\n");
  line("===========================\n");
  line("campaign: %s\nseed: %llu\ndevice: %s\ncheckpoint dir: %s\n\n",
       campaign.c_str(), ull(seed), p.name.c_str(), ckDir.c_str());
  line("phase A: kill-restore-verify (killed at %llu ns)\n", ull(killAt));
  line("  tasks with checkpoints on disk: %zu / %zu\n", diskTasks, kTasks);
  line("  slots tampered:              %llu (truncated %llu, rotten %llu,"
       " stale-gen %llu, intact %llu)\n",
       ull(tampered), ull(tamperTruncated), ull(tamperRotten),
       ull(tamperStale), ull(leftIntact));
  line("  corrupt slots detected:      %llu\n", ull(detectedSlots));
  line("  CK-lint flagged slots:       %llu\n", ull(ckErrorSlots));
  line("  fallbacks to older gen:      %llu\n", ull(fallbacks));
  line("  parked with diagnostic:      %llu\n", ull(parkedDiag));
  line("  congruence rejections:       %llu\n", ull(congruenceRejects));
  line("  tasks restored:              %llu\n", ull(restored));
  line("  restored tasks finished:     %zu (parked %zu)\n",
       restoredFinished, restoredParked);
  line("  restart makespan:            %.3f ms\n", restartMakespanMs);
  line("  phase survived:              %s\n\n", yn(phaseA));
  line("phase B: bit-exact restore (fallback + relocation)\n");
  line("  fell back past rotten gen:   %s (restored generation %llu)\n",
       yn(bitFellBack), ull(bitGen));
  line("  equivalence proof:           %s\n", yn(equivOk));
  line("  registers match reference:   %s\n", yn(bitExact));
  line("  phase survived:              %s\n\n", yn(phaseB));
  line("phase C: manager residency faults (verification on)\n");
  line("  overlay stale reuses:        injected %llu detected %llu"
       " silent %llu\n",
       ull(mc.staleOverlayReuses), ull(ovDet), ull(ovSil));
  line("  segment table corruptions:   injected %llu detected %llu"
       " silent %llu\n",
       ull(mc.segmentTableCorruptions), ull(sgDet), ull(sgSil));
  line("  page residency losses:       injected %llu detected %llu"
       " silent %llu\n",
       ull(mc.pageResidencyLosses), ull(pgDet), ull(pgSil));
  line("  phase survived:              %s\n\n", yn(phaseC));
  line("silent wrong state: %llu\n", ull(silentTotal));
  line("survived: %s\n", yn(survived));

  const int rc = emitPayload(a, out);
  if (rc != 0) return rc;
  return survived ? 0 : 1;
}

/// A cluster campaign's nodes: `devices` medium_partial devices named
/// dev0, dev1, ...; dev1 is the unlucky one, faulted by `faulty`.
std::vector<cluster::DeviceNodeSpec> clusterNodes(
    std::size_t devices, const fault::FaultPlanSpec& faulty) {
  std::vector<cluster::DeviceNodeSpec> specs;
  for (std::size_t i = 0; i < devices; ++i) {
    cluster::DeviceNodeSpec s;
    s.name = "dev" + std::to_string(i);
    s.profile = mediumPartialProfile();
    if (i == 1) {
      s.faulty = true;
      s.faultSpec = faulty;
    }
    specs.push_back(std::move(s));
  }
  return specs;
}

/// The campaign circuits as 4-column cluster workloads.
std::array<cluster::WorkloadId, 3> registerClusterWorkloads(
    cluster::DevicePool& pool) {
  const std::array<Netlist, 3> nls = campaignNetlists();
  std::array<cluster::WorkloadId, 3> ids{};
  for (std::size_t i = 0; i < nls.size(); ++i) {
    ids[i] = pool.registerWorkload(nls[i].name(), nls[i], 4);
  }
  return ids;
}

/// Submits `jobs` seeded jobs, staggered ~120 us apart, each a CPU burst,
/// a run of a random workload and a second CPU burst.
void submitClusterJobs(cluster::ClusterScheduler& sched,
                       const std::array<cluster::WorkloadId, 3>& ws,
                       std::uint64_t seed, std::size_t jobs) {
  Rng rng(seed);
  for (std::size_t j = 0; j < jobs; ++j) {
    cluster::ClusterJobSpec job;
    job.name = "j" + std::to_string(j);
    job.submitAt = static_cast<SimTime>(j) * micros(120) +
                   rng.below(micros(60));
    job.priority = static_cast<int>(rng.below(3));
    job.ops = {CpuBurst{micros(20)},
               FpgaExec{ws[rng.below(3)], 15000 + 1000 * rng.below(20)},
               CpuBurst{micros(10)}};
    sched.submit(std::move(job));
  }
}

/// Seeded multi-device cluster campaign: N partitioned kernels sharing one
/// simulation and one content-addressed bitstream cache, admission
/// backpressure, pluggable placement and live migration off degraded
/// devices (with failback after transient faults heal). The report is
/// byte-identical per (seed, devices, policy, campaign); a copy always
/// lands in the obs output directory so repo-root stays clean. Exit 0 iff
/// every SLO was met.
int clusterCmd(const Args& a) {
  const std::uint64_t seed = a.num<std::uint64_t>("seed", 7);
  const std::size_t devices = a.num<std::size_t>("devices", 3);
  const std::string campaign = a.get("campaign", "ci");
  const std::string fmt = a.get("format", "text");
  if (devices < 2 || devices > 8) {
    std::fprintf(stderr, "cluster: --devices must be in [2, 8]\n");
    return 2;
  }
  if (fmt != "text" && fmt != "json") {
    std::fprintf(stderr, "cluster: unknown --format '%s' (text|json)\n",
                 fmt.c_str());
    return 2;
  }

  cluster::ClusterOptions copt;
  copt.placement =
      cluster::placementPolicyByName(a.get("policy", "least_loaded"));
  copt.minUsableColumns = 8;
  copt.maxJobsPerDevice = 3;
  std::size_t jobCount = 5 * devices;
  // dev1 is the unlucky device of every campaign; the others stay healthy.
  fault::FaultPlanSpec faulty;
  faulty.seed = seed + 1;
  if (campaign == "ci") {
    faulty.stripFailures = {{millis(2), 2}, {millis(4), 9}};
    copt.slos.maxRejectedFraction = 0.0;
    copt.slos.maxP99QueueWaitNs = millis(20);
  } else if (campaign == "heal") {
    // One transient fault: the strip heals after 3 ms and the rebalancer
    // migrates work back onto the recovered device.
    faulty.stripFailures = {{millis(2), 5, millis(3)}};
    copt.rebalanceGap = 2;
    copt.slos.maxRejectedFraction = 0.0;
    copt.slos.maxP99QueueWaitNs = millis(20);
  } else if (campaign == "stress") {
    faulty.stripFailures = {{millis(1), 2}, {millis(3), 9}};
    copt.admissionQueueDepth = 4;
    copt.maxJobsPerDevice = 2;
    jobCount = 10 * devices;
    copt.slos.maxRejectedFraction = 0.6;
    copt.slos.maxP99QueueWaitNs = millis(50);
  } else {
    std::fprintf(stderr, "cluster: unknown campaign '%s' (ci|heal|stress)\n",
                 campaign.c_str());
    return 2;
  }

  const std::vector<cluster::DeviceNodeSpec> specs =
      clusterNodes(devices, faulty);

  // Static sanity check of the campaign before anything runs (CL rules).
  {
    analysis::ClusterProfile prof;
    for (const auto& s : specs) {
      prof.deviceColumns.push_back(s.profile.geometry.cols);
    }
    prof.workloadWidths = {4, 4, 4};
    prof.admissionQueueDepth = copt.admissionQueueDepth;
    prof.minUsableColumns = copt.minUsableColumns;
    prof.rebalanceGap = copt.rebalanceGap;
    prof.anyStripFailures = true;
    analysis::Report rep;
    analysis::lintCluster(prof, rep);
    if (!rep.diagnostics().empty()) {
      std::fprintf(stderr, "%s", rep.renderText().c_str());
    }
    if (!rep.ok()) return 1;
  }

  Simulation sim;
  cluster::BitstreamCache cache(32);
  OsOptions base;
  base.priorityScheduling = true;
  cluster::DevicePool pool(sim, specs, cache, base);
  const auto ws = registerClusterWorkloads(pool);

  cluster::ClusterScheduler sched(sim, pool, copt);
  submitClusterJobs(sched, ws, seed, jobCount);
  sched.run();

  const std::string payload =
      fmt == "json" ? sched.renderJsonReport() : sched.renderReport();
  // Sidecar copy into the obs output directory (never the repo root). A
  // copy that cannot be written is reported but does not fail the run.
  const std::string side = obs::outputDir() + "/cluster_" + campaign + "_" +
                           cluster::placementPolicyName(copt.placement) +
                           "_" + std::to_string(seed) +
                           (fmt == "json" ? ".json" : ".txt");
  if (writeFile(side, payload)) {
    std::fprintf(stderr, "cluster: report sidecar %s\n", side.c_str());
  }
  const int rc = emitPayload(a, payload);
  if (rc != 0) return rc;
  return sched.summary().slosMet ? 0 : 1;
}

/// Continuous health monitor over a seeded cluster degradation campaign:
/// the ci cluster workload with dev1 losing two strips mid-run, watched by
/// a TimeSeriesStore + AlertEngine + HealthModel attached to the
/// scheduler. Every signal is sampled on a sim-time cadence and every
/// render is byte-identical per seed — the determinism ctest runs the
/// command twice and compares. Alert transitions land as span instants on
/// dev0's tracer and as flight-recorder notes. Exit code is the worst
/// firing severity at campaign end (0 none, 1 warning, 2 critical): a
/// healthy campaign resolves everything and exits 0.
int monitorCmd(const Args& a) {
  const std::uint64_t seed = a.num<std::uint64_t>("seed", 7);
  const std::size_t devices = a.num<std::size_t>("devices", 3);
  const std::size_t refresh = a.num<std::size_t>("refresh", 0);
  const std::string fmt = a.get("format", "text");
  if (devices < 2 || devices > 8) {
    std::fprintf(stderr, "monitor: --devices must be in [2, 8]\n");
    return 2;
  }
  if (fmt != "text" && fmt != "json" && fmt != "html") {
    std::fprintf(stderr, "monitor: unknown --format '%s' (text|json|html)\n",
                 fmt.c_str());
    return 2;
  }

  // The ci cluster campaign: dev1 is the unlucky device, losing strip
  // columns 2 and 9 at 2 ms and 4 ms while jobs keep arriving.
  cluster::ClusterOptions copt;
  copt.placement = cluster::PlacementPolicy::kLeastLoaded;
  copt.minUsableColumns = 8;
  copt.maxJobsPerDevice = 3;
  copt.slos.maxRejectedFraction = 0.0;
  copt.slos.maxP99QueueWaitNs = millis(20);
  fault::FaultPlanSpec faulty;
  faulty.seed = seed + 1;
  faulty.stripFailures = {{millis(2), 2}, {millis(4), 9}};

  const std::vector<cluster::DeviceNodeSpec> specs =
      clusterNodes(devices, faulty);

  Simulation sim;
  cluster::BitstreamCache cache(32);
  OsOptions base;
  base.priorityScheduling = true;
  cluster::DevicePool pool(sim, specs, cache, base);
  const auto ws = registerClusterWorkloads(pool);

  cluster::ClusterScheduler sched(sim, pool, copt);
  submitClusterJobs(sched, ws, seed, 5 * devices);

  // ---- signal plane ----
  const SimDuration interval = micros(50);
  obs::monitor::TimeSeriesStore store(4096);
  store.setSampleIntervalNs(interval);
  store.addSeries("cluster.queue_depth", [&sched] {
    return static_cast<double>(sched.queueDepth());
  });
  store.addSeries("cluster.oldest_wait_ns", [&sched] {
    return static_cast<double>(sched.oldestQueuedWaitNs());
  }, "ns");
  store.addSeries("cluster.p99_wait_ns", [&sched] {
    return static_cast<double>(sched.liveP99QueueWaitNs());
  }, "ns");
  store.addSeries("cluster.rejected_fraction", [&sched] {
    return sched.liveRejectedFraction();
  });
  // SLO badness series (fraction of ticks in [0,1]): a tick is bad when
  // some admitted job has been stuck in the queue longer than the burn
  // target — well under the hard 20 ms SLO, so the burn alert leads it.
  const SimDuration waitTarget = micros(300);
  store.addSeries("slo.wait_bad", [&sched, waitTarget] {
    return sched.oldestQueuedWaitNs() > waitTarget ? 1.0 : 0.0;
  });
  obs::monitor::HealthModel health;
  for (std::size_t d = 0; d < devices; ++d) {
    const std::string prefix = "dev" + std::to_string(d) + ".";
    bindKernelSeries(store, pool.node(d).kernel(), prefix);
    // Named OUTSIDE the "devN." attribution prefix: an alert on the score
    // would otherwise feed back into the score it watches (firing-alert
    // weight), and a self-sustained alert can never resolve.
    const std::string name = "dev" + std::to_string(d);
    store.addSeries("health." + name + ".score",
                    [&health, name] { return health.score(name); });
  }

  // ---- alert rules ----
  obs::monitor::AlertEngine engine;
  {
    using namespace obs::monitor;
    AlertRule burn;
    burn.name = "slo_wait_burn";
    burn.series = "slo.wait_bad";
    burn.kind = RuleKind::kBurnRate;
    burn.severity = AlertSeverity::kCritical;
    burn.objective = 0.10;  // 10% of ticks may exceed the wait target
    burn.burnFactor = 2.0;
    burn.windowNs = micros(400);
    burn.longWindowNs = micros(1600);
    burn.forNs = micros(100);
    burn.resolveNs = micros(300);
    engine.addRule(burn);

    AlertRule reject;
    reject.name = "reject_burn";
    reject.series = "cluster.rejected_fraction";
    reject.kind = RuleKind::kBurnRate;
    reject.severity = AlertSeverity::kCritical;
    reject.objective = 0.01;
    reject.burnFactor = 1.0;
    reject.windowNs = micros(400);
    reject.longWindowNs = micros(1600);
    engine.addRule(reject);

    AlertRule cols;
    cols.name = "dev1_capacity_drop";
    cols.series = "dev1.usable_columns";
    cols.kind = RuleKind::kRateOfChange;
    cols.severity = AlertSeverity::kWarning;
    cols.threshold = -1.0;  // any sustained column loss per second
    cols.above = false;
    cols.windowNs = micros(200);
    cols.resolveNs = micros(200);
    engine.addRule(cols);

    AlertRule score;
    score.name = "dev1_health_degraded";
    score.series = "health.dev1.score";
    score.kind = RuleKind::kThreshold;
    score.severity = AlertSeverity::kCritical;
    score.threshold = health.options().degradedAt;
    score.forNs = micros(100);
    score.resolveNs = micros(200);
    engine.addRule(score);

    AlertRule anomaly;
    anomaly.name = "queue_depth_anomaly";
    anomaly.series = "cluster.queue_depth";
    anomaly.kind = RuleKind::kEwmaZScore;
    anomaly.severity = AlertSeverity::kWarning;
    anomaly.ewmaAlpha = 0.2;
    anomaly.zThreshold = 3.0;
    anomaly.warmupSamples = 10;
    anomaly.resolveNs = micros(200);
    engine.addRule(anomaly);

    AlertRule parked;
    parked.name = "dev1_parked_tasks";
    parked.series = "dev1.parked";
    parked.kind = RuleKind::kThreshold;
    parked.severity = AlertSeverity::kCritical;
    parked.threshold = 0.5;
    engine.addRule(parked);
  }

  // Static sanity check of the monitor setup before anything runs (MO
  // rules), same pattern as the cluster lint.
  {
    analysis::MonitorProfile prof;
    prof.seriesNames = store.seriesNames();
    for (const obs::monitor::RuleStatus& rs : engine.rules()) {
      analysis::MonitorRuleProfile rp;
      rp.name = rs.rule.name;
      rp.series = rs.rule.series;
      rp.kind = obs::monitor::ruleKindName(rs.rule.kind);
      rp.windowNs = rs.rule.windowNs;
      rp.longWindowNs = rs.rule.longWindowNs;
      rp.isBurnRate = rs.rule.kind == obs::monitor::RuleKind::kBurnRate;
      rp.isRateOfChange =
          rs.rule.kind == obs::monitor::RuleKind::kRateOfChange;
      prof.rules.push_back(std::move(rp));
    }
    prof.sampleIntervalNs = interval;
    prof.healthAttached = true;
    prof.healthHasFaultInputs = health.hasFaultInputs();
    analysis::Report rep;
    analysis::lintMonitor(prof, rep);
    if (!rep.diagnostics().empty()) {
      std::fprintf(stderr, "%s", rep.renderText().c_str());
    }
    if (!rep.ok()) return 1;
  }

  // Alert transitions land on dev0's span track and in the flight
  // recorder's note ring, so a post-mortem shows what was firing.
  obs::FlightRecorder::Options fro;
  fro.directory = obs::outputDir();
  obs::FlightRecorder recorder(fro);
  obs::FlightRecorder* prevRecorder =
      obs::FlightRecorder::installGlobal(&recorder);
  engine.setTransitionObserver(
      [&pool](const obs::monitor::AlertTransition& t) {
        pool.node(0).kernel().spanTracer().instantAt(
            t.atNs, "alert/" + t.rule, "monitor.alert",
            {{"rule", t.rule},
             {"to", t.to},
             {"severity", obs::monitor::alertSeverityName(t.severity)},
             {"value", obs::formatDouble(t.value)}},
            0);
        if (obs::FlightRecorder* fr = obs::FlightRecorder::global()) {
          fr->note(t.atNs, "alert " + t.rule + " -> " + t.to);
        }
      });

  cluster::ClusterScheduler::MonitorAttachment mon;
  mon.store = &store;
  mon.engine = &engine;
  mon.health = &health;
  mon.sampleInterval = interval;
  sched.attachMonitor(mon);

  // Live refresh: N dashboard frames to stderr while the campaign runs,
  // evenly spaced over the first 6 ms (the campaign's active span).
  if (refresh > 0) {
    const SimDuration span = millis(6);
    for (std::size_t f = 1; f <= refresh; ++f) {
      sim.scheduleAt(span * f / refresh, [&store, &engine, &health, &sim] {
        obs::monitor::DashboardInput frame;
        frame.store = &store;
        frame.engine = &engine;
        frame.health = &health;
        frame.title = "vfpga monitor (live)";
        frame.atNs = sim.now();
        const std::string text = obs::monitor::renderMonitorText(frame);
        std::fprintf(stderr, "%s\n", text.c_str());
      });
    }
  }

  sched.run();
  obs::FlightRecorder::installGlobal(prevRecorder);

  obs::monitor::DashboardInput in;
  in.store = &store;
  in.engine = &engine;
  in.health = &health;
  in.title = "vfpga monitor - degradation campaign, seed " +
             std::to_string(seed);
  in.atNs = store.lastTickNs();
  const std::string text = obs::monitor::renderMonitorText(in);
  const std::string json = obs::monitor::renderMonitorJson(in);
  const std::string html = obs::monitor::renderMonitorHtml(in);

  // Sidecar copies of all three renders into the obs output directory
  // (never the repo root); the CI determinism job compares them bytewise.
  // As for cluster, a copy that cannot be written does not fail the run.
  const std::string stem =
      obs::outputDir() + "/monitor_ci_" + std::to_string(seed);
  struct SidecarFile {
    const char* ext;
    const std::string* payload;
  };
  const SidecarFile sidecars[3] = {
      {".txt", &text}, {".json", &json}, {".html", &html}};
  for (const SidecarFile& sc : sidecars) {
    const std::string path = stem + sc.ext;
    if (writeFile(path, *sc.payload)) {
      std::fprintf(stderr, "monitor: sidecar %s\n", path.c_str());
    }
  }

  const std::string& payload =
      fmt == "json" ? json : fmt == "html" ? html : text;
  const int rc = emitPayload(a, payload);
  if (rc != 0) return rc;
  // Grade the exit by what is *still* firing: a campaign whose alerts all
  // resolved exits 0 even though incidents happened along the way.
  return engine.worstFiringGrade();
}

/// Deterministic partitioned workload with scripted permanent strip
/// failures: every allocator mutation (allocate / release / relocate /
/// quarantine) appends one row to the per-column occupancy matrix. The
/// whole stack is seeded and event-driven, so the CSV/JSON/HTML renders
/// are byte-identical for a given seed and device — the determinism ctest
/// runs the command twice and compares.
int heatmapCmd(const Args& a) {
  const std::string fmt = a.get("format", "csv");
  if (fmt != "csv" && fmt != "json" && fmt != "html") {
    std::fprintf(stderr, "heatmap: unknown --format '%s' (csv|json|html)\n",
                 fmt.c_str());
    return 2;
  }
  const DeviceProfile p = profileByName(a.get("device", "medium_partial"));
  StripFailureCampaign campaign(p, a.num<std::uint64_t>("seed", 7));
  obs::HeatmapCollector heatmap(
      static_cast<std::uint16_t>(campaign.dev.geometry().cols));
  campaign.kernel.attachHeatmap(&heatmap);
  campaign.run("hm");

  std::fprintf(stderr, "heatmap: %zu samples x %u columns\n",
               heatmap.samples().size(), heatmap.columns());
  const std::string payload =
      fmt == "csv"    ? heatmap.renderCsv()
      : fmt == "json" ? heatmap.renderJson()
                      : heatmap.renderHtml("vfpga occupancy - " + p.name);
  return emitPayload(a, payload);
}

/// Hierarchical profile of a seeded two-phase campaign. Phase 1 drives the
/// three report circuits on a probe-instrumented device for --cycles clock
/// cycles each, sampling per-LUT evaluations, net toggles and switchbox
/// traversals into the hot-cone report. Phase 2 reruns the heatmap
/// fault-recovery campaign under the partitioned kernel and folds its span
/// tree into the task waterfall, the per-task resource ledger, and (for
/// --format collapsed|speedscope) a flamegraph. Everything downstream of
/// the seed is event-driven, so all four formats are byte-identical per
/// seed — the determinism ctest runs the command twice and compares.
/// Exit 0 iff the profile is complete: every task produced spans and (when
/// the activity section is selected) the probe saw fabric activity.
int profileCmd(const Args& a) {
  const std::string fmt = a.get("format", "text");
  const bool flame = fmt == "collapsed" || fmt == "speedscope";
  if (fmt != "text" && fmt != "json" && !flame) {
    std::fprintf(stderr,
                 "profile: unknown --format '%s'"
                 " (text|json|collapsed|speedscope)\n",
                 fmt.c_str());
    return 2;
  }
  // Section selectors; none selected = the full profile. The flamegraph
  // formats render the span tree itself and ignore the selectors.
  const bool selActivity = a.has("activity");
  const bool selWaterfall = a.has("waterfall");
  const bool selLedger = a.has("ledger");
  const bool allSections = !selActivity && !selWaterfall && !selLedger;
  const std::size_t topk = a.num<std::size_t>("top", 10);

  DeviceProfile p = profileByName(a.get("device", "medium_partial"));

  // Phase 1: fabric activity under real evaluation, on a dedicated device
  // so the campaign below starts from a blank fabric.
  obs::profile::ActivityAggregator activity;
  if (!flame && (allSections || selActivity)) {
    Device dev = p.makeDevice();
    Compiler compiler(dev);
    ActivityProbe probe;
    dev.attachActivityProbe(&probe);
    const int cycles = a.num("cycles", 256);
    Rng rng(a.num<std::uint64_t>("seed", 7));
    std::vector<CompiledCircuit> circuits;
    for (const Netlist& nl : campaignNetlists()) {
      circuits.push_back(
          compiler.compile(nl, Region::columns(p.geometry, 0, 4)));
    }
    for (const CompiledCircuit& c : circuits) {
      dev.applyBitstream(c.fullBitstream());
      LoadedCircuit lc(dev, c);
      lc.applyInitialState();
      for (int cycle = 0; cycle < cycles; ++cycle) {
        for (const PortBinding& pb : c.ports) {
          if (pb.isInput) lc.setInput(pb.name, rng.bernoulli(0.5));
        }
        dev.evaluate();
        dev.tick();
      }
    }
    collectActivity(probe, activity);
  }

  // Phase 2: the heatmap campaign — scripted strip failures, scrubbing,
  // quarantine recovery — whose span tree feeds the waterfall/ledger.
  StripFailureCampaign campaign(p, a.num<std::uint64_t>("seed", 7));
  campaign.run("pf");
  OsKernel& kernel = campaign.kernel;

  const std::vector<std::string> names = taskTrackNames(kernel);
  const obs::profile::WaterfallReport wf =
      obs::profile::buildWaterfall(kernel.spanTracer(), names);
  obs::profile::ResourceLedger ledger = buildLedger(kernel);
  ledger.publish(kernel.metricsRegistry());

  const bool complete =
      wf.complete &&
      (flame || !(allSections || selActivity) || activity.totalEvals() > 0);
  std::fprintf(stderr,
               "profile: %zu sites, %llu evals, %zu tasks, makespan %llu ns,"
               " critical %s, %s\n",
               activity.siteCount(), ull(activity.totalEvals()),
               wf.tasks.size(), ull(wf.makespanNs), wf.total.criticalPhase(),
               complete ? "complete" : "INCOMPLETE");

  std::string payload;
  if (flame) {
    obs::profile::FlamegraphInput input;
    input.tracer = &kernel.spanTracer();
    input.processName = "os/partitioned_variable";
    input.trackNames = names;
    payload = fmt == "collapsed"
                  ? renderCollapsedStacks(input)
                  : renderSpeedscope(input, "vfpga profile - " + p.name);
  } else if (fmt == "json") {
    obs::JsonWriter w(payload);
    w.beginObject();
    if (allSections || selActivity) {
      w.newline().key("activity").token(activity.renderJson(topk));
    }
    if (allSections || selWaterfall) {
      w.newline().key("waterfall").token(renderJson(wf));
    }
    if (allSections || selLedger) {
      w.newline().key("ledger").token(ledger.renderJson());
    }
    w.endObject();
    payload += '\n';
  } else {
    std::ostringstream os;
    if (allSections || selActivity) {
      os << activity.renderText(topk) << "\n";
    }
    if (allSections || selWaterfall) os << renderText(wf) << "\n";
    if (allSections || selLedger) os << ledger.renderText();
    payload = os.str();
  }
  const int rc = emitPayload(a, payload);
  if (rc != 0) return rc;
  return complete ? 0 : 1;
}

/// Compares BENCH_*.json sidecars in --dir against the committed baseline
/// file. Only metrics named in the baseline participate (new metrics never
/// fail the build); a metric missing from the sidecars, or drifting beyond
/// the tolerance band, does. The sim-derived bench numbers are
/// deterministic and machine-independent, so the band only absorbs
/// intentional model changes.
int benchTrendCmd(const Args& a) {
  const std::string dir = a.get("dir", obs::outputDir());
  const std::string baselinePath = a.get("baseline", "bench/baselines.json");

  std::ifstream bin(baselinePath);
  if (!bin) {
    std::fprintf(stderr, "error: cannot open baseline %s\n",
                 baselinePath.c_str());
    return 3;
  }
  std::stringstream bbuf;
  bbuf << bin.rdbuf();
  obs::JsonValue baseline;
  try {
    baseline = obs::JsonValue::parse(bbuf.str());
  } catch (const obs::JsonError& e) {
    std::fprintf(stderr, "error: %s: %s\n", baselinePath.c_str(), e.what());
    return 3;
  }
  const double tol = a.num(
      "tolerance",
      baseline.has("tolerance") ? baseline.at("tolerance").asNumber() : 0.2);

  // Current values, flattened to "<sidecar-stem>/<metric>{labels}" keys
  // (gauges and counters; multi-field stats/histograms are skipped).
  std::map<std::string, double> current;
  std::size_t sidecars = 0;
  try {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string fname = entry.path().filename().string();
      if (fname.rfind("BENCH_", 0) != 0 ||
          entry.path().extension() != ".json") {
        continue;
      }
      std::ifstream in(entry.path());
      std::stringstream buf;
      buf << in.rdbuf();
      obs::JsonValue doc;
      try {
        doc = obs::JsonValue::parse(buf.str());
      } catch (const obs::JsonError& e) {
        std::fprintf(stderr, "error: %s: %s\n",
                     entry.path().string().c_str(), e.what());
        return 3;
      }
      ++sidecars;
      const std::string stem = entry.path().stem().string();
      for (const obs::JsonValue& m : doc.asArray()) {
        if (!m.has("value")) continue;
        std::string key = stem + "/" + m.at("name").asString() + "{";
        bool first = true;
        for (const auto& [lk, lv] : m.at("labels").asObject()) {
          if (!first) key += ",";
          first = false;
          key += lk + "=" + lv.asString();
        }
        key += "}";
        current[key] = m.at("value").asNumber();
      }
    }
  } catch (const std::filesystem::filesystem_error& e) {
    std::fprintf(stderr, "error: cannot scan %s: %s\n", dir.c_str(),
                 e.what());
    return 3;
  }

  const obs::JsonValue::Object& metrics = baseline.at("metrics").asObject();
  std::size_t compared = 0;
  std::size_t missing = 0;
  std::size_t regressions = 0;
  const auto g15 = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.15g", v);
    return std::string(buf);
  };
  std::string trend;
  obs::JsonWriter w(trend);
  w.beginObject().newline().key("tolerance").token(g15(tol)).newline()
      .key("rows").beginArray();
  for (const auto& [key, bv] : metrics) {
    const double base = bv.asNumber();
    const auto it = current.find(key);
    double cur = 0.0;
    double delta = 0.0;
    const char* status = "missing";
    if (it == current.end()) {
      ++missing;
      std::fprintf(stderr, "bench-trend: MISSING %s (no sidecar value)\n",
                   key.c_str());
    } else {
      cur = it->second;
      ++compared;
      delta = (cur - base) / std::max(std::fabs(base), 1e-12);
      if (std::fabs(delta) <= tol) {
        status = "ok";
      } else {
        status = "regression";
        ++regressions;
        std::fprintf(stderr,
                     "bench-trend: REGRESSION %s: baseline %.6g current"
                     " %.6g (%+.1f%%)\n",
                     key.c_str(), base, cur, 100.0 * delta);
      }
    }
    w.newline().beginObject().key("metric").value(key).key("baseline")
        .token(g15(base)).key("current").token(g15(cur)).key("delta")
        .token(g15(delta)).key("status").value(status).endObject();
  }
  w.newline().endArray().newline().key("sidecars").value(sidecars)
      .key("compared").value(compared).key("new")
      .value(current.size() - compared).key("missing").value(missing)
      .key("regressions").value(regressions).newline().endObject();
  trend += '\n';
  std::fprintf(stderr,
               "bench-trend: %zu sidecars, %zu compared, %zu missing,"
               " %zu regressions (tolerance +/-%.0f%%)\n",
               sidecars, compared, missing, regressions, 100.0 * tol);
  const int rc = emitPayload(a, trend);
  if (rc != 0) return rc;
  return regressions == 0 && missing == 0 ? 0 : 1;
}

// ---- compiled: compiled fast path differential campaign --------------------

/// Deterministic compiled-fast-path campaign: the differential oracle over
/// the full circuit library (interpretive reference vs compiled scalar
/// engine vs 64-wide batch), the mandatory-invalidation stages (download,
/// relocate, scrub repair, blank + resume) with a CP lint check on the
/// long-lived engine, and a seeded LUT-bit corruption corpus where the two
/// paths must agree on whatever the corrupted image computes. Output is
/// byte-identical per (device, seed, cycles) — CI runs it twice and cmp's.
/// Exit 0 iff every stage passes.
int compiledCmd(const Args& a) {
  DeviceProfile p = profileByName(a.get("device", "medium_partial"));
  const std::uint64_t seed = a.num<std::uint64_t>("seed", 1);
  const auto cycles = a.num<std::uint32_t>("cycles", 96);

  char buf[512];
  std::string out;
  auto line = [&](const char* fmt2, auto... args2) {
    std::snprintf(buf, sizeof buf, fmt2, args2...);
    out += buf;
  };
  bool fail = false;
  compiled::CompiledKernelCache cache(32);

  line("vfpga compiled fast path campaign\n");
  line("=================================\n");
  line("device: %s\nseed: %llu\ncycles per stage: %u\n\n",
       a.get("device", "medium_partial").c_str(), ull(seed), cycles);

  line("differential oracle: interpretive reference vs compiled scalar vs"
       " batch64\n");
  line("%-14s %5s %5s %5s %6s %6s %6s %16s  %s\n", "circuit", "cols", "cells",
       "ops", "levels", "served", "diverg", "ref-digest", "extract");
  for (const AppCircuit& app : workloads::allSuites()) {
    Device dev = p.makeDevice();
    Compiler compiler(dev);
    const CompiledCircuit c =
        workloads::compileMinimal(compiler, app.netlist, seed);
    dev.applyBitstream(c.fullBitstream());
    compiled::OracleOptions opt;
    opt.cycles = cycles;
    opt.seed = seed;
    const compiled::OracleReport rep =
        compiled::runDifferentialOracle(dev, c, opt, &cache);
    fail = fail || !rep.ok() || !rep.servedCompiled;
    line("%-14s %5u %5llu %5llu %6llu %6s %6llu %016llx  %s\n",
         app.name.c_str(), static_cast<unsigned>(c.region.w),
         ull(rep.extractedCells), ull(rep.programOps), ull(rep.programLevels),
         rep.servedCompiled ? "yes" : "NO", ull(rep.divergences),
         ull(rep.referenceDigest), rep.extractionOk ? "ok" : "FAIL");
    for (const std::string& prob : rep.problems) {
      line("    ! %s\n", prob.c_str());
    }
  }

  line("\nreconfiguration invalidation stages (ct_counter, long-lived"
       " engine)\n");
  {
    Device dev = p.makeDevice();
    Compiler compiler(dev);
    ConfigPort port(dev, p.port);
    const AppCircuit app = workloads::appCircuitByName("ct_counter");
    const CompiledCircuit c =
        workloads::compileMinimal(compiler, app.netlist, seed);
    compiled::CompiledFabric engine(dev, &cache);
    auto stage = [&](const char* name, const CompiledCircuit& cur) {
      compiled::OracleOptions opt;
      opt.cycles = cycles;
      opt.seed = seed;
      const compiled::OracleReport rep =
          compiled::runDifferentialOracle(dev, cur, opt, &cache);
      fail = fail || !rep.ok() || !rep.servedCompiled;
      dev.evaluate();  // the long-lived engine re-resolves here
      const compiled::CompiledFabricStats& st = engine.stats();
      line("  %-14s ok=%-3s builds=%llu hits=%llu invalidations=%llu"
           " fallbacks=%llu\n",
           name, rep.ok() && rep.servedCompiled ? "yes" : "NO",
           ull(st.builds), ull(st.hits), ull(st.invalidations),
           ull(st.fallbacks));
      for (const std::string& prob : rep.problems) {
        line("    ! %s\n", prob.c_str());
      }
    };
    dev.applyBitstream(c.fullBitstream());
    port.resyncExpected();
    stage("download", c);

    const std::uint16_t newX0 =
        static_cast<std::uint16_t>(dev.geometry().cols - c.region.w);
    const CompiledCircuit moved = compiler.relocate(c, newX0);
    dev.clearConfig();
    dev.applyBitstream(moved.fullBitstream());
    port.resyncExpected();
    stage("relocate", moved);

    // An upset lands on a live LUT; the scrubber repairs it via the port.
    const Elaboration::Cell& cell = dev.elaboration().cells.front();
    const std::uint32_t upsetBit =
        dev.configMap().clbLutBit(cell.x, cell.y, 0);
    dev.setConfigBit(upsetBit, !dev.image().get(upsetBit));
    const ScrubResult sr = port.scrub();
    fail = fail || sr.repairedFrames == 0;
    line("  scrub repaired %u frame(s)\n", sr.repairedFrames);
    stage("scrub-repair", moved);

    // Quarantine blanking, then migration-style resume of the same image.
    dev.clearConfig();
    dev.applyBitstream(moved.fullBitstream());
    port.resyncExpected();
    stage("resume", moved);

    analysis::CompiledPathProfile prof;
    prof.kernelAttached = dev.fastPath() != nullptr;
    prof.programReady = engine.program() != nullptr;
    prof.programGeneration = engine.programGeneration();
    prof.deviceGeneration = dev.configGeneration();
    prof.probeAttached = dev.activityProbe() != nullptr;
    prof.inhibited = dev.fastPathInhibited();
    prof.programFaulted = engine.lastBuildFaulted();
    prof.lastServedCompiled = engine.lastServedCompiled();
    prof.cacheCapacity = cache.capacity();
    analysis::Report lint;
    analysis::lintCompiledPath(prof, lint);
    fail = fail || !lint.ok();
    line("  lint: %s\n",
         lint.clean() ? "clean (CP001-CP004)" : lint.renderText().c_str());
  }

  line("\nseeded corruption corpus (LUT-bit flips; paths must agree on the"
       " corrupted function)\n");
  line("%-14s %8s %10s %6s %6s\n", "circuit", "bit", "elaborates", "served",
       "diverg");
  for (const char* name : {"ct_counter", "tc_crc8", "ct_gray"}) {
    const AppCircuit app = workloads::appCircuitByName(name);
    Device dev = p.makeDevice();
    Compiler compiler(dev);
    const CompiledCircuit c =
        workloads::compileMinimal(compiler, app.netlist, seed);
    dev.applyBitstream(c.fullBitstream());
    std::vector<std::uint32_t> bits;
    const std::uint32_t lutBits =
        static_cast<std::uint32_t>(dev.geometry().lutBits());
    for (const Elaboration::Cell& cell : dev.elaboration().cells) {
      for (std::uint32_t j = 0; j < lutBits; ++j) {
        bits.push_back(dev.configMap().clbLutBit(cell.x, cell.y, j));
      }
    }
    Rng rng(seed ^ 0x9e3779b97f4a7c15ull ^ bits.size());
    for (int trial = 0; trial < 4; ++trial) {
      const std::uint32_t bit = bits[rng.next() % bits.size()];
      dev.setConfigBit(bit, !dev.image().get(bit));
      compiled::OracleOptions opt;
      opt.cycles = cycles;
      opt.seed = seed;
      opt.checkExtraction = false;
      const compiled::OracleReport rep =
          compiled::runDifferentialOracle(dev, c, opt, &cache);
      fail = fail || rep.divergences != 0 || !rep.problems.empty();
      line("%-14s %8u %10s %6s %6llu\n", name, bit,
           dev.configOk() ? "yes" : "no", rep.servedCompiled ? "yes" : "no",
           ull(rep.divergences));
      for (const std::string& prob : rep.problems) {
        line("    ! %s\n", prob.c_str());
      }
      dev.setConfigBit(bit, !dev.image().get(bit));
    }
  }

  const compiled::KernelCacheStats& cs = cache.stats();
  line("\nkernel cache: lookups=%llu hits=%llu misses=%llu insertions=%llu"
       " evictions=%llu capacity=%llu\n",
       ull(cs.lookups), ull(cs.hits), ull(cs.misses), ull(cs.insertions),
       ull(cs.evictions), ull(cache.capacity()));
  line("\nRESULT: %s\n", fail ? "FAIL" : "PASS");

  const int rc = emitPayload(a, out);
  if (rc != 0) return rc;
  return fail ? 1 : 0;
}

/// The one list of commands: main dispatches on it and usage() prints
/// it. Each '\n'-separated form of a synopsis is one usage line.
struct Command {
  const char* name;
  const char* synopsis;
  int (*run)(const Args&);
};

constexpr Command kCommands[] = {
    {"list-circuits", "", listCircuits},
    {"list-devices", "", listDevices},
    {"info", "--device <name>", deviceInfo},
    {"compile",
     "(--circuit <name> | --netlist file.vnl) --device <name> [--width N]"
     " [--no-optimize] [--out file.vfpb]",
     compileCmd},
    {"simulate",
     "(--circuit <name> | --netlist file.vnl) --device <name> [--width N]"
     " [--cycles N] [--seed N] [--vcd file.vcd]",
     simulateCmd},
    {"lint",
     "(--circuit <name> | --netlist file.vnl | --all) [--device <name>]"
     " [--width N] [--no-optimize] [--json]\n"
     "--list-rules\n"
     "--fix --netlist file.vnl [--out fixed.vnl]",
     lintCmd},
    {"equiv",
     "(--circuit <name> | --netlist file.vnl | --all) [--device <name>]"
     " [--width N] [--relocate] [--seed N] [--json] [--out file]",
     equivCmd},
    {"cluster",
     "[--devices N] [--seed N] [--campaign ci|heal|stress]"
     " [--policy first_fit|least_loaded|best_fit] [--format text|json]"
     " [--out file]",
     clusterCmd},
    {"monitor",
     "[--devices N] [--seed N] [--refresh N] [--format text|json|html]"
     " [--out file]",
     monitorCmd},
    {"trace",
     "(--circuit <name> | --netlist file.vnl) [--device <name>] [--width N]"
     " [--format chrome|csv] [--validate] [--stream file.ndjson]"
     " [--out file]\n"
     "--from file.ndjson [--format chrome|csv] [--validate] [--out file]",
     traceCmd},
    {"report",
     "[--device <name>] [--format prometheus|csv|json] [--min-names N]"
     " [--links] [--stream file.ndjson] [--out file]",
     reportCmd},
    {"heatmap",
     "[--device <name>] [--seed N] [--format csv|json|html] [--out file]",
     heatmapCmd},
    {"profile",
     "[--device <name>] [--seed N] [--cycles N] [--top K] [--activity]"
     " [--waterfall] [--ledger] [--format text|json|collapsed|speedscope]"
     " [--out file]",
     profileCmd},
    {"faults",
     "[--seed N] [--campaign ci|stress] [--out file] [--flight-dir dir]"
     " [--stream file.ndjson]",
     faultsCmd},
    {"chaos",
     "[--seed N] [--campaign ci|stress] [--dir dir] [--out file]"
     " [--flight-dir dir]",
     chaosCmd},
    {"compiled", "[--device <name>] [--seed N] [--cycles N] [--out file]",
     compiledCmd},
    {"bench-trend",
     "--baseline file.json [--dir dir] [--tolerance F] [--out trend.json]",
     benchTrendCmd},
};

int usage() {
  std::fprintf(stderr, "usage: vfpga_cli <command> [options]\n");
  for (const Command& c : kCommands) {
    std::string_view forms = c.synopsis;
    for (;;) {
      const std::size_t nl = forms.find('\n');
      const std::string_view form = forms.substr(0, nl);
      std::fprintf(stderr, "  %s%s%.*s\n", c.name, form.empty() ? "" : " ",
                   static_cast<int>(form.size()), form.data());
      if (nl == std::string_view::npos) break;
      forms.remove_prefix(nl + 1);
    }
  }
  std::fprintf(stderr,
               "stream knobs: [--stream-ring N] [--stream-flush N]"
               " [--stream-flush-ns N] [--stream-sample key=N[,key=N]]\n"
               "exit codes: 0 success, 1 findings / runtime errors,"
               " 2 usage, 3 export or validation failure\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args) return usage();
  for (const Command& c : kCommands) {
    if (args->command != c.name) continue;
    try {
      return c.run(*args);
    } catch (const UsageError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  return usage();
}
