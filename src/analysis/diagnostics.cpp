#include "analysis/diagnostics.hpp"

#include <cstdlib>
#include <sstream>

#include "obs/json.hpp"

namespace vfpga::analysis {

const char* severityName(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

const char* locationKindName(Location::Kind k) {
  switch (k) {
    case Location::Kind::kNone: return "none";
    case Location::Kind::kGate: return "gate";
    case Location::Kind::kCell: return "cell";
    case Location::Kind::kNet: return "net";
    case Location::Kind::kSite: return "site";
    case Location::Kind::kRRNode: return "rrnode";
    case Location::Kind::kFrame: return "frame";
    case Location::Kind::kPort: return "port";
    case Location::Kind::kStrip: return "strip";
    case Location::Kind::kPage: return "page";
    case Location::Kind::kTask: return "task";
    case Location::Kind::kOverlay: return "overlay";
    case Location::Kind::kSegment: return "segment";
  }
  return "unknown";
}

namespace {

// The rule registry. IDs are stable and documented in docs/ANALYSIS.md;
// never renumber, only append.
constexpr RuleInfo kRules[] = {
    // ---- netlist lint (NL) --------------------------------------------------
    {"NL001", Severity::kError, "combinational cycle",
     "the combinational part of the netlist is cyclic; the cycle path is "
     "attached as notes"},
    {"NL002", Severity::kError, "arity violation",
     "a gate has the wrong number of fanins for its kind"},
    {"NL003", Severity::kError, "dangling fanin",
     "a fanin references a gate id outside the netlist"},
    {"NL004", Severity::kError, "read from output port",
     "a gate uses an output port as a fanin"},
    {"NL005", Severity::kError, "unnamed port",
     "a primary input or output has no name"},
    {"NL006", Severity::kWarning, "floating input",
     "a primary input drives nothing"},
    {"NL007", Severity::kWarning, "dead gate",
     "a gate has no path to any primary output"},
    {"NL008", Severity::kWarning, "constant output",
     "an output's cone contains no primary input and no register; its value "
     "never changes"},
    {"NL009", Severity::kWarning, "stuck register",
     "a DFF's next-state cone contains no primary input and no register; "
     "after the first tick it holds a constant, so readers only ever "
     "observe its initial value"},
    // ---- mapped netlist (MP) ------------------------------------------------
    {"MP001", Severity::kError, "LUT capacity exceeded",
     "a mapped cell has more inputs than the device's K"},
    {"MP002", Severity::kError, "net out of range",
     "a cell input references a net id outside the mapped netlist"},
    {"MP003", Severity::kError, "mapped combinational cycle",
     "unregistered cells form a combinational cycle; the cycle path is "
     "attached as notes"},
    {"MP004", Severity::kError, "invalid port net",
     "an output port references an invalid net"},
    // ---- placement (PL) -----------------------------------------------------
    {"PL001", Severity::kError, "placement overlap",
     "two cells share one CLB site"},
    {"PL002", Severity::kError, "cell outside region",
     "a cell is placed outside the circuit's region"},
    {"PL003", Severity::kError, "site count mismatch",
     "the placement does not assign exactly one site per mapped cell"},
    // ---- routing (RT) -------------------------------------------------------
    {"RT001", Severity::kError, "routing node conflict",
     "a routing node (capacity 1) is occupied by more than one net — a "
     "multi-driven resource"},
    {"RT002", Severity::kError, "routing isolation violation",
     "a routed net uses a node owned by a column outside the circuit's "
     "strip; under partitioning this leaks into a neighbour's columns"},
    {"RT003", Severity::kError, "inconsistent route tree",
     "a net enables a switch edge whose endpoints are not both among the "
     "net's occupied nodes"},
    // ---- bitstream / frames (BS) --------------------------------------------
    {"BS001", Severity::kError, "frame outside device",
     "a circuit claims a configuration frame beyond the device's frame "
     "count"},
    {"BS002", Severity::kError, "frame outside region",
     "a circuit claims a configuration frame (or sets an image bit) outside "
     "its own column range; downloading it would overwrite a neighbour "
     "partition"},
    {"BS003", Severity::kError, "image size mismatch",
     "the circuit's configuration image does not match the device's "
     "configuration RAM size"},
    // ---- port bindings (PT) -------------------------------------------------
    {"PT001", Severity::kError, "pad slot out of range",
     "a port is bound to a pad slot the device does not have"},
    {"PT002", Severity::kError, "pad outside region",
     "a relocatable circuit binds a port to a pad whose column lies outside "
     "the circuit's strip"},
    // ---- strip allocator (AL) -----------------------------------------------
    {"AL001", Severity::kError, "strip coverage broken",
     "the allocator's strips do not tile [0, columns) left to right without "
     "gaps or overlaps"},
    {"AL002", Severity::kError, "zero-width strip",
     "the allocator holds a strip of width 0"},
    {"AL003", Severity::kError, "duplicate partition id",
     "two strips share one partition id"},
    {"AL004", Severity::kError, "unmerged idle strips",
     "two adjacent idle strips exist in variable mode; release() must have "
     "failed to merge them"},
    {"AL005", Severity::kError, "quarantined strip in use",
     "a strip marked permanently faulty is also marked busy; quarantine "
     "must relocate or park the occupant first"},
    // ---- page table (PG) ----------------------------------------------------
    {"PG001", Severity::kError, "resident pages exceed capacity",
     "the page table holds more resident pages than the device can carry"},
    {"PG002", Severity::kError, "unknown function in page table",
     "a resident page belongs to a function id that was never declared"},
    {"PG003", Severity::kError, "page index out of range",
     "a resident page's index is beyond its function's page count"},
    {"PG004", Severity::kError, "duplicate page-table entry",
     "the same (function, page) pair is resident twice"},
    {"PG005", Severity::kError, "page timestamps corrupt",
     "a page's loadedAt/lastUse timestamps are out of order or in the "
     "future"},
    // ---- overlays (OV) ------------------------------------------------------
    {"OV001", Severity::kError, "resident circuit outside resident strip",
     "the resident circuit extends past the resident strip boundary"},
    {"OV002", Severity::kError, "overlay outside overlay strip",
     "an overlay circuit extends outside the overlay strip"},
    {"OV003", Severity::kError, "invalid active overlay",
     "the active overlay id does not name a declared overlay"},
    // ---- partition occupancy (PM) -------------------------------------------
    {"PM001", Severity::kError, "busy strip without occupant",
     "an allocated strip has no registered occupant circuit"},
    {"PM002", Severity::kError, "occupant outside its strip",
     "an occupant circuit's region does not sit inside its strip"},
    // ---- task state machine (TS) --------------------------------------------
    {"TS001", Severity::kError, "op index out of range",
     "a task's operation index is beyond its program"},
    {"TS002", Severity::kError, "done/op-index mismatch",
     "a task is marked done before completing its program (or vice versa)"},
    {"TS003", Severity::kError, "partition held in wrong state",
     "a task holds a partition while not running on the FPGA"},
    {"TS004", Severity::kError, "residual work after completion",
     "a finished task still has CPU time or FPGA cycles outstanding"},
    {"TS005", Severity::kError, "queue/state mismatch",
     "a task sits in a scheduler queue whose required state it does not "
     "have"},
    {"SG001", Severity::kError, "segment residency corrupt",
     "a resident segment points at an idle or unknown strip"},
    {"SG002", Severity::kError, "segments share a strip",
     "two resident segments claim the same strip"},
    // ---- fault tolerance (FT) -----------------------------------------------
    {"FT001", Severity::kError, "fault injection without verification",
     "the fault plan corrupts or aborts downloads but download verification "
     "is off, so bad configurations execute undetected"},
    {"FT002", Severity::kWarning, "zero retry budget",
     "downloads are verified but maxDownloadRetries is 0, so any wire fault "
     "immediately parks the task"},
    {"FT003", Severity::kError, "upsets without scrubber",
     "the fault plan injects configuration upsets but no scrub interval is "
     "configured, so corruption accumulates forever"},
    {"FT004", Severity::kWarning, "scrub interval exceeds shortest execution",
     "an upset can sit in the configuration RAM for a whole execution "
     "before the scrubber sees it"},
    {"FT005", Severity::kWarning, "hung executions never preempted",
     "the fault plan hangs executions but the watchdog is disabled, so a "
     "hang stalls its device share forever"},
    {"FT006", Severity::kWarning, "strip failures without compaction",
     "permanent strip failures are scripted but garbage collection is off, "
     "so busy strips cannot be evacuated by compaction"},
    {"FT007", Severity::kError, "stale overlay reuse without verification",
     "the fault plan reuses evicted overlay configurations but residency "
     "verification is off, so stale logic executes undetected"},
    {"FT008", Severity::kError, "segment-table corruption without verification",
     "the fault plan corrupts segment-table entries but residency "
     "verification is off, so corrupt mappings are followed undetected"},
    {"FT009", Severity::kError, "page residency loss without verification",
     "the fault plan drops page residency bits but residency verification "
     "is off, so missing configuration pages are assumed present"},
    // ---- cluster scheduling (CL) --------------------------------------------
    {"CL001", Severity::kError, "workload fits no pool device",
     "a registered workload is wider than every device in the pool, so no "
     "placement can ever succeed"},
    {"CL002", Severity::kError, "zero admission queue depth",
     "backpressure rejects every submission before placement is attempted"},
    {"CL003", Severity::kError, "degradation threshold above device width",
     "minUsableColumns exceeds the widest device, so every device counts "
     "as degraded and placement always fails"},
    {"CL004", Severity::kWarning, "faulty single-device cluster",
     "strip failures are scripted but the pool has one device, so a "
     "degraded device has no migration target"},
    {"CL005", Severity::kWarning, "rebalance gap of one",
     "any load difference triggers a migration; two devices can ping-pong "
     "the same waiter every dispatch tick"},
    // ---- timing analysis (TA) -----------------------------------------------
    {"TA001", Severity::kError, "negative slack",
     "a register-to-register / pad-to-pad path arrives later than the "
     "device family's clock constraint allows (arrival + clock margin > "
     "target period)"},
    {"TA002", Severity::kWarning, "near-critical path",
     "a path's slack is below the near-critical fraction of the target "
     "clock period; any routing detour could push it negative"},
    {"TA003", Severity::kWarning, "excessive logic depth",
     "a timing path traverses more LUT levels than the lint bound; deep "
     "cones dominate the critical path and resist relocation-invariant "
     "timing"},
    {"TA004", Severity::kWarning, "excessive fanout",
     "a cell output drives more sinks than the lint bound; high-fanout "
     "nets accumulate switch delay and congest the strip's channels"},
    {"TA005", Severity::kWarning, "unconstrained endpoint",
     "a timing endpoint's cone starts at no register, pad or constant "
     "driver the analyzer can time from; the path is unconstrained"},
    {"TA006", Severity::kError, "timing unavailable on faulted configuration",
     "static timing analysis was requested but the configuration has "
     "decode faults; the faults are attached as notes (previously this "
     "silently returned an empty report)"},
    // ---- equivalence checking (EQ) ------------------------------------------
    {"EQ001", Severity::kError, "configuration extraction failed",
     "the configured device cannot be decoded back into a standalone "
     "circuit in the claimed region (elaboration faults, signals crossing "
     "the region boundary)"},
    {"EQ002", Severity::kError, "combinational equivalence mismatch",
     "a combinational cone of the extracted design differs from the golden "
     "netlist; the counterexample cut assignment is attached as a note"},
    {"EQ003", Severity::kError, "sequential equivalence mismatch",
     "a matched register diverges (initial value, next-state function or "
     "lockstep state trace); the counterexample is attached as a note"},
    {"EQ004", Severity::kWarning, "equivalence not fully proven",
     "the designs agree, but some endpoints were only checked by random "
     "simulation (cone too wide, or registers the optimizer removed left "
     "unmatched residue)"},
    {"EQ005", Severity::kError, "port binding mismatch",
     "a circuit port is missing, has the wrong direction, or is driven "
     "from outside the circuit in the configured fabric"},
    // ---- checkpoint files (CK) ------------------------------------------------
    {"CK001", Severity::kError, "not a checkpoint / unsupported version",
     "the file is missing the checkpoint magic or carries a format version "
     "this build cannot decode"},
    {"CK002", Severity::kError, "checkpoint payload CRC failure",
     "the checkpoint payload fails its CRC-16 guard (bit rot or "
     "truncation); the file must not be restored"},
    {"CK003", Severity::kError, "register snapshot CRC failure",
     "the register snapshot inside an otherwise intact payload fails its "
     "own CRC; restoring would resume from corrupt state"},
    {"CK004", Severity::kError, "register snapshot length mismatch",
     "the snapshot's bit count does not match the FF count of the "
     "configuration it targets; the checkpoint was taken against a "
     "different circuit"},
    {"CK005", Severity::kError, "stale checkpoint generation",
     "the header generation does not match its double-buffer slot parity "
     "(re-stamped or rolled-back generation); restore from the other slot"},
    // ---- continuous monitor (MO) ----------------------------------------------
    {"MO001", Severity::kError, "alert rule watches unknown series",
     "an alert rule references a series name that is not registered on the "
     "time-series store; evaluation throws on the first tick"},
    {"MO002", Severity::kError, "zero-width evaluation window",
     "a windowed alert rule (burn-rate or rate-of-change) has a zero-width "
     "window and can never accumulate a signal"},
    {"MO003", Severity::kError, "burn-rate windows not strictly nested",
     "a burn-rate rule's long confirmation window is not strictly wider "
     "than its short window; the two-window guard against transient spikes "
     "degenerates to a single window"},
    {"MO004", Severity::kWarning, "health model without fault inputs",
     "every fault-counter weight in the health options is zero, so device "
     "grades can only move on capacity loss and alert pressure, never on "
     "fault activity"},
    // ---- compiled fast path (CP) -----------------------------------------------
    {"CP001", Severity::kError, "stale compiled kernel after reconfiguration",
     "a compiled kernel's program belongs to an older configuration "
     "generation than the device's current image; evaluating it would "
     "execute the pre-reconfiguration circuit"},
    {"CP002", Severity::kError, "compiled path served while probe attached",
     "an activity probe is attached but an evaluation was served by the "
     "compiled engine, which maintains no per-site counters; the device "
     "must fall back to the interpretive walk while probed"},
    {"CP003", Severity::kWarning, "unbounded compiled-kernel cache",
     "the compiled-kernel cache has no capacity bound, so a "
     "reconfiguration-heavy campaign retains every program ever levelized"},
    {"CP004", Severity::kWarning, "compiled kernel declined faulted config",
     "the engine refused to build a program for a configuration whose "
     "elaboration reports faults; evaluation runs interpretively so the "
     "fault semantics stay authoritative"},
};

std::span<const RuleInfo> registry() { return kRules; }

}  // namespace

std::span<const RuleInfo> allRules() { return registry(); }

const RuleInfo* findRule(std::string_view id) {
  for (const RuleInfo& r : registry()) {
    if (id == r.id) return &r;
  }
  return nullptr;
}

Diagnostic& Report::add(std::string_view ruleId, std::string message,
                        Location location) {
  Diagnostic d;
  d.rule = std::string(ruleId);
  const RuleInfo* info = findRule(ruleId);
  d.severity = info ? info->severity : Severity::kError;
  if (!info) d.notes.push_back("unregistered rule id");
  d.message = std::move(message);
  d.location = std::move(location);
  if (d.severity == Severity::kError) ++errors_;
  if (d.severity == Severity::kWarning) ++warnings_;
  diagnostics_.push_back(std::move(d));
  return diagnostics_.back();
}

std::string Report::renderText() const {
  std::ostringstream os;
  for (const Diagnostic& d : diagnostics_) {
    os << severityName(d.severity) << " [" << d.rule << "]";
    if (d.location.kind != Location::Kind::kNone) {
      os << " at " << locationKindName(d.location.kind);
      if (d.location.index >= 0) os << " " << d.location.index;
      if (d.location.x >= 0) {
        os << " (" << d.location.x << ", " << d.location.y << ")";
      }
      if (!d.location.detail.empty()) os << " '" << d.location.detail << "'";
    }
    os << ": " << d.message << "\n";
    for (const std::string& n : d.notes) os << "    note: " << n << "\n";
  }
  os << errors_ << " error(s), " << warnings_ << " warning(s), "
     << diagnostics_.size() << " diagnostic(s) total\n";
  return os.str();
}

std::string Report::renderJson() const {
  std::string out = "{\"diagnostics\":[";
  bool first = true;
  for (const Diagnostic& d : diagnostics_) {
    if (!first) out += ",";
    first = false;
    out += "{\"rule\":\"";
    out += obs::jsonEscape(d.rule);
    out += "\",\"severity\":\"";
    out += severityName(d.severity);
    out += "\",\"message\":\"";
    out += obs::jsonEscape(d.message);
    out += "\",\"location\":{\"kind\":\"";
    out += locationKindName(d.location.kind);
    out += "\",\"index\":" + std::to_string(d.location.index);
    out += ",\"x\":" + std::to_string(d.location.x);
    out += ",\"y\":" + std::to_string(d.location.y);
    out += ",\"detail\":\"";
    out += obs::jsonEscape(d.location.detail);
    out += "\"},\"notes\":[";
    for (std::size_t i = 0; i < d.notes.size(); ++i) {
      if (i) out += ",";
      out += "\"";
      out += obs::jsonEscape(d.notes[i]);
      out += "\"";
    }
    out += "]}";
  }
  out += "],\"errors\":" + std::to_string(errors_);
  out += ",\"warnings\":" + std::to_string(warnings_) + "}";
  return out;
}

namespace {
InvariantFailureHook& failureHook() {
  static InvariantFailureHook hook;
  return hook;
}
}  // namespace

InvariantFailureHook setInvariantFailureHook(InvariantFailureHook hook) {
  InvariantFailureHook prev = std::move(failureHook());
  failureHook() = std::move(hook);
  return prev;
}

void throwIfErrors(const Report& rep, std::string_view context) {
  if (rep.ok()) return;
  if (const InvariantFailureHook& hook = failureHook()) {
    try {
      hook(rep, context);
    } catch (...) {
      // A broken dumper must not mask the violation being reported.
    }
  }
  throw InvariantViolation("invariant violation in " + std::string(context) +
                           ":\n" + rep.renderText());
}

namespace {
bool& checksFlag() {
  static bool enabled = [] {
    const char* v = std::getenv("VFPGA_CHECK_INVARIANTS");
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
  }();
  return enabled;
}
}  // namespace

bool invariantChecksEnabled() { return checksFlag(); }

void setInvariantChecks(bool enabled) { checksFlag() = enabled; }

}  // namespace vfpga::analysis
