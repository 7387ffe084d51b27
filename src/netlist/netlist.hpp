// Gate-level netlist: the technology-independent circuit representation that
// the CAD flow (techmap -> place -> route -> bitstream) consumes.
//
// Design rules enforced by check():
//  * associative gates (AND/OR/XOR/NAND/NOR/XNOR) have exactly 2 fanins —
//    builders create balanced trees for wider operations;
//  * MUX has 3 fanins {sel, a, b}: output = sel ? b : a;
//  * DFF has 1 fanin (D); its output is the registered value, so DFFs break
//    combinational cycles;
//  * the combinational part is acyclic.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace vfpga {

enum class GateKind : std::uint8_t {
  kInput,   ///< primary input (no fanin)
  kOutput,  ///< primary output (1 fanin, value passes through)
  kConst0,
  kConst1,
  kBuf,
  kNot,
  kAnd,
  kOr,
  kXor,
  kNand,
  kNor,
  kXnor,
  kMux,  ///< fanins {sel, a, b}; out = sel ? b : a
  kDff,  ///< fanin {d}; output is current state, next state = d at tick
};

const char* gateKindName(GateKind k);

/// Number of fanins required by a gate kind (2 for associative kinds).
int gateArity(GateKind k);

/// True for kinds whose output depends only on current-cycle fanin values.
bool isCombinational(GateKind k);

using GateId = std::uint32_t;
constexpr GateId kNoGate = 0xffffffffu;

/// Transparent string hash: lets a std::string-keyed unordered container
/// (with std::equal_to<>) be searched by std::string_view without building
/// a temporary std::string.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Name -> value map searchable by std::string_view.
template <typename V>
using NameMap = std::unordered_map<std::string, V, StringHash, std::equal_to<>>;

struct Gate {
  GateKind kind;
  std::vector<GateId> fanins;
  std::string name;  ///< optional; required for inputs/outputs
  bool dffInit = false;  ///< initial/reset state (DFF only)
};

/// Per-kind gate census.
struct GateCounts {
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  std::size_t dffs = 0;
  std::size_t combinational = 0;  ///< everything else except constants
  std::size_t constants = 0;
  std::size_t total() const {
    return inputs + outputs + dffs + combinational + constants;
  }
};

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void setName(std::string n) { name_ = std::move(n); }

  // ---- construction -------------------------------------------------------
  GateId addInput(std::string name);
  GateId addOutput(std::string name, GateId driver);
  GateId addGate(GateKind kind, std::vector<GateId> fanins,
                 std::string name = "");
  /// Adds a register. Pass `d = kNoGate` to defer the D binding: the gate is
  /// created with a dangling fanin that MUST be fixed via rebindDff() before
  /// check()/evaluation — this avoids materializing a throwaway placeholder
  /// gate for registers in feedback loops.
  GateId addDff(GateId d, bool init = false, std::string name = "");
  /// Rewires a DFF's D input. This is the only permitted mutation of an
  /// existing gate; it exists so registers in feedback loops can be declared
  /// first (with a placeholder D) and bound after the logic that reads them
  /// is built. Only the D input of a kDff gate may be rebound.
  void rebindDff(GateId dff, GateId newD);
  /// Memoized constant gate.
  GateId constant(bool value);

  /// Appends a copy of `other`, prefixing its port names with `prefix`.
  /// Returns the id offset: a gate g in `other` becomes g + offset here.
  /// This is the "merge all circuits into one" operation from the paper §3.
  GateId merge(const Netlist& other, const std::string& prefix);

  // ---- accessors ----------------------------------------------------------
  std::size_t size() const { return gates_.size(); }
  const Gate& gate(GateId id) const { return gates_.at(id); }
  std::span<const GateId> inputs() const { return inputs_; }
  std::span<const GateId> outputs() const { return outputs_; }
  std::span<const GateId> dffs() const { return dffs_; }

  /// Port lookup by name; returns kNoGate when absent.
  GateId findInput(std::string_view name) const;
  GateId findOutput(std::string_view name) const;

  // ---- analysis -----------------------------------------------------------
  /// Validates arities, fanin ranges and port names; aborts via assert in
  /// debug and throws std::logic_error otherwise on violation.
  void check() const;

  bool hasCombinationalCycle() const;

  /// Topological order of all gates treating DFF outputs as sources; only
  /// valid when there is no combinational cycle.
  std::vector<GateId> topoOrder() const;

  /// Longest combinational path measured in gates (inputs/DFF outputs at
  /// depth 0).
  std::size_t combDepth() const;

  GateCounts counts() const;

  /// Fanout count per gate.
  std::vector<std::uint32_t> fanoutCounts() const;

 private:
  std::string name_;
  std::vector<Gate> gates_;
  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  std::vector<GateId> dffs_;
  GateId const0_ = kNoGate;
  GateId const1_ = kNoGate;
  NameMap<GateId> inputByName_;
  NameMap<GateId> outputByName_;
};

}  // namespace vfpga
