#include "netlist/netlist.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace vfpga {

const char* gateKindName(GateKind k) {
  switch (k) {
    case GateKind::kInput: return "input";
    case GateKind::kOutput: return "output";
    case GateKind::kConst0: return "const0";
    case GateKind::kConst1: return "const1";
    case GateKind::kBuf: return "buf";
    case GateKind::kNot: return "not";
    case GateKind::kAnd: return "and";
    case GateKind::kOr: return "or";
    case GateKind::kXor: return "xor";
    case GateKind::kNand: return "nand";
    case GateKind::kNor: return "nor";
    case GateKind::kXnor: return "xnor";
    case GateKind::kMux: return "mux";
    case GateKind::kDff: return "dff";
  }
  return "unknown";
}

int gateArity(GateKind k) {
  switch (k) {
    case GateKind::kInput:
    case GateKind::kConst0:
    case GateKind::kConst1:
      return 0;
    case GateKind::kOutput:
    case GateKind::kBuf:
    case GateKind::kNot:
    case GateKind::kDff:
      return 1;
    case GateKind::kAnd:
    case GateKind::kOr:
    case GateKind::kXor:
    case GateKind::kNand:
    case GateKind::kNor:
    case GateKind::kXnor:
      return 2;
    case GateKind::kMux:
      return 3;
  }
  return -1;
}

bool isCombinational(GateKind k) {
  switch (k) {
    case GateKind::kBuf:
    case GateKind::kNot:
    case GateKind::kAnd:
    case GateKind::kOr:
    case GateKind::kXor:
    case GateKind::kNand:
    case GateKind::kNor:
    case GateKind::kXnor:
    case GateKind::kMux:
    case GateKind::kOutput:
      return true;
    default:
      return false;
  }
}

GateId Netlist::addInput(std::string name) {
  if (inputByName_.count(name) != 0) {
    throw std::logic_error("duplicate input name: " + name);
  }
  const GateId id = static_cast<GateId>(gates_.size());
  gates_.push_back(Gate{GateKind::kInput, {}, name});
  inputs_.push_back(id);
  inputByName_.emplace(std::move(name), id);
  return id;
}

GateId Netlist::addOutput(std::string name, GateId driver) {
  if (outputByName_.count(name) != 0) {
    throw std::logic_error("duplicate output name: " + name);
  }
  if (driver >= gates_.size()) {
    throw std::logic_error("output driver out of range: " + name);
  }
  const GateId id = static_cast<GateId>(gates_.size());
  gates_.push_back(Gate{GateKind::kOutput, {driver}, name});
  outputs_.push_back(id);
  outputByName_.emplace(std::move(name), id);
  return id;
}

GateId Netlist::addGate(GateKind kind, std::vector<GateId> fanins,
                        std::string name) {
  if (kind == GateKind::kInput || kind == GateKind::kOutput) {
    throw std::logic_error("use addInput/addOutput for ports");
  }
  const int arity = gateArity(kind);
  if (static_cast<int>(fanins.size()) != arity) {
    throw std::logic_error(std::string("wrong fanin count for ") +
                           gateKindName(kind));
  }
  for (GateId f : fanins) {
    if (f >= gates_.size()) throw std::logic_error("fanin out of range");
  }
  const GateId id = static_cast<GateId>(gates_.size());
  gates_.push_back(Gate{kind, std::move(fanins), std::move(name)});
  if (kind == GateKind::kDff) dffs_.push_back(id);
  return id;
}

GateId Netlist::addDff(GateId d, bool init, std::string name) {
  GateId id;
  if (d == kNoGate) {
    // Deferred D binding: push directly (addGate would reject the dangling
    // fanin). check() still rejects kNoGate, so forgetting to rebind fails.
    id = static_cast<GateId>(gates_.size());
    gates_.push_back(Gate{GateKind::kDff, {kNoGate}, std::move(name)});
    dffs_.push_back(id);
  } else {
    id = addGate(GateKind::kDff, {d}, std::move(name));
  }
  gates_[id].dffInit = init;
  return id;
}

void Netlist::rebindDff(GateId dff, GateId newD) {
  if (dff >= gates_.size() || gates_[dff].kind != GateKind::kDff) {
    throw std::logic_error("rebindDff on non-DFF gate");
  }
  if (newD >= gates_.size()) throw std::logic_error("rebindDff fanin range");
  gates_[dff].fanins[0] = newD;
}

GateId Netlist::constant(bool value) {
  GateId& slot = value ? const1_ : const0_;
  if (slot == kNoGate) {
    slot = static_cast<GateId>(gates_.size());
    gates_.push_back(
        Gate{value ? GateKind::kConst1 : GateKind::kConst0, {}, ""});
  }
  return slot;
}

GateId Netlist::merge(const Netlist& other, const std::string& prefix) {
  const GateId offset = static_cast<GateId>(gates_.size());
  gates_.reserve(gates_.size() + other.gates_.size());
  for (GateId g = 0; g < other.gates_.size(); ++g) {
    Gate copy = other.gates_[g];
    for (GateId& f : copy.fanins) f += offset;
    if (copy.kind == GateKind::kInput || copy.kind == GateKind::kOutput) {
      copy.name = prefix + copy.name;
    }
    const GateId id = static_cast<GateId>(gates_.size());
    gates_.push_back(std::move(copy));
    switch (gates_[id].kind) {
      case GateKind::kInput:
        inputs_.push_back(id);
        inputByName_.emplace(gates_[id].name, id);
        break;
      case GateKind::kOutput:
        outputs_.push_back(id);
        outputByName_.emplace(gates_[id].name, id);
        break;
      case GateKind::kDff:
        dffs_.push_back(id);
        break;
      default:
        break;
    }
  }
  // Constants are intentionally NOT deduplicated across the merge boundary:
  // the merged module keeps its own constant gates, which is harmless.
  return offset;
}

GateId Netlist::findInput(std::string_view name) const {
  auto it = inputByName_.find(name);
  return it == inputByName_.end() ? kNoGate : it->second;
}

GateId Netlist::findOutput(std::string_view name) const {
  auto it = outputByName_.find(name);
  return it == outputByName_.end() ? kNoGate : it->second;
}

void Netlist::check() const {
  for (GateId id = 0; id < gates_.size(); ++id) {
    const Gate& g = gates_[id];
    if (static_cast<int>(g.fanins.size()) != gateArity(g.kind)) {
      throw std::logic_error("arity violation at gate " + std::to_string(id));
    }
    for (GateId f : g.fanins) {
      if (f >= gates_.size()) {
        throw std::logic_error("dangling fanin at gate " + std::to_string(id));
      }
      if (gates_[f].kind == GateKind::kOutput) {
        throw std::logic_error("gate reads from an output port");
      }
    }
    if ((g.kind == GateKind::kInput || g.kind == GateKind::kOutput) &&
        g.name.empty()) {
      throw std::logic_error("unnamed port gate");
    }
  }
  if (hasCombinationalCycle()) {
    throw std::logic_error("combinational cycle in netlist " + name_);
  }
}

bool Netlist::hasCombinationalCycle() const {
  // Kahn's algorithm over combinational edges only: a DFF's output does not
  // depend combinationally on its input, so DFFs are sources.
  std::vector<std::uint32_t> indeg(gates_.size(), 0);
  for (GateId id = 0; id < gates_.size(); ++id) {
    const Gate& g = gates_[id];
    if (g.kind == GateKind::kDff) continue;  // no combinational in-edges
    indeg[id] = static_cast<std::uint32_t>(g.fanins.size());
  }
  std::vector<GateId> ready;
  for (GateId id = 0; id < gates_.size(); ++id) {
    if (indeg[id] == 0) ready.push_back(id);
  }
  // Build fanout adjacency once.
  std::vector<std::vector<GateId>> fanouts(gates_.size());
  for (GateId id = 0; id < gates_.size(); ++id) {
    if (gates_[id].kind == GateKind::kDff) continue;  // edges into DFF don't
    for (GateId f : gates_[id].fanins) fanouts[f].push_back(id);
  }
  std::size_t seen = 0;
  while (!ready.empty()) {
    GateId id = ready.back();
    ready.pop_back();
    ++seen;
    for (GateId out : fanouts[id]) {
      if (--indeg[out] == 0) ready.push_back(out);
    }
  }
  // DFF in-edges were skipped, so gates feeding only DFFs were still visited;
  // unseen gates are exactly those on combinational cycles.
  std::size_t expected = gates_.size();
  return seen != expected;
}

std::vector<GateId> Netlist::topoOrder() const {
  std::vector<std::uint32_t> indeg(gates_.size(), 0);
  for (GateId id = 0; id < gates_.size(); ++id) {
    const Gate& g = gates_[id];
    if (g.kind == GateKind::kDff) continue;
    indeg[id] = static_cast<std::uint32_t>(g.fanins.size());
  }
  std::vector<std::vector<GateId>> fanouts(gates_.size());
  for (GateId id = 0; id < gates_.size(); ++id) {
    if (gates_[id].kind == GateKind::kDff) continue;
    for (GateId f : gates_[id].fanins) fanouts[f].push_back(id);
  }
  std::vector<GateId> order;
  order.reserve(gates_.size());
  std::vector<GateId> ready;
  for (GateId id = 0; id < gates_.size(); ++id) {
    if (indeg[id] == 0) ready.push_back(id);
  }
  // Process smallest id first for a deterministic order.
  std::sort(ready.begin(), ready.end(), std::greater<>());
  while (!ready.empty()) {
    GateId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (GateId out : fanouts[id]) {
      if (--indeg[out] == 0) ready.push_back(out);
    }
    std::sort(ready.begin(), ready.end(), std::greater<>());
  }
  if (order.size() != gates_.size()) {
    throw std::logic_error("topoOrder on cyclic netlist");
  }
  return order;
}

std::size_t Netlist::combDepth() const {
  std::vector<std::size_t> depth(gates_.size(), 0);
  std::size_t best = 0;
  for (GateId id : topoOrder()) {
    const Gate& g = gates_[id];
    if (!isCombinational(g.kind)) continue;
    std::size_t d = 0;
    for (GateId f : g.fanins) d = std::max(d, depth[f]);
    // Output ports are transparent (no logic), everything else adds a level.
    depth[id] = d + (g.kind == GateKind::kOutput ? 0 : 1);
    best = std::max(best, depth[id]);
  }
  return best;
}

GateCounts Netlist::counts() const {
  GateCounts c;
  for (const Gate& g : gates_) {
    switch (g.kind) {
      case GateKind::kInput: ++c.inputs; break;
      case GateKind::kOutput: ++c.outputs; break;
      case GateKind::kDff: ++c.dffs; break;
      case GateKind::kConst0:
      case GateKind::kConst1: ++c.constants; break;
      default: ++c.combinational; break;
    }
  }
  return c;
}

std::vector<std::uint32_t> Netlist::fanoutCounts() const {
  std::vector<std::uint32_t> n(gates_.size(), 0);
  for (const Gate& g : gates_) {
    for (GateId f : g.fanins) ++n[f];
  }
  return n;
}

}  // namespace vfpga
