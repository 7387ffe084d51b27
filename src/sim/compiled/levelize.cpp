#include "sim/compiled/program.hpp"

#include <algorithm>

#include "fabric/device.hpp"
#include "sim/hash.hpp"

namespace vfpga::compiled {

namespace {

std::uint32_t tapeSlot(const FabricProgram& p, const SignalSource& s) {
  switch (s.kind) {
    case SignalSource::Kind::kUndriven: return 0;
    case SignalSource::Kind::kPadSlot: return p.padBase + s.index;
    case SignalSource::Kind::kCell: return p.cellBase + s.index;
  }
  return 0;
}

}  // namespace

std::uint64_t configDigest(const Device& dev) {
  const FabricGeometry& g = dev.geometry();
  std::uint64_t h = hash::kFnvOffset;
  h = hash::fnv1aU64(h, g.rows);
  h = hash::fnv1aU64(h, g.cols);
  h = hash::fnv1aU64(h, g.lutInputs);
  h = hash::fnv1aU64(h, g.wiresPerChannel);
  h = hash::fnv1aU64(h, g.slotsPerPad);
  return hash::fnv1a(h, dev.image().raw());
}

std::shared_ptr<const FabricProgram> levelizeDevice(Device& dev) {
  const Elaboration& e = dev.elaboration();
  const FabricGeometry& g = dev.geometry();
  if (!e.ok() || g.lutInputs > kMaxLutInputs) return nullptr;

  auto prog = std::make_shared<FabricProgram>();
  FabricProgram& p = *prog;
  const std::uint32_t pads = static_cast<std::uint32_t>(g.padSlotCount());
  const std::uint32_t cells = static_cast<std::uint32_t>(e.cells.size());
  p.lutInputs = g.lutInputs;
  p.padBase = 1;
  p.cellBase = 1 + pads;
  p.tapeSize = 1 + pads + cells;
  p.digest = configDigest(dev);
  p.inputSlots = e.inputSlots;

  // ASAP levels over the comb dependency DAG: registered and pad sources
  // start at level 0; a comb cell sits one past its deepest comb input.
  // evalOrder is already a topological order, so one pass suffices.
  std::vector<std::uint32_t> level(cells, 0);
  for (std::uint32_t ci : e.evalOrder) {
    const Elaboration::Cell& cell = e.cells[ci];
    if (cell.useFf) continue;
    std::uint32_t lv = 0;
    for (const SignalSource& in : cell.inputs) {
      if (in.kind == SignalSource::Kind::kCell && !e.cells[in.index].useFf) {
        lv = std::max(lv, level[in.index] + 1);
      }
    }
    level[ci] = lv;
  }

  std::uint32_t maxLevel = 0;
  for (std::uint32_t ci = 0; ci < cells; ++ci) {
    if (!e.cells[ci].useFf) maxLevel = std::max(maxLevel, level[ci]);
  }

  auto makeOp = [&](std::uint32_t ci) {
    const Elaboration::Cell& cell = e.cells[ci];
    FabricProgram::Op op;
    op.table = cell.lutTable;
    op.cell = ci;
    op.out = p.cellBase + ci;
    for (std::uint32_t i = 0; i < p.lutInputs; ++i) {
      op.in[i] = tapeSlot(p, cell.inputs[i]);
    }
    return op;
  };

  // Comb schedule: (level, cell index) ascending — deterministic for a
  // given image regardless of the elaborator's internal stack order.
  std::vector<std::vector<std::uint32_t>> byLevel(maxLevel + 1);
  for (std::uint32_t ci = 0; ci < cells; ++ci) {
    const Elaboration::Cell& cell = e.cells[ci];
    if (cell.useFf) {
      p.ffs.push_back({ci, cell.ffIndex});
      continue;
    }
    byLevel[level[ci]].push_back(ci);
  }
  p.levelStart.push_back(0);
  for (const auto& bucket : byLevel) {
    for (std::uint32_t ci : bucket) p.comb.push_back(makeOp(ci));
    p.levelStart.push_back(static_cast<std::uint32_t>(p.comb.size()));
  }

  // FF next-state ops: all comb values are final when these run.
  for (const FabricProgram::FfBind& fb : p.ffs) {
    FabricProgram::Op op = makeOp(fb.cell);
    op.out = fb.ffIndex;
    p.ffNext.push_back(op);
  }

  for (const Elaboration::PadOut& po : e.padOuts) {
    p.padOuts.push_back({po.slot, tapeSlot(p, po.source)});
  }
  return prog;
}

}  // namespace vfpga::compiled
