#include "place/placer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vfpga {

namespace {

/// Pseudo-position of port nets: ports are bound (by the compiler, in
/// order) to pads along the region's north and south edges, so anchor the
/// i-th port above/below the region, spread across its width.
CellSite portAnchor(const Region& r, std::size_t portIndex, bool isInput,
                    std::size_t portsOfKind) {
  const std::size_t denom = std::max<std::size_t>(portsOfKind, 1);
  const std::uint16_t x = static_cast<std::uint16_t>(
      r.x0 + portIndex * r.w / denom);
  // Inputs anchor south, outputs north (arbitrary but stable).
  const std::uint16_t y = isInput ? r.y0 : r.y1();
  return {std::min<std::uint16_t>(x, r.x1()), y};
}

/// Cost engine shared by place() and placementCost(). Each live net keeps a
/// flat list of the cells it touches plus the fixed bounding box of its
/// port anchors, so a net's HPWL depends only on its cells' sites.
class CostModel {
 public:
  CostModel(const MappedNetlist& m, const Region& region)
      : netsOfCell_(m.cells.size()) {
    const auto sinks = m.computeSinks();
    netStart_.push_back(0);
    for (NetId n = 0; n < m.netCount(); ++n) {
      const auto& s = sinks[n];
      if (s.cellPins.empty() && s.outputPorts.empty()) continue;
      const auto net = static_cast<std::uint32_t>(anchors_.size());
      Box anchors;
      if (m.netIsInput(n)) {
        anchors.grow(portAnchor(region, n, true, m.inputs.size()));
      } else {
        addCell(net, m.cellOfNet(n));
      }
      for (auto [cell, pin] : s.cellPins) {
        (void)pin;
        addCell(net, cell);
      }
      for (std::uint32_t o : s.outputPorts) {
        anchors.grow(portAnchor(region, o, false, m.outputs.size()));
      }
      anchors_.push_back(anchors);
      netStart_.push_back(static_cast<std::uint32_t>(cells_.size()));
    }
  }

  std::uint32_t netCount() const {
    return static_cast<std::uint32_t>(anchors_.size());
  }

  /// HPWL of live net `net` (an index in [0, netCount())).
  std::int32_t netCost(std::uint32_t net,
                       const std::vector<CellSite>& sites) const {
    Box b = anchors_[net];
    for (std::uint32_t i = netStart_[net]; i < netStart_[net + 1]; ++i) {
      b.grow(sites[cells_[i]]);
    }
    return (b.maxX - b.minX) + (b.maxY - b.minY);
  }

  std::int64_t totalCost(const std::vector<CellSite>& sites) const {
    std::int64_t cost = 0;
    for (std::uint32_t n = 0; n < netCount(); ++n) cost += netCost(n, sites);
    return cost;
  }

  const std::vector<std::uint32_t>& netsOfCell(std::uint32_t c) const {
    return netsOfCell_[c];
  }

 private:
  struct Box {
    std::int32_t minX = 1 << 30, maxX = -(1 << 30);
    std::int32_t minY = 1 << 30, maxY = -(1 << 30);
    void grow(CellSite site) {
      minX = std::min<std::int32_t>(minX, site.x);
      maxX = std::max<std::int32_t>(maxX, site.x);
      minY = std::min<std::int32_t>(minY, site.y);
      maxY = std::max<std::int32_t>(maxY, site.y);
    }
  };

  void addCell(std::uint32_t net, std::uint32_t cell) {
    cells_.push_back(cell);
    auto& v = netsOfCell_[cell];
    if (v.empty() || v.back() != net) v.push_back(net);
  }

  std::vector<Box> anchors_;               ///< per live net
  std::vector<std::uint32_t> netStart_;    ///< CSR offsets into cells_
  std::vector<std::uint32_t> cells_;
  std::vector<std::vector<std::uint32_t>> netsOfCell_;
};

}  // namespace

double placementCost(const MappedNetlist& m, const Placement& p) {
  return static_cast<double>(CostModel(m, p.region).totalCost(p.sites));
}

Placement place(const MappedNetlist& m, const Region& region, Rng& rng,
                const PlaceOptions& options) {
  if (m.cells.size() > region.clbCount()) {
    throw std::runtime_error("region too small: " +
                             std::to_string(m.cells.size()) + " cells into " +
                             std::to_string(region.clbCount()) + " CLBs");
  }
  Placement p;
  p.region = region;
  p.sites.resize(m.cells.size());

  // Initial placement: shuffled sites, cells take the first N.
  std::vector<CellSite> sites;
  sites.reserve(region.clbCount());
  for (std::uint16_t y = region.y0; y <= region.y1(); ++y) {
    for (std::uint16_t x = region.x0; x <= region.x1(); ++x) {
      sites.push_back(CellSite{x, y});
    }
  }
  for (std::size_t i = sites.size(); i > 1; --i) {
    std::swap(sites[i - 1], sites[rng.below(i)]);
  }
  std::vector<std::int32_t> occupant(sites.size(), -1);
  std::vector<std::uint32_t> siteOf(m.cells.size());
  for (std::uint32_t c = 0; c < m.cells.size(); ++c) {
    occupant[c] = static_cast<std::int32_t>(c);
    siteOf[c] = c;
    p.sites[c] = sites[c];
  }

  CostModel model(m, region);
  if (m.cells.size() <= 1 || sites.size() <= 1) {
    p.finalCost = static_cast<double>(model.totalCost(p.sites));
    return p;
  }

  // Exact per-net HPWL cache: a move re-evaluates only the nets of the
  // cells it swaps. Costs are integers, so every sum is exact in any order.
  std::vector<std::int32_t> hpwl(model.netCount());
  for (std::uint32_t n = 0; n < model.netCount(); ++n) {
    hpwl[n] = model.netCost(n, p.sites);
  }
  std::vector<std::uint32_t> touched;
  std::vector<std::int32_t> moved;  ///< post-swap HPWL of each touched net
  std::vector<std::uint32_t> touchStamp(model.netCount(), 0);
  std::uint32_t stamp = 0;
  auto touch = [&](std::uint32_t cell) {
    for (std::uint32_t n : model.netsOfCell(cell)) {
      if (touchStamp[n] == stamp) continue;
      touchStamp[n] = stamp;
      touched.push_back(n);
    }
  };
  // Attempts one move; returns the (applied) cost delta, 0 if rejected.
  auto tryMove = [&](bool forceAccept, double T) -> double {
    const std::uint32_t c =
        static_cast<std::uint32_t>(rng.below(m.cells.size()));
    const std::uint32_t target =
        static_cast<std::uint32_t>(rng.below(sites.size()));
    const std::uint32_t from = siteOf[c];
    if (target == from) return 0.0;
    const std::int32_t other = occupant[target];

    if (++stamp == 0) {  // wrapped: forget every old mark
      std::fill(touchStamp.begin(), touchStamp.end(), 0);
      stamp = 1;
    }
    touched.clear();
    touch(c);
    if (other >= 0) touch(static_cast<std::uint32_t>(other));

    std::int64_t before = 0;
    for (std::uint32_t n : touched) before += hpwl[n];

    auto swapSites = [&]() {
      occupant[from] = other;
      occupant[target] = static_cast<std::int32_t>(c);
      siteOf[c] = target;
      p.sites[c] = sites[target];
      if (other >= 0) {
        siteOf[static_cast<std::uint32_t>(other)] = from;
        p.sites[static_cast<std::uint32_t>(other)] = sites[from];
      }
    };
    swapSites();

    moved.clear();
    std::int64_t after = 0;
    for (std::uint32_t n : touched) {
      moved.push_back(model.netCost(n, p.sites));
      after += moved.back();
    }
    const double delta = static_cast<double>(after - before);

    bool keep = forceAccept || delta <= 0 ||
                (T > 0 && rng.uniform() < std::exp(-delta / T));
    if (keep) {
      for (std::size_t i = 0; i < touched.size(); ++i) {
        hpwl[touched[i]] = moved[i];
      }
      return delta;
    }
    // Revert.
    occupant[target] = other;
    occupant[from] = static_cast<std::int32_t>(c);
    siteOf[c] = from;
    p.sites[c] = sites[from];
    if (other >= 0) {
      siteOf[static_cast<std::uint32_t>(other)] = target;
      p.sites[static_cast<std::uint32_t>(other)] = sites[target];
    }
    return 0.0;
  };

  // Initial temperature from the mean |delta| of forced probe moves.
  double sumAbs = 0.0;
  const int probes = 32;
  for (int i = 0; i < probes; ++i) sumAbs += std::abs(tryMove(true, 0.0));
  double T = std::max(
      1.0, (sumAbs / probes) / -std::log(options.initialAcceptance));
  const double T0 = T;
  const std::uint64_t movesPerTemp = std::max<std::uint64_t>(
      16, options.movesPerCellPerTemp * m.cells.size());
  while (T > options.stopTemperatureRatio * T0) {
    for (std::uint64_t i = 0; i < movesPerTemp; ++i) tryMove(false, T);
    T *= options.coolingFactor;
  }
  // Greedy cleanup pass at T = 0.
  for (std::uint64_t i = 0; i < movesPerTemp; ++i) tryMove(false, 0.0);

  p.finalCost = static_cast<double>(model.totalCost(p.sites));
  return p;
}

}  // namespace vfpga
