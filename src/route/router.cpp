#include "route/router.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace vfpga {

namespace {

/// Manhattan-distance lower bound between two routing nodes (admissible
/// because every unit of distance costs at least one node of base cost 1).
double distanceBound(const RoutingGraph& rrg, RRNodeId a, RRNodeId b) {
  const RRNode& na = rrg.node(a);
  const RRNode& nb = rrg.node(b);
  return std::abs(static_cast<int>(na.x) - static_cast<int>(nb.x)) +
         std::abs(static_cast<int>(na.y) - static_cast<int>(nb.y));
}

struct QueueEntry {
  double priority;
  double cost;
  RRNodeId node;
  bool operator>(const QueueEntry& o) const {
    if (priority != o.priority) return priority > o.priority;
    return node > o.node;  // deterministic tie-break
  }
};

}  // namespace

std::vector<char> columnRangeMask(const RoutingGraph& rrg, std::uint16_t c0,
                                  std::uint16_t c1) {
  std::vector<char> mask(rrg.nodeCount(), 0);
  for (RRNodeId n = 0; n < rrg.nodeCount(); ++n) {
    const std::uint16_t col = rrg.ownerColumn(n);
    if (col >= c0 && col <= c1) mask[n] = 1;
  }
  return mask;
}

Router::Router(const RoutingGraph& rrg, std::vector<char> allowed)
    : rrg_(&rrg), allowed_(std::move(allowed)) {
  if (!allowed_.empty() && allowed_.size() != rrg.nodeCount()) {
    throw std::invalid_argument("allowed mask size mismatch");
  }
}

std::optional<RouteResult> Router::routeAll(
    const std::vector<RouteRequest>& requests, const RouteOptions& options) {
  const std::size_t N = rrg_->nodeCount();
  for (const RouteRequest& r : requests) {
    if (r.source == kNoRRNode || !nodeAllowed(r.source)) return std::nullopt;
    // The search enters a sink only from a node it may expand: an allowed
    // non-pad node or the net's own source. A sink without such an in-edge
    // is unreachable, so fail now instead of after exploring the region.
    auto expandable = [&](RREdgeId e) {
      const RRNodeId from = rrg_->edge(e).from;
      return from == r.source || (nodeAllowed(from) &&
                                  rrg_->node(from).kind != RRKind::kPadSlot);
    };
    for (RRNodeId s : r.sinks) {
      if (s == kNoRRNode || !nodeAllowed(s)) return std::nullopt;
      const auto in = rrg_->edgesInto(s);
      if (s != r.source && std::none_of(in.begin(), in.end(), expandable)) {
        return std::nullopt;
      }
    }
  }

  RouteResult result;
  result.nets.resize(requests.size());

  std::vector<std::uint16_t> occupancy(N, 0);
  std::vector<double> history(N, 0.0);
  double presentFactor = options.presentFactorInitial;

  // Per-search scratch, versioned to avoid O(N) clears per search.
  std::vector<std::uint32_t> visitVersion(N, 0);
  std::vector<double> bestCost(N, 0.0);
  std::vector<RREdgeId> cameBy(N, 0);
  std::vector<char> inTree(N, 0);
  std::uint32_t version = 0;
  // A* open list: a binary min-heap kept in one buffer reused by every
  // search (the same push_heap/pop_heap order std::priority_queue uses).
  std::vector<QueueEntry> open;
  const std::greater<> later;
  auto push = [&](QueueEntry e) {
    open.push_back(e);
    std::push_heap(open.begin(), open.end(), later);
  };

  auto nodeCost = [&](RRNodeId n, int netUse) -> double {
    // netUse: this net's own current usage of n (free to reuse own tree).
    const int over = std::max(0, occupancy[n] - netUse);
    return (1.0 + history[n]) * (1.0 + presentFactor * over);
  };

  const int iterations = options.greedy ? 1 : options.maxIterations;
  for (int iter = 1; iter <= iterations; ++iter) {
    result.iterations = iter;
    for (std::size_t ni = 0; ni < requests.size(); ++ni) {
      const RouteRequest& req = requests[ni];
      RoutedNet& net = result.nets[ni];
      // Rip up the previous route of this net.
      for (RRNodeId n : net.nodes) --occupancy[n];
      net.edges.clear();
      net.nodes.clear();
      net.sinkHops.clear();

      // Route tree (net.nodes) starts at the source.
      net.nodes.push_back(req.source);
      ++occupancy[req.source];

      for (RRNodeId sink : req.sinks) {
        // A* from the whole current tree to the sink.
        ++version;
        open.clear();
        for (RRNodeId t : net.nodes) {
          visitVersion[t] = version;
          bestCost[t] = 0.0;
          inTree[t] = 1;
          push(QueueEntry{options.astarWeight * distanceBound(*rrg_, t, sink),
                          0.0, t});
        }
        bool found = false;
        while (!open.empty()) {
          std::pop_heap(open.begin(), open.end(), later);
          const QueueEntry e = open.back();
          open.pop_back();
          if (visitVersion[e.node] == version && e.cost > bestCost[e.node]) {
            continue;  // stale entry
          }
          ++result.nodesExpanded;
          if (e.node == sink) {
            found = true;
            break;
          }
          // Never expand out of a pad slot other than the net's own source:
          // slots already reached (e.g. earlier sinks in the tree) are
          // terminals, not through-routing resources.
          if (e.node != req.source &&
              rrg_->node(e.node).kind == RRKind::kPadSlot) {
            continue;
          }
          for (RREdgeId eid : rrg_->edgesFrom(e.node)) {
            const RRNodeId to = rrg_->edge(eid).to;
            if (!nodeAllowed(to)) continue;
            // Pad slots are endpoints, never through-routing resources: a
            // slot in the middle of a path would decode as a spurious pad.
            if (to != sink && rrg_->node(to).kind == RRKind::kPadSlot) {
              continue;
            }
            // In greedy mode a node used by another net is simply blocked.
            if (options.greedy && occupancy[to] > 0 && to != sink) continue;
            const bool seen = visitVersion[to] == version;
            if (seen && inTree[to]) continue;
            const double c = e.cost + nodeCost(to, 0);
            if (seen && c >= bestCost[to]) continue;
            if (!seen) inTree[to] = 0;
            visitVersion[to] = version;
            bestCost[to] = c;
            cameBy[to] = eid;
            push(QueueEntry{
                c + options.astarWeight * distanceBound(*rrg_, to, sink), c,
                to});
          }
        }
        if (!found) {
          // Unreachable sink: unroute this net and fail the whole call —
          // congestion negotiation cannot fix a disconnected sink.
          for (RRNodeId n : net.nodes) --occupancy[n];
          return std::nullopt;
        }
        // Walk back from the sink to the tree, collecting nodes and edges.
        std::uint32_t hops = 0;
        RRNodeId cur = sink;
        while (!(visitVersion[cur] == version && inTree[cur])) {
          const RREdgeId eid = cameBy[cur];
          net.edges.push_back(eid);
          net.nodes.push_back(cur);
          ++occupancy[cur];
          ++hops;
          cur = rrg_->edge(eid).from;
          if (cur == req.source) break;
          if (visitVersion[cur] == version && inTree[cur]) break;
        }
        net.sinkHops.push_back(hops);
      }
    }

    // Legality check and history update. Only nodes some net occupies can
    // be overused, so scan the nets' nodes, each overused node once (a fresh
    // version stamps the ones already charged).
    bool legal = true;
    ++version;
    for (const RoutedNet& net : result.nets) {
      for (RRNodeId n : net.nodes) {
        if (occupancy[n] <= 1 || visitVersion[n] == version) continue;
        visitVersion[n] = version;
        legal = false;
        history[n] += options.historyIncrement * (occupancy[n] - 1);
      }
    }
    if (legal) return result;
    presentFactor *= options.presentFactorGrowth;
  }
  return std::nullopt;
}

}  // namespace vfpga
