#include "obs/profile/activity.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/json.hpp"

namespace vfpga::obs::profile {

void ActivityAggregator::add(const SiteSample& s) {
  totalEvals_ += s.evals;
  totalToggles_ += s.toggles;
  totalHops_ += s.hops;
  for (ConeStat& c : sites_) {
    if (c.x == s.x && c.y == s.y) {
      c.evals += s.evals;
      c.toggles += s.toggles;
      c.hops += s.hops;
      return;
    }
  }
  ConeStat c;
  c.x = s.x;
  c.y = s.y;
  c.strip = s.x;
  c.evals = s.evals;
  c.toggles = s.toggles;
  c.hops = s.hops;
  sites_.push_back(c);
}

std::vector<ConeStat> ActivityAggregator::topK(std::size_t k) const {
  std::vector<ConeStat> out = sites_;
  std::sort(out.begin(), out.end(), [](const ConeStat& a, const ConeStat& b) {
    if (a.score() != b.score()) return a.score() > b.score();
    if (a.y != b.y) return a.y < b.y;
    return a.x < b.x;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::string ActivityAggregator::renderText(std::size_t k) const {
  std::ostringstream os;
  os << "fabric activity: hot cones\n";
  os << "==========================\n";
  os << "cycles: " << cycles_ << "   sites: " << sites_.size()
     << "   evals: " << totalEvals_ << "   toggles: " << totalToggles_
     << "   hops: " << totalHops_ << "\n\n";
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-5s %-5s %-5s %-6s %12s %12s %12s %12s\n",
                "rank", "x", "y", "strip", "score", "evals", "toggles",
                "hops");
  os << buf;
  const std::vector<ConeStat> top = topK(k);
  for (std::size_t i = 0; i < top.size(); ++i) {
    const ConeStat& c = top[i];
    std::snprintf(buf, sizeof buf,
                  "%-5zu %-5u %-5u %-6u %12llu %12llu %12llu %12llu\n", i + 1,
                  c.x, c.y, c.strip,
                  static_cast<unsigned long long>(c.score()),
                  static_cast<unsigned long long>(c.evals),
                  static_cast<unsigned long long>(c.toggles),
                  static_cast<unsigned long long>(c.hops));
    os << buf;
  }
  return os.str();
}

std::string ActivityAggregator::renderJson(std::size_t k) const {
  std::string out;
  JsonWriter w(out);
  w.beginObject().newline().key("cycles").value(cycles_).key("sites")
      .value(sites_.size()).key("evals").value(totalEvals_).key("toggles")
      .value(totalToggles_).key("hops").value(totalHops_).newline()
      .key("cones").beginArray();
  for (const ConeStat& c : topK(k)) {
    w.newline().beginObject().key("x").value(c.x).key("y").value(c.y)
        .key("strip").value(c.strip).key("score").value(c.score())
        .key("evals").value(c.evals).key("toggles").value(c.toggles)
        .key("hops").value(c.hops).endObject();
  }
  w.newline().endArray().newline().endObject();
  out += '\n';
  return out;
}

}  // namespace vfpga::obs::profile
