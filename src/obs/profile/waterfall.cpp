#include "obs/profile/waterfall.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "obs/json.hpp"

namespace vfpga::obs::profile {

const char* PhaseBreakdown::criticalPhase() const {
  const char* name = "idle";
  std::uint64_t best = 0;
  const std::pair<const char*, std::uint64_t> shares[] = {
      {"wait", waitNs},
      {"config", configNs},
      {"exec", execNs},
      {"cpu", cpuNs},
      {"stall", stallNs},
  };
  for (const auto& [n, v] : shares) {
    if (v > best) {
      best = v;
      name = n;
    }
  }
  return name;
}

namespace {

struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

std::uint64_t overlap(const Interval& a, const Interval& b) {
  const std::uint64_t lo = std::max(a.start, b.start);
  const std::uint64_t hi = std::min(a.end, b.end);
  return hi > lo ? hi - lo : 0;
}

}  // namespace

WaterfallReport buildWaterfall(const SpanTracer& tracer,
                               const std::vector<std::string>& taskNames) {
  std::uint32_t maxTrack = static_cast<std::uint32_t>(taskNames.size());
  for (const SpanRecord& s : tracer.spans()) {
    maxTrack = std::max(maxTrack, s.track);
  }
  for (const InstantRecord& i : tracer.instants()) {
    maxTrack = std::max(maxTrack, i.track);
  }

  WaterfallReport rep;
  rep.complete = true;
  for (std::uint32_t track = 1; track <= maxTrack; ++track) {
    TaskWaterfall tw;
    tw.track = track;
    tw.task = track <= taskNames.size() ? taskNames[track - 1]
                                        : "track" + std::to_string(track);
    std::vector<Interval> execs;
    std::vector<Interval> inner;  // config + stall, subtracted from exec
    bool any = false;
    for (const SpanRecord& s : tracer.spans()) {
      if (s.track != track) continue;
      any = true;
      tw.startNs = tw.startNs == 0 && tw.endNs == 0
                       ? s.startNs
                       : std::min(tw.startNs, s.startNs);
      tw.endNs = std::max(tw.endNs, s.startNs + s.durationNs);
      if (s.category == "os.wait") {
        tw.phases.waitNs += s.durationNs;
      } else if (s.category == "os.config") {
        tw.phases.configNs += s.durationNs;
        inner.push_back({s.startNs, s.startNs + s.durationNs});
      } else if (s.category == "os.fpga_exec") {
        tw.phases.execNs += s.durationNs;
        execs.push_back({s.startNs, s.startNs + s.durationNs});
      } else if (s.category == "os.service") {
        tw.phases.cpuNs += s.durationNs;
      } else if (s.category == "os.stall") {
        tw.phases.stallNs += s.durationNs;
        inner.push_back({s.startNs, s.startNs + s.durationNs});
      }
    }
    for (const InstantRecord& i : tracer.instants()) {
      if (i.track != track) continue;
      any = true;
      if (i.category == "os.preempt") ++tw.phases.preemptions;
      if (i.category == "os.migrate") ++tw.phases.migrations;
      if (i.category == "os.park") ++tw.phases.parks;
      if (i.category == "os.checkpoint") ++tw.phases.checkpoints;
      if (i.category == "os.restore") ++tw.phases.restores;
      if (i.category == "os.stall") {
        // Stalls that stretch a running execution are marked as instants
        // carrying the shift (spans would straddle the already-recorded
        // exec span's end); the stretch is extra time on top of exec.
        for (const auto& [k, v] : i.attributes) {
          if (k == "stall_ns") {
            tw.phases.stallNs += std::strtoull(v.c_str(), nullptr, 10);
          }
        }
      }
      if (i.category == "os.wait") {
        // The kernel marks a finished wait as an instant carrying its
        // length: exec spans are recorded optimistically at dispatch, so
        // a post-preemption re-wait span would partially overlap them.
        for (const auto& [k, v] : i.attributes) {
          if (k == "wait_ns") {
            tw.phases.waitNs += std::strtoull(v.c_str(), nullptr, 10);
          }
        }
      }
    }
    // Download/stall time nests inside the gross exec span; subtract it so
    // the phases partition the timeline instead of double-counting.
    std::uint64_t nested = 0;
    for (const Interval& e : execs) {
      for (const Interval& n : inner) nested += overlap(e, n);
    }
    tw.phases.execNs = tw.phases.execNs > nested ? tw.phases.execNs - nested
                                                 : 0;
    if (track <= taskNames.size() && !any) rep.complete = false;

    rep.total.waitNs += tw.phases.waitNs;
    rep.total.configNs += tw.phases.configNs;
    rep.total.execNs += tw.phases.execNs;
    rep.total.cpuNs += tw.phases.cpuNs;
    rep.total.stallNs += tw.phases.stallNs;
    rep.total.preemptions += tw.phases.preemptions;
    rep.total.migrations += tw.phases.migrations;
    rep.total.parks += tw.phases.parks;
    rep.total.checkpoints += tw.phases.checkpoints;
    rep.total.restores += tw.phases.restores;
    rep.makespanNs = std::max(rep.makespanNs, tw.endNs);
    rep.tasks.push_back(std::move(tw));
  }
  if (rep.tasks.empty()) rep.complete = false;
  return rep;
}

std::string renderText(const WaterfallReport& report) {
  std::ostringstream os;
  os << "task waterfall (sim ns)\n";
  os << "=======================\n";
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%-10s %12s %12s %12s %12s %12s %8s %6s %5s %5s %-8s\n",
                "task", "wait", "config", "exec", "cpu", "stall", "preempt",
                "migr", "ckpt", "rstr", "critical");
  os << buf;
  auto row = [&](const std::string& name, const PhaseBreakdown& p) {
    std::snprintf(buf, sizeof buf,
                  "%-10s %12llu %12llu %12llu %12llu %12llu %8llu %6llu "
                  "%5llu %5llu %-8s\n",
                  name.c_str(), static_cast<unsigned long long>(p.waitNs),
                  static_cast<unsigned long long>(p.configNs),
                  static_cast<unsigned long long>(p.execNs),
                  static_cast<unsigned long long>(p.cpuNs),
                  static_cast<unsigned long long>(p.stallNs),
                  static_cast<unsigned long long>(p.preemptions),
                  static_cast<unsigned long long>(p.migrations),
                  static_cast<unsigned long long>(p.checkpoints),
                  static_cast<unsigned long long>(p.restores),
                  p.criticalPhase());
    os << buf;
  };
  for (const TaskWaterfall& t : report.tasks) row(t.task, t.phases);
  row("TOTAL", report.total);
  os << "makespan_ns: " << report.makespanNs << "\n";
  os << "critical_phase: " << report.total.criticalPhase() << "\n";
  os << "complete: " << (report.complete ? "yes" : "no") << "\n";
  return os.str();
}

std::string renderJson(const WaterfallReport& report) {
  std::string out;
  JsonWriter w(out);
  const auto phases = [&w](const PhaseBreakdown& p) {
    w.beginObject().key("wait_ns").value(p.waitNs).key("config_ns")
        .value(p.configNs).key("exec_ns").value(p.execNs).key("cpu_ns")
        .value(p.cpuNs).key("stall_ns").value(p.stallNs).key("preemptions")
        .value(p.preemptions).key("migrations").value(p.migrations)
        .key("parks").value(p.parks).key("checkpoints").value(p.checkpoints)
        .key("restores").value(p.restores).key("critical")
        .value(p.criticalPhase()).endObject();
  };
  w.beginObject().newline().key("tasks").beginArray();
  for (const TaskWaterfall& t : report.tasks) {
    w.newline().beginObject().key("task").value(t.task).key("track")
        .value(t.track).key("start_ns").value(t.startNs).key("end_ns")
        .value(t.endNs).key("phases");
    phases(t.phases);
    w.endObject();
  }
  w.newline().endArray().newline().key("total");
  phases(report.total);
  w.newline().key("makespan_ns").value(report.makespanNs).key("complete")
      .value(report.complete).newline().endObject();
  out += '\n';
  return out;
}

}  // namespace vfpga::obs::profile
