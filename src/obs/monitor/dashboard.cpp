#include "obs/monitor/dashboard.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "obs/json.hpp"

namespace vfpga::obs::monitor {

namespace {

constexpr char kRamp[] = " .:-=+*#%@";  // 10 levels, low to high

std::string fmt(double v) { return formatSampleValue(v); }

// Display form for the text/HTML panels: 6 significant digits keeps the
// columns readable (the JSON export keeps full shortest-round-trip
// fidelity via fmt()). snprintf %g is deterministic under the default "C"
// locale the CLI runs in.
std::string disp(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// Two-decimal rounding for SVG coordinates (keeps the HTML small and the
// byte output independent of accumulated float noise).
std::string coord(double v) {
  const double r = std::round(v * 100.0) / 100.0;
  return formatSampleValue(r == 0.0 ? 0.0 : r);  // normalize -0
}

const char* transitionColor(const std::string& to) {
  if (to == "firing") return "#c0392b";
  if (to == "pending") return "#e67e22";
  if (to == "resolved") return "#27ae60";
  return "#95a5a6";  // cancelled
}

const char* gradeColor(HealthGrade g) {
  switch (g) {
    case HealthGrade::kHealthy: return "#27ae60";
    case HealthGrade::kDegraded: return "#e67e22";
    case HealthGrade::kCritical: return "#c0392b";
  }
  return "#95a5a6";
}

}  // namespace

std::string asciiSparkline(const TimeSeriesStore& store,
                           const std::string& series, std::size_t width) {
  const auto& vals = store.values(series);
  if (vals.empty() || width == 0) return "";
  const std::size_t n = std::min(width, vals.size());
  const std::size_t begin = vals.size() - n;
  double lo = vals[begin];
  double hi = vals[begin];
  for (std::size_t i = begin; i < vals.size(); ++i) {
    lo = std::min(lo, vals[i]);
    hi = std::max(hi, vals[i]);
  }
  std::string out;
  out.reserve(n);
  const double span = hi - lo;
  for (std::size_t i = begin; i < vals.size(); ++i) {
    std::size_t level = 4;  // flat series: mid band
    if (span > 0.0) {
      level = static_cast<std::size_t>((vals[i] - lo) / span * 9.0 + 0.5);
      level = std::min<std::size_t>(level, 9);
    }
    out.push_back(kRamp[level]);
  }
  return out;
}

std::string renderMonitorText(const DashboardInput& in) {
  const TimeSeriesStore& store = *in.store;
  std::ostringstream os;
  os << "== " << in.title << " ==\n";
  os << "t_ns=" << in.atNs << " ticks=" << store.totalTicks() << " (retained "
     << store.retainedTicks() << ", dropped " << store.droppedTicks()
     << ") interval_ns=" << store.sampleIntervalNs() << "\n\n";

  os << "series\n";
  os << "  " << std::left << std::setw(34) << "name" << std::right << ' '
     << std::setw(12) << "last" << ' ' << std::setw(12) << "min" << ' '
     << std::setw(12) << "mean" << ' ' << std::setw(12) << "max"
     << "  spark\n";
  for (const std::string& name : store.seriesNames()) {
    const OnlineStats& s = store.allTime(name);
    os << "  " << std::left << std::setw(34) << name << std::right << ' '
       << std::setw(12) << disp(store.latest(name)) << ' ' << std::setw(12)
       << disp(s.count() > 0 ? s.min() : 0.0) << ' ' << std::setw(12)
       << disp(s.count() > 0 ? s.mean() : 0.0) << ' ' << std::setw(12)
       << disp(s.count() > 0 ? s.max() : 0.0) << "  |"
       << asciiSparkline(store, name, 32) << "|\n";
  }

  if (in.health != nullptr && !in.health->devices().empty()) {
    os << "\nhealth\n";
    os << "  " << std::left << std::setw(12) << "device" << std::setw(10)
       << "grade" << std::right << std::setw(10) << "score" << std::setw(14)
       << "usable/total" << "\n";
    for (const std::string& dev : in.health->devices()) {
      const HealthCounters c = in.health->lastCounters(dev);
      os << "  " << std::left << std::setw(12) << dev << std::setw(10)
         << healthGradeName(in.health->grade(dev)) << std::right
         << std::setw(10) << disp(in.health->score(dev)) << ' '
         << std::setw(13)
         << (std::to_string(c.usableColumns) + "/" +
             std::to_string(c.totalColumns))
         << "\n";
    }
  }

  if (in.engine != nullptr) {
    os << "\nalerts\n";
    os << "  " << std::left << std::setw(26) << "rule" << std::setw(15)
       << "kind" << std::setw(10) << "severity" << std::setw(9) << "state"
       << std::right << std::setw(10) << "incidents" << std::setw(12)
       << "value" << "\n";
    for (const RuleStatus& rs : in.engine->rules()) {
      os << "  " << std::left << std::setw(26) << rs.rule.name
         << std::setw(15) << ruleKindName(rs.rule.kind) << std::setw(10)
         << alertSeverityName(rs.rule.severity) << std::setw(9)
         << alertStateName(rs.state) << std::right << std::setw(10)
         << rs.incidents << ' ' << std::setw(12) << disp(rs.lastValue)
         << "\n";
    }
    os << "\ntransitions\n";
    if (in.engine->transitions().empty()) {
      os << "  (none)\n";
    }
    for (const AlertTransition& tr : in.engine->transitions()) {
      os << "  t_ns=" << std::left << std::setw(12) << tr.atNs
         << std::setw(26) << tr.rule
         << (std::string(alertStateName(tr.from)) + "->" + tr.to)
         << "  value=" << disp(tr.value) << "\n";
    }
  }
  return os.str();
}

std::string renderMonitorJson(const DashboardInput& in) {
  const TimeSeriesStore& store = *in.store;
  std::ostringstream os;
  os << "{\n  \"title\": \"" << jsonEscape(in.title)
     << "\",\n  \"at_ns\": " << in.atNs << ",\n";

  // Embed the store's own JSON object under "timeseries".
  std::string ts = store.renderJson();
  while (!ts.empty() && ts.back() == '\n') ts.pop_back();
  os << "  \"timeseries\": " << ts << ",\n";

  os << "  \"alerts\": [";
  if (in.engine != nullptr) {
    bool first = true;
    for (const RuleStatus& rs : in.engine->rules()) {
      os << (first ? "\n" : ",\n") << "    {\"name\": \""
         << jsonEscape(rs.rule.name) << "\", \"series\": \""
         << jsonEscape(rs.rule.series) << "\", \"kind\": \""
         << ruleKindName(rs.rule.kind) << "\", \"severity\": \""
         << alertSeverityName(rs.rule.severity) << "\", \"state\": \""
         << alertStateName(rs.state) << "\", \"incidents\": " << rs.incidents
         << ", \"value\": " << fmt(rs.lastValue)
         << ", \"condition\": " << (rs.lastCondition ? "true" : "false")
         << "}";
      first = false;
    }
    if (!first) os << "\n  ";
  }
  os << "],\n";

  os << "  \"transitions\": [";
  if (in.engine != nullptr) {
    bool first = true;
    for (const AlertTransition& tr : in.engine->transitions()) {
      os << (first ? "\n" : ",\n") << "    {\"t_ns\": " << tr.atNs
         << ", \"rule\": \"" << jsonEscape(tr.rule) << "\", \"from\": \""
         << alertStateName(tr.from) << "\", \"to\": \"" << tr.to
         << "\", \"value\": " << fmt(tr.value) << ", \"severity\": \""
         << alertSeverityName(tr.severity) << "\"}";
      first = false;
    }
    if (!first) os << "\n  ";
  }
  os << "],\n";

  os << "  \"health\": {\"devices\": [";
  if (in.health != nullptr) {
    bool first = true;
    for (const std::string& dev : in.health->devices()) {
      const HealthCounters c = in.health->lastCounters(dev);
      os << (first ? "\n" : ",\n") << "    {\"name\": \"" << jsonEscape(dev)
         << "\", \"grade\": \"" << healthGradeName(in.health->grade(dev))
         << "\", \"score\": " << fmt(in.health->score(dev))
         << ", \"usable_columns\": " << c.usableColumns
         << ", \"total_columns\": " << c.totalColumns
         << ", \"quarantined_strips\": " << c.quarantinedStrips
         << ", \"scrub_repairs\": " << c.scrubRepairs
         << ", \"watchdog_preempts\": " << c.watchdogPreempts
         << ", \"parked_tasks\": " << c.parkedTasks << "}";
      first = false;
    }
    if (!first) os << "\n  ";
  }
  os << "], \"events\": [";
  if (in.health != nullptr) {
    bool first = true;
    for (const HealthEvent& ev : in.health->events()) {
      os << (first ? "\n" : ",\n") << "    {\"t_ns\": " << ev.atNs
         << ", \"device\": \"" << jsonEscape(ev.device) << "\", \"from\": \""
         << healthGradeName(ev.from) << "\", \"to\": \""
         << healthGradeName(ev.to) << "\", \"score\": " << fmt(ev.score)
         << "}";
      first = false;
    }
    if (!first) os << "\n  ";
  }
  os << "]}\n}\n";
  return os.str();
}

std::string renderMonitorHtml(const DashboardInput& in) {
  const TimeSeriesStore& store = *in.store;
  const auto& times = store.tickTimes();
  const std::uint64_t t0 = times.empty() ? 0 : times.front();
  const std::uint64_t t1 = times.empty() ? 1 : std::max(times.back(), t0 + 1);
  const double plotW = 640.0;
  const double plotH = 48.0;
  const auto xOf = [&](std::uint64_t t) {
    return static_cast<double>(t - t0) / static_cast<double>(t1 - t0) * plotW;
  };

  std::ostringstream os;
  os << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>"
     << in.title << "</title>\n<style>\n"
     << "body{font-family:monospace;background:#fafafa;color:#222;"
        "margin:24px}\n"
     << "h1{font-size:18px} h2{font-size:15px;margin:18px 0 6px}\n"
     << "table{border-collapse:collapse;font-size:12px}\n"
     << "td,th{border:1px solid #ccc;padding:2px 8px;text-align:left}\n"
     << ".series{margin:10px 0} .series .name{font-size:12px}\n"
     << "svg{background:#fff;border:1px solid #ccc}\n"
     << ".badge{display:inline-block;padding:2px 8px;border-radius:3px;"
        "color:#fff;font-size:12px;margin-right:6px}\n"
     << "</style></head>\n<body>\n<h1>" << in.title << "</h1>\n"
     << "<p>t_ns=" << in.atNs << " · ticks=" << store.totalTicks()
     << " (retained " << store.retainedTicks() << ", dropped "
     << store.droppedTicks() << ") · interval_ns="
     << store.sampleIntervalNs() << "</p>\n";

  if (in.health != nullptr && !in.health->devices().empty()) {
    os << "<h2>device health</h2>\n<p>\n";
    for (const std::string& dev : in.health->devices()) {
      const HealthGrade g = in.health->grade(dev);
      os << "<span class=\"badge\" style=\"background:" << gradeColor(g)
         << "\">" << dev << ": " << healthGradeName(g) << " ("
         << disp(in.health->score(dev)) << ")</span>\n";
    }
    os << "</p>\n";
  }

  if (in.engine != nullptr) {
    os << "<h2>alerts</h2>\n<table>\n<tr><th>rule</th><th>kind</th>"
       << "<th>severity</th><th>state</th><th>incidents</th><th>value</th>"
       << "</tr>\n";
    for (const RuleStatus& rs : in.engine->rules()) {
      os << "<tr><td>" << rs.rule.name << "</td><td>"
         << ruleKindName(rs.rule.kind) << "</td><td>"
         << alertSeverityName(rs.rule.severity) << "</td><td>"
         << alertStateName(rs.state) << "</td><td>" << rs.incidents
         << "</td><td>" << disp(rs.lastValue) << "</td></tr>\n";
    }
    os << "</table>\n";
  }

  os << "<h2>timeline</h2>\n";
  for (const std::string& name : store.seriesNames()) {
    const auto& vals = store.values(name);
    double lo = 0.0;
    double hi = 1.0;
    if (!vals.empty()) {
      lo = *std::min_element(vals.begin(), vals.end());
      hi = *std::max_element(vals.begin(), vals.end());
      if (hi <= lo) hi = lo + 1.0;
    }
    const auto yOf = [&](double v) {
      return plotH - (v - lo) / (hi - lo) * plotH;
    };
    os << "<div class=\"series\"><div class=\"name\">" << name
       << " — last " << disp(store.latest(name)) << " · min " << disp(lo)
       << " · max "
       << disp(vals.empty() ? 1.0 : *std::max_element(vals.begin(),
                                                      vals.end()))
       << "</div>\n<svg width=\"" << static_cast<int>(plotW)
       << "\" height=\"" << static_cast<int>(plotH) << "\">\n";
    os << "<polyline fill=\"none\" stroke=\"#2980b9\" stroke-width=\"1\" "
          "points=\"";
    for (std::size_t i = 0; i < times.size(); ++i) {
      os << (i == 0 ? "" : " ") << coord(xOf(times[i])) << ","
         << coord(yOf(vals[i]));
    }
    os << "\"/>\n";
    // Alert annotations: vertical markers for transitions on rules bound to
    // this series.
    if (in.engine != nullptr) {
      for (const AlertTransition& tr : in.engine->transitions()) {
        const RuleStatus* owner = nullptr;
        for (const RuleStatus& rs : in.engine->rules()) {
          if (rs.rule.name == tr.rule) {
            owner = &rs;
            break;
          }
        }
        if (owner == nullptr || owner->rule.series != name) continue;
        if (tr.atNs < t0 || tr.atNs > t1) continue;
        const std::string x = coord(xOf(tr.atNs));
        os << "<line x1=\"" << x << "\" y1=\"0\" x2=\"" << x << "\" y2=\""
           << static_cast<int>(plotH) << "\" stroke=\""
           << transitionColor(tr.to) << "\" stroke-width=\"1\"><title>"
           << tr.rule << " " << alertStateName(tr.from) << "-&gt;" << tr.to
           << " @" << tr.atNs << "</title></line>\n";
      }
    }
    os << "</svg></div>\n";
  }

  if (in.engine != nullptr && !in.engine->transitions().empty()) {
    os << "<h2>transitions</h2>\n<table>\n<tr><th>t_ns</th><th>rule</th>"
       << "<th>edge</th><th>value</th></tr>\n";
    for (const AlertTransition& tr : in.engine->transitions()) {
      os << "<tr><td>" << tr.atNs << "</td><td>" << tr.rule << "</td><td>"
         << alertStateName(tr.from) << " &rarr; " << tr.to << "</td><td>"
         << disp(tr.value) << "</td></tr>\n";
    }
    os << "</table>\n";
  }

  if (in.health != nullptr && !in.health->events().empty()) {
    os << "<h2>health events</h2>\n<table>\n<tr><th>t_ns</th><th>device</th>"
       << "<th>edge</th><th>score</th></tr>\n";
    for (const HealthEvent& ev : in.health->events()) {
      os << "<tr><td>" << ev.atNs << "</td><td>" << ev.device << "</td><td>"
         << healthGradeName(ev.from) << " &rarr; " << healthGradeName(ev.to)
         << "</td><td>" << disp(ev.score) << "</td></tr>\n";
    }
    os << "</table>\n";
  }

  os << "</body></html>\n";
  return os.str();
}

}  // namespace vfpga::obs::monitor
