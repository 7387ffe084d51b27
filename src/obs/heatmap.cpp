#include "obs/heatmap.hpp"

#include "obs/exporters.hpp"
#include "obs/json.hpp"

namespace vfpga::obs {

void HeatmapCollector::sample(std::uint64_t atNs, std::string event,
                              std::vector<CellState> cells) {
  cells.resize(columns_, CellState::kIdle);
  HeatmapSample s;
  s.atNs = atNs;
  s.event = std::move(event);
  s.cells = std::move(cells);
  samples_.push_back(std::move(s));
}

std::string HeatmapCollector::renderCsv() const {
  std::string out = "time_ns,event";
  for (std::uint16_t c = 0; c < columns_; ++c) {
    out += ",c" + std::to_string(c);
  }
  out += '\n';
  for (const HeatmapSample& s : samples_) {
    out += std::to_string(s.atNs);
    out += ',';
    out += csvField(s.event);
    for (CellState cell : s.cells) {
      out += ',';
      out += std::to_string(static_cast<unsigned>(cell));
    }
    out += '\n';
  }
  return out;
}

std::string HeatmapCollector::renderJson() const {
  std::string out;
  JsonWriter w(out);
  w.beginObject().key("columns").value(columns_).key("samples").beginArray();
  for (const HeatmapSample& s : samples_) {
    w.newline().beginObject().key("t_ns").value(s.atNs).key("event")
        .value(s.event).key("cells").beginArray();
    for (CellState cell : s.cells) w.value(static_cast<unsigned>(cell));
    w.endArray().endObject();
  }
  w.newline().endArray().endObject();
  out += '\n';
  return out;
}

std::string HeatmapCollector::renderHtml(std::string_view title) const {
  std::string out;
  out +=
      "<!doctype html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n<title>";
  out += htmlEscape(title);
  out += "</title>\n<style>\n"
         "body{font-family:monospace;background:#fff;color:#222;}\n"
         "table{border-collapse:collapse;}\n"
         "th,td{padding:1px 3px;border:1px solid #ddd;font-size:11px;}\n"
         "td.s0{background:#f4f4f4;}\n"   // idle
         "td.s1{background:#4caf50;}\n"   // busy
         "td.s2{background:#e53935;}\n"   // faulty
         ".legend span{padding:0 8px;margin-right:6px;border:1px solid "
         "#ddd;}\n"
         "</style>\n</head>\n<body>\n<h1>";
  out += htmlEscape(title);
  out += "</h1>\n<p class=\"legend\"><span class=\"s0\" "
         "style=\"background:#f4f4f4\">idle</span><span "
         "style=\"background:#4caf50\">busy</span><span "
         "style=\"background:#e53935\">faulty</span> &mdash; ";
  out += std::to_string(columns_);
  out += " columns, ";
  out += std::to_string(samples_.size());
  out += " samples</p>\n<table>\n<tr><th>t (ns)</th><th>event</th>";
  for (std::uint16_t c = 0; c < columns_; ++c) {
    out += "<th>" + std::to_string(c) + "</th>";
  }
  out += "</tr>\n";
  for (const HeatmapSample& s : samples_) {
    out += "<tr><td>" + std::to_string(s.atNs) + "</td><td>" +
           htmlEscape(s.event) + "</td>";
    for (CellState cell : s.cells) {
      const unsigned v = static_cast<unsigned>(cell);
      out += "<td class=\"s" + std::to_string(v) + "\">" +
             std::to_string(v) + "</td>";
    }
    out += "</tr>\n";
  }
  out += "</table>\n</body>\n</html>\n";
  return out;
}

}  // namespace vfpga::obs
