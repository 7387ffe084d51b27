#include "obs/profile/flamegraph.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>

#include "obs/json.hpp"

namespace vfpga::obs::profile {

namespace {

struct Ev {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::string name;
};

/// Spans of one track in containment order: outer spans before the inner
/// spans they enclose, ties broken by name for determinism.
std::vector<Ev> trackSpans(const SpanTracer& tracer, std::uint32_t track) {
  std::vector<Ev> out;
  for (const SpanRecord& s : tracer.spans()) {
    if (s.track != track) continue;
    out.push_back({s.startNs, s.startNs + s.durationNs, s.name});
  }
  std::sort(out.begin(), out.end(), [](const Ev& a, const Ev& b) {
    if (a.start != b.start) return a.start < b.start;
    if (a.end != b.end) return a.end > b.end;  // outermost first
    return a.name < b.name;
  });
  return out;
}

std::string trackLabel(const FlamegraphInput& in, std::uint32_t track) {
  if (track == 0) return "kernel";
  if (track <= in.trackNames.size()) return in.trackNames[track - 1];
  return "track" + std::to_string(track);
}

std::uint32_t maxTrack(const SpanTracer& tracer) {
  std::uint32_t m = 0;
  for (const SpanRecord& s : tracer.spans()) m = std::max(m, s.track);
  return m;
}

}  // namespace

std::string renderCollapsedStacks(const FlamegraphInput& input) {
  std::map<std::string, std::uint64_t> weights;  // stack -> self ns
  for (std::uint32_t track = 0; track <= maxTrack(*input.tracer); ++track) {
    const std::vector<Ev> evs = trackSpans(*input.tracer, track);
    if (evs.empty()) continue;
    const std::string base =
        input.processName + ";" + trackLabel(input, track);
    struct Open {
      std::uint64_t end = 0;
      std::uint64_t childNs = 0;
      std::string path;
    };
    // Walk spans in containment order; an entry's self time is its
    // duration minus the durations of its direct children.
    std::vector<std::pair<Open, std::uint64_t>> live;  // open + start
    auto pop = [&] {
      const auto& [o, start] = live.back();
      const std::uint64_t dur = o.end - start;
      weights[o.path] += dur > o.childNs ? dur - o.childNs : 0;
      if (live.size() > 1) live[live.size() - 2].first.childNs += dur;
      live.pop_back();
    };
    for (const Ev& e : evs) {
      while (!live.empty() && live.back().first.end <= e.start) pop();
      const std::string path =
          (live.empty() ? base : live.back().first.path) + ";" + e.name;
      live.push_back({{e.end, 0, path}, e.start});
    }
    while (!live.empty()) pop();
  }
  std::ostringstream os;
  for (const auto& [path, w] : weights) {
    if (w == 0) continue;
    os << path << " " << w << "\n";
  }
  return os.str();
}

std::string renderSpeedscope(const FlamegraphInput& input,
                             const std::string& profileName) {
  std::vector<std::string> frames;
  std::map<std::string, std::size_t> frameIndex;
  auto frame = [&](const std::string& name) {
    const auto it = frameIndex.find(name);
    if (it != frameIndex.end()) return it->second;
    frameIndex.emplace(name, frames.size());
    frames.push_back(name);
    return frames.size() - 1;
  };

  struct Profile {
    std::string name;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::string events;  ///< JSON array of open/close events
  };
  std::vector<Profile> profiles;
  for (std::uint32_t track = 0; track <= maxTrack(*input.tracer); ++track) {
    const std::vector<Ev> evs = trackSpans(*input.tracer, track);
    if (evs.empty()) continue;
    Profile p;
    p.name = input.processName + "/" + trackLabel(input, track);
    p.start = evs.front().start;
    p.end = evs.front().end;
    for (const Ev& e : evs) p.end = std::max(p.end, e.end);
    JsonWriter ev(p.events);
    ev.beginArray();
    struct Open {
      std::uint64_t end = 0;
      std::size_t frame = 0;
    };
    std::vector<Open> stack;
    auto emit = [&](const char* type, std::size_t f, std::uint64_t at) {
      ev.beginObject().key("type").value(type).key("frame").value(f)
          .key("at").value(at).endObject();
    };
    for (const Ev& e : evs) {
      while (!stack.empty() && stack.back().end <= e.start) {
        emit("C", stack.back().frame, stack.back().end);
        stack.pop_back();
      }
      const std::size_t f = frame(e.name);
      emit("O", f, e.start);
      stack.push_back({e.end, f});
    }
    while (!stack.empty()) {
      emit("C", stack.back().frame, stack.back().end);
      stack.pop_back();
    }
    ev.endArray();
    profiles.push_back(std::move(p));
  }

  std::string out;
  JsonWriter w(out);
  w.beginObject().key("$schema")
      .value("https://www.speedscope.app/file-format-schema.json")
      .key("exporter").value("vfpga").key("name").value(profileName)
      .key("activeProfileIndex").value(0).key("shared").beginObject()
      .key("frames").beginArray();
  for (const std::string& f : frames) {
    w.beginObject().key("name").value(f).endObject();
  }
  w.endArray().endObject().key("profiles").beginArray();
  for (const Profile& p : profiles) {
    w.newline().beginObject().key("type").value("evented").key("name")
        .value(p.name).key("unit").value("nanoseconds").key("startValue")
        .value(p.start).key("endValue").value(p.end).key("events")
        .token(p.events).endObject();
  }
  w.newline().endArray().endObject();
  out += '\n';
  return out;
}

}  // namespace vfpga::obs::profile
