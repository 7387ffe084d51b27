#include "obs/profile/ledger.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/json.hpp"

namespace vfpga::obs::profile {

std::vector<ResourceLedger::ClassRollup> ResourceLedger::byClass() const {
  std::map<int, ClassRollup> acc;
  for (const LedgerRow& r : rows_) {
    ClassRollup& c = acc[r.priority];
    c.priority = r.priority;
    ++c.tasks;
    if (r.completed) ++c.completed;
    c.fpgaCycles += r.fpgaCycles;
    c.configBits += r.configBits;
    c.downloads += r.downloads;
    c.configHits += r.configHits;
    c.cacheHits += r.cacheHits;
    c.cacheMisses += r.cacheMisses;
    c.relocations += r.relocations;
    c.preemptions += r.preemptions;
    c.migrations += r.migrations;
    c.checkpoints += r.checkpoints;
    c.restores += r.restores;
    c.checkpointedBytes += r.checkpointedBytes;
    c.waitNs += r.waitNs;
    c.execNs += r.execNs;
  }
  std::vector<ClassRollup> out;
  out.reserve(acc.size());
  for (const auto& [prio, c] : acc) out.push_back(c);
  return out;
}

void ResourceLedger::publish(MetricsRegistry& registry) const {
  for (const LedgerRow& r : rows_) {
    const Labels l = {{"task", r.task}};
    registry.counter("vfpga_profile_task_fpga_cycles_total", l,
                     "fabric cycles executed per task")
        .inc(r.fpgaCycles);
    registry.counter("vfpga_profile_task_config_bits_total", l,
                     "config-port bits written per task")
        .inc(r.configBits);
    registry.counter("vfpga_profile_task_wait_ns_total", l,
                     "FPGA wait time per task")
        .inc(r.waitNs);
    registry.counter("vfpga_profile_task_exec_ns_total", l,
                     "FPGA exec time per task")
        .inc(r.execNs);
  }
  for (const ClassRollup& c : byClass()) {
    const Labels l = {{"class", std::to_string(c.priority)}};
    auto cnt = [&](const char* name, const char* help, std::uint64_t v) {
      registry.counter(name, l, help).inc(v);
    };
    cnt("vfpga_profile_class_tasks_total", "tasks per priority class",
        c.tasks);
    cnt("vfpga_profile_class_fpga_cycles_total",
        "fabric cycles per priority class", c.fpgaCycles);
    cnt("vfpga_profile_class_config_bits_total",
        "config-port bits per priority class", c.configBits);
    cnt("vfpga_profile_class_downloads_total",
        "configuration downloads per priority class", c.downloads);
    cnt("vfpga_profile_class_config_hits_total",
        "resident-config grants per priority class", c.configHits);
    cnt("vfpga_profile_class_cache_hits_total",
        "bitstream-cache hits per priority class", c.cacheHits);
    cnt("vfpga_profile_class_relocations_total",
        "relocations per priority class", c.relocations);
    cnt("vfpga_profile_class_preemptions_total",
        "preemptions per priority class", c.preemptions);
    cnt("vfpga_profile_class_migrations_total",
        "migrations per priority class", c.migrations);
    // Checkpoint families appear only for runs that checkpointed (or
    // restored), keeping checkpoint-free exporter output byte-identical.
    if (c.checkpoints > 0 || c.restores > 0) {
      cnt("vfpga_profile_class_checkpoints_total",
          "durable checkpoints written per priority class", c.checkpoints);
      cnt("vfpga_profile_class_restores_total",
          "checkpoint restores per priority class", c.restores);
      cnt("vfpga_profile_class_checkpointed_bytes_total",
          "checkpoint bytes written per priority class",
          c.checkpointedBytes);
    }
    cnt("vfpga_profile_class_wait_ns_total",
        "FPGA wait time per priority class", c.waitNs);
    cnt("vfpga_profile_class_exec_ns_total",
        "FPGA exec time per priority class", c.execNs);
  }
}

std::string ResourceLedger::renderText() const {
  std::ostringstream os;
  os << "resource ledger\n";
  os << "===============\n";
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "%-10s %-8s %5s %4s %12s %12s %5s %5s %6s %8s %5s %5s "
                "%12s %12s\n",
                "task", "device", "class", "done", "cycles", "cfg_bits",
                "dls", "hits", "reloc", "preempt", "ckpt", "rstr",
                "wait_ns", "exec_ns");
  os << buf;
  for (const LedgerRow& r : rows_) {
    std::snprintf(buf, sizeof buf,
                  "%-10s %-8s %5d %4s %12llu %12llu %5llu %5llu %6llu "
                  "%8llu %5llu %5llu %12llu %12llu\n",
                  r.task.c_str(), r.device.empty() ? "-" : r.device.c_str(),
                  r.priority, r.completed ? "yes" : "no",
                  static_cast<unsigned long long>(r.fpgaCycles),
                  static_cast<unsigned long long>(r.configBits),
                  static_cast<unsigned long long>(r.downloads),
                  static_cast<unsigned long long>(r.configHits),
                  static_cast<unsigned long long>(r.relocations),
                  static_cast<unsigned long long>(r.preemptions),
                  static_cast<unsigned long long>(r.checkpoints),
                  static_cast<unsigned long long>(r.restores),
                  static_cast<unsigned long long>(r.waitNs),
                  static_cast<unsigned long long>(r.execNs));
    os << buf;
  }
  os << "\nper priority class\n";
  std::snprintf(buf, sizeof buf,
                "%5s %5s %4s %12s %12s %5s %5s %12s %12s\n", "class",
                "tasks", "done", "cycles", "cfg_bits", "dls", "hits",
                "wait_ns", "exec_ns");
  os << buf;
  for (const ClassRollup& c : byClass()) {
    std::snprintf(buf, sizeof buf,
                  "%5d %5llu %4llu %12llu %12llu %5llu %5llu %12llu "
                  "%12llu\n",
                  c.priority, static_cast<unsigned long long>(c.tasks),
                  static_cast<unsigned long long>(c.completed),
                  static_cast<unsigned long long>(c.fpgaCycles),
                  static_cast<unsigned long long>(c.configBits),
                  static_cast<unsigned long long>(c.downloads),
                  static_cast<unsigned long long>(c.configHits),
                  static_cast<unsigned long long>(c.waitNs),
                  static_cast<unsigned long long>(c.execNs));
    os << buf;
  }
  return os.str();
}

std::string ResourceLedger::renderJson() const {
  std::string out;
  JsonWriter w(out);
  // The resource counters a task row and a class rollup share.
  const auto counters = [&w](const auto& r) {
    w.key("fpga_cycles").value(r.fpgaCycles).key("config_bits")
        .value(r.configBits).key("downloads").value(r.downloads)
        .key("config_hits").value(r.configHits).key("cache_hits")
        .value(r.cacheHits).key("cache_misses").value(r.cacheMisses)
        .key("relocations").value(r.relocations).key("preemptions")
        .value(r.preemptions).key("migrations").value(r.migrations)
        .key("checkpoints").value(r.checkpoints).key("restores")
        .value(r.restores).key("checkpointed_bytes")
        .value(r.checkpointedBytes).key("wait_ns").value(r.waitNs)
        .key("exec_ns").value(r.execNs).endObject();
  };
  w.beginObject().newline().key("tasks").beginArray();
  for (const LedgerRow& r : rows_) {
    w.newline().beginObject().key("task").value(r.task).key("device")
        .value(r.device).key("class").value(r.priority).key("completed")
        .value(r.completed);
    counters(r);
  }
  w.newline().endArray().newline().key("classes").beginArray();
  for (const ClassRollup& c : byClass()) {
    w.newline().beginObject().key("class").value(c.priority).key("tasks")
        .value(c.tasks).key("completed").value(c.completed);
    counters(c);
  }
  w.newline().endArray().newline().endObject();
  out += '\n';
  return out;
}

}  // namespace vfpga::obs::profile
