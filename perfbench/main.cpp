// perfbench_vfpga: one workload of the host-time benchmark per process.
//
//   perfbench_vfpga --workload <name> --seed <n> --seconds <s>
//                   --trace <0|1> --out <dir>
//
// Writes <dir>/results.json (obs metrics JSON) and, with --trace 1, the
// span files of the traced run. Exit codes: 0 ok, 1 a correctness or
// determinism gate failed, 2 usage or environment refused.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include <sched.h>

#include "bench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_vfpga: %s\nusage: perfbench_vfpga --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> --out <dir>\n",
               why);
  return 2;
}

/// CPUs this process may run on: its affinity mask, which is what bounds
/// the threaded replay (hardware_concurrency counts the whole machine).
unsigned affinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/// Refuses to measure a different program than the one meant: a sanitizer
/// or unoptimised build, or the invariant-checking mode.
const char* environmentProblem() {
#if !defined(__OPTIMIZE__)
  return "unoptimised build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "sanitizer build";
  }
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type is neither Release nor RelWithDebInfo";
  }
  if (const char* v = std::getenv("VFPGA_CHECK_INVARIANTS");
      v != nullptr && *v != '\0') {
    return "VFPGA_CHECK_INVARIANTS is set";
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  cfg.cpus = affinityCpus();
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        cfg.workload = val;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(val);
        haveSeed = true;
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(val);
      } else if (arg == "--trace") {
        cfg.trace = val == "1";
      } else if (arg == "--out") {
        cfg.outDir = val;
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (cfg.workload.empty() || cfg.outDir.empty() || !haveSeed) {
    return usage("--workload, --seed and --out are required");
  }
  if (const char* problem = environmentProblem()) {
    std::fprintf(stderr, "perfbench_vfpga: refusing to measure: %s\n", problem);
    return 2;
  }
  // Every sidecar the library may write lands in the run's own directory.
  const std::string sidecars = cfg.outDir + "/sidecars";
  std::filesystem::create_directories(sidecars);
  setenv("VFPGA_OBS_DIR", sidecars.c_str(), 1);
  setenv("VFPGA_BENCH_JSON_DIR", sidecars.c_str(), 1);
  setenv("VFPGA_FLIGHT_DIR", sidecars.c_str(), 1);

  Results out;
  try {
    if (cfg.workload == "compile_flow") {
      runCompileFlow(cfg, out);
    } else if (cfg.workload == "fabric_replay" ||
               cfg.workload == "fabric_threads") {
      runFabric(cfg, out);
    } else if (cfg.workload == "os_timeshare") {
      runOsTimeshare(cfg, out);
    } else if (cfg.workload == "cluster_faults") {
      runClusterFaults(cfg, out);
    } else {
      return usage(("unknown workload " + cfg.workload).c_str());
    }
    out.write(cfg.outDir, cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_vfpga: %s: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }
  return out.correct() ? 0 : 1;
}
