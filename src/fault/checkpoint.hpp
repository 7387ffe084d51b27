// Durable task checkpoints: the disk form a virtual-FPGA task can be
// resurrected from after its kernel dies — not just after a device fault.
//
// A checkpoint freezes everything the OS needs to re-admit a task on the
// same device, a repaired one, or any congruent device in a cluster: task
// identity, the placement it held, the remaining op program (with FPGA
// configurations referenced by circuit *name + width*, because ConfigIds
// are per-kernel registration order and do not survive a restart), the
// register snapshot in mapped-netlist order, pending cycles of the op that
// was cut, and the residency the technique managers held (overlay /
// segment / page tables, IO-mux bindings).
//
// On-disk format (little-endian):
//   "VFCK" magic | u16 version | u64 generation | u32 payloadLen
//   | payload | u16 CRC-16 over the payload
// The register snapshot inside the payload carries its *own* CRC-16
// (fault::stateCrc, the same polynomial the loader uses for parked
// snapshots), so targeted register rot is detected even if the rest of the
// payload survives.
//
// Each task owns two generation slots (double buffering): generation g is
// written to slot g & 1, so a crash mid-write can only destroy the slot
// being written — the previous generation stays intact. A slot whose
// header generation does not match its slot parity was re-stamped after
// the fact (the "stale generation" fault class) and is rejected. load()
// picks the highest valid generation and reports when it had to fall back
// past a corrupt newer slot; when both slots are bad the result is a clean
// failure with a diagnostic, never silently wrong state.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace vfpga::fault {

inline constexpr std::uint16_t kCheckpointVersion = 1;
/// Bytes in front of the payload: magic, version, generation, payloadLen.
inline constexpr std::size_t kCheckpointHeaderBytes = 4 + 2 + 8 + 4;

/// One op of the remaining program. FPGA executions reference their
/// configuration by name + strip width so the restoring kernel can resolve
/// them against its own registry and verify congruence.
struct CheckpointOp {
  bool isFpga = false;
  std::string config;              ///< circuit name (FPGA ops)
  std::uint16_t configWidth = 0;   ///< strip columns the circuit needs
  std::uint64_t cycles = 0;        ///< cycles still owed (FPGA ops)
  SimDuration cpuNs = 0;           ///< remaining burst (CPU ops)
};

inline constexpr std::uint16_t kNoPlacement = 0xffff;

struct TaskCheckpoint {
  std::string task;
  int priority = 0;
  /// Geometry fingerprint ("<cols>x<rows>") of the device the snapshot was
  /// taken on; restore targets must be congruent.
  std::string device;
  std::uint16_t placementX0 = kNoPlacement;  ///< strip origin when running
  std::uint16_t placementWidth = 0;
  /// Remaining program; ops[0] is the cut op with its residual cycles /
  /// burst. Empty means the task had nothing left.
  std::vector<CheckpointOp> ops;
  /// Register snapshot in mapped-netlist order (empty = no live state; the
  /// restored execution starts its op from scratch).
  std::vector<bool> registers;
  /// Technique-manager residency at snapshot time (ids; pages packed as
  /// (config << 16) | page). Informational for the kernel path, load-bearing
  /// for standalone manager restarts.
  std::vector<std::uint32_t> overlayResidency;
  std::vector<std::uint32_t> segmentResidency;
  std::vector<std::uint32_t> pageResidency;
  /// IO-mux bindings as "port=pin" strings.
  std::vector<std::string> ioBindings;
};

/// Serializes a checkpoint (header + sealed payload) for `generation`.
std::vector<std::uint8_t> encodeCheckpoint(const TaskCheckpoint& ck,
                                           std::uint64_t generation);

/// Validation verdict of one encoded checkpoint. Every rejection reason is
/// carried separately so the analysis layer's CK rules can name the exact
/// guard that fired (the CLI copies these bools into a CheckpointProfile).
struct DecodeResult {
  bool ok = false;
  TaskCheckpoint checkpoint;
  std::uint64_t generation = 0;
  std::uint16_t version = 0;
  bool magicOk = false;
  bool versionSupported = false;
  bool lengthOk = false;    ///< header length matches the bytes present
  bool payloadCrcOk = false;
  bool stateCrcOk = false;  ///< inner register-snapshot CRC
  std::string diagnostic;   ///< first guard that failed ("" when ok)
};

DecodeResult decodeCheckpoint(const std::vector<std::uint8_t>& bytes);

/// Double-buffered on-disk store, one slot pair per task name.
class CheckpointStore {
 public:
  /// Creates `dir` (and parents) if needed.
  explicit CheckpointStore(std::string dir);

  const std::string& dir() const { return dir_; }

  struct WriteResult {
    std::uint64_t generation = 0;
    std::uint64_t bytes = 0;
    std::string path;
  };
  /// Writes the next generation for ck.task into its parity slot.
  WriteResult write(const TaskCheckpoint& ck);

  struct LoadResult {
    bool ok = false;
    TaskCheckpoint checkpoint;
    std::uint64_t generation = 0;
    /// The newest slot was corrupt/stale and an older generation was used.
    bool fellBack = false;
    /// Slots rejected during this load (corruption detections).
    std::uint64_t corruptSlots = 0;
    /// Why each rejected slot was rejected; `diagnostic` summarizes when
    /// ok == false (the park-with-diagnostic path).
    std::vector<std::string> slotDiagnostics;
    std::string diagnostic;
  };
  /// Validates both slots and returns the highest intact generation.
  LoadResult load(const std::string& task) const;

  /// Slot file paths [slot0, slot1] for a task (chaos campaigns tamper
  /// with these directly).
  std::vector<std::string> slotPaths(const std::string& task) const;

  /// Task names that have at least one slot on disk, sorted.
  std::vector<std::string> taskNames() const;

  struct Stats {
    std::uint64_t writes = 0;
    std::uint64_t bytesWritten = 0;
    std::uint64_t loads = 0;
    std::uint64_t corruptSlots = 0;  ///< slots rejected by validation
    std::uint64_t fallbacks = 0;     ///< loads served by an older generation
    std::uint64_t failedLoads = 0;   ///< loads with no intact slot at all
  };
  const Stats& stats() const { return stats_; }

 private:
  std::string dir_;
  std::string slotPath(const std::string& task, unsigned slot) const;
  /// Highest generation readable from either slot header (corrupt payloads
  /// included — numbering must advance past them).
  std::uint64_t latestOnDisk(const std::string& task) const;

  std::map<std::string, std::uint64_t> lastGen_;
  mutable Stats stats_;
};

}  // namespace vfpga::fault
