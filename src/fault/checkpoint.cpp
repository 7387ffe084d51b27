#include "fault/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "fabric/bitstream.hpp"
#include "fault/recovery.hpp"
#include "sim/bytes.hpp"

namespace vfpga::fault {

namespace {

constexpr std::uint8_t kMagic[4] = {'V', 'F', 'C', 'K'};

std::vector<std::uint8_t> encodePayload(const TaskCheckpoint& ck) {
  ByteWriter out;
  out.str(ck.task);
  out.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(ck.priority)));
  out.str(ck.device);
  out.u16(ck.placementX0);
  out.u16(ck.placementWidth);
  out.u32(static_cast<std::uint32_t>(ck.ops.size()));
  for (const CheckpointOp& op : ck.ops) {
    out.u8(op.isFpga ? 1 : 0);
    if (op.isFpga) {
      out.str(op.config);
      out.u16(op.configWidth);
      out.u64(op.cycles);
    } else {
      out.u64(static_cast<std::uint64_t>(op.cpuNs));
    }
  }
  // Register snapshot: bit count, packed bytes, then its own CRC so
  // targeted register rot is caught even inside an otherwise intact
  // payload (the same guard the loader applies to parked snapshots).
  out.u32(static_cast<std::uint32_t>(ck.registers.size()));
  out.bits(ck.registers, ck.registers.size());
  out.u16(stateCrc(ck.registers));
  auto putIds = [&out](const std::vector<std::uint32_t>& ids) {
    out.u32(static_cast<std::uint32_t>(ids.size()));
    for (const std::uint32_t id : ids) out.u32(id);
  };
  putIds(ck.overlayResidency);
  putIds(ck.segmentResidency);
  putIds(ck.pageResidency);
  out.u32(static_cast<std::uint32_t>(ck.ioBindings.size()));
  for (const std::string& b : ck.ioBindings) out.str(b);
  return out.take();
}

/// Task names become file stems; anything outside [A-Za-z0-9._-] maps to
/// '_' so a name can never escape the store directory.
std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) c = '_';
  }
  return out.empty() ? std::string("_") : out;
}

}  // namespace

std::vector<std::uint8_t> encodeCheckpoint(const TaskCheckpoint& ck,
                                           std::uint64_t generation) {
  const std::vector<std::uint8_t> payload = encodePayload(ck);
  ByteWriter out;
  out.raw(kMagic);
  out.u16(kCheckpointVersion);
  out.u64(generation);
  out.u32(static_cast<std::uint32_t>(payload.size()));
  out.raw(payload);
  out.u16(crc16Bytes(payload));
  return out.take();
}

DecodeResult decodeCheckpoint(const std::vector<std::uint8_t>& bytes) {
  DecodeResult r;
  if (bytes.size() < kCheckpointHeaderBytes + 2 ||
      !std::equal(kMagic, kMagic + 4, bytes.begin())) {
    r.diagnostic = "bad magic (not a checkpoint file)";
    return r;
  }
  r.magicOk = true;
  ByteReader hdr(bytes);
  hdr.raw(sizeof kMagic);
  r.version = hdr.u16();
  if (r.version != kCheckpointVersion) {
    r.diagnostic = "unsupported version " + std::to_string(r.version);
    return r;
  }
  r.versionSupported = true;
  r.generation = hdr.u64();
  const std::uint32_t payloadLen = hdr.u32();
  if (hdr.remaining() != std::size_t{payloadLen} + 2) {
    r.diagnostic = "length mismatch (header claims " +
                   std::to_string(payloadLen) + " payload bytes, file has " +
                   std::to_string(hdr.remaining() - 2) + ")";
    return r;
  }
  r.lengthOk = true;
  const std::span<const std::uint8_t> payload = hdr.raw(payloadLen);
  if (crc16Bytes(payload) != hdr.u16()) {
    r.diagnostic = "payload CRC mismatch";
    return r;
  }
  r.payloadCrcOk = true;

  ByteReader rd(payload);
  TaskCheckpoint ck;
  ck.task = rd.str();
  ck.priority = static_cast<int>(static_cast<std::int64_t>(rd.u64()));
  ck.device = rd.str();
  ck.placementX0 = rd.u16();
  ck.placementWidth = rd.u16();
  ck.ops.resize(rd.count(1 + 8));  // the smallest op: flag + CPU burst
  for (CheckpointOp& op : ck.ops) {
    op.isFpga = rd.u8() != 0;
    if (op.isFpga) {
      op.config = rd.str();
      op.configWidth = rd.u16();
      op.cycles = rd.u64();
    } else {
      op.cpuNs = static_cast<SimDuration>(rd.u64());
    }
  }
  rd.bits(ck.registers, rd.u32());
  const std::uint16_t storedStateCrc = rd.u16();
  auto getIds = [&rd](std::vector<std::uint32_t>& ids) {
    ids.resize(rd.count(4));
    for (std::uint32_t& id : ids) id = rd.u32();
  };
  getIds(ck.overlayResidency);
  getIds(ck.segmentResidency);
  getIds(ck.pageResidency);
  ck.ioBindings.resize(rd.count(4));  // each at least its u32 length
  for (std::string& b : ck.ioBindings) b = rd.str();
  if (!rd.ok()) {
    r.diagnostic = "payload truncated";
    return r;
  }
  if (stateCrc(ck.registers) != storedStateCrc) {
    r.diagnostic = "register snapshot CRC mismatch";
    return r;
  }
  r.stateCrcOk = true;
  r.checkpoint = std::move(ck);
  r.ok = true;
  return r;
}

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

std::string CheckpointStore::slotPath(const std::string& task,
                                      unsigned slot) const {
  return dir_ + "/" + sanitize(task) + ".g" + std::to_string(slot) + ".ck";
}

std::vector<std::string> CheckpointStore::slotPaths(
    const std::string& task) const {
  return {slotPath(task, 0), slotPath(task, 1)};
}

std::vector<std::string> CheckpointStore::taskNames() const {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_, ec)) {
    const std::string stem = entry.path().filename().string();
    // "<task>.g<slot>.ck"
    const std::size_t tail = stem.rfind(".g");
    if (tail == std::string::npos || stem.size() < tail + 5 ||
        stem.substr(stem.size() - 3) != ".ck") {
      continue;
    }
    names.push_back(stem.substr(0, tail));
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

namespace {

std::vector<std::uint8_t> readAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

}  // namespace

std::uint64_t CheckpointStore::latestOnDisk(const std::string& task) const {
  std::uint64_t latest = 0;
  for (unsigned slot = 0; slot < 2; ++slot) {
    const std::vector<std::uint8_t> bytes =
        readAll(slotPath(task, slot));
    if (bytes.size() < kCheckpointHeaderBytes ||
        !std::equal(kMagic, kMagic + 4, bytes.begin())) {
      continue;
    }
    ByteReader hdr(bytes);
    hdr.raw(sizeof kMagic);
    hdr.u16();  // version — numbering must advance past even bad slots
    latest = std::max(latest, hdr.u64());
  }
  return latest;
}

CheckpointStore::WriteResult CheckpointStore::write(const TaskCheckpoint& ck) {
  std::uint64_t& last = lastGen_[ck.task];
  if (last == 0) last = latestOnDisk(ck.task);
  const std::uint64_t gen = last + 1;
  last = gen;
  const std::vector<std::uint8_t> bytes = encodeCheckpoint(ck, gen);
  WriteResult wr;
  wr.generation = gen;
  wr.bytes = bytes.size();
  wr.path = slotPath(ck.task, static_cast<unsigned>(gen & 1));
  std::ofstream out(wr.path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    throw std::runtime_error("checkpoint write failed: " + wr.path);
  }
  ++stats_.writes;
  stats_.bytesWritten += wr.bytes;
  return wr;
}

CheckpointStore::LoadResult CheckpointStore::load(
    const std::string& task) const {
  ++stats_.loads;
  LoadResult lr;
  struct Slot {
    bool present = false;
    DecodeResult decoded;
    bool valid = false;
  };
  Slot slots[2];
  for (unsigned s = 0; s < 2; ++s) {
    const std::vector<std::uint8_t> bytes = readAll(slotPath(task, s));
    if (bytes.empty()) continue;
    slots[s].present = true;
    slots[s].decoded = decodeCheckpoint(bytes);
    DecodeResult& d = slots[s].decoded;
    if (d.ok && (d.generation & 1) != s) {
      // The slot parity encodes which generation a slot may legally hold;
      // a mismatch means the header generation was re-stamped after the
      // write (the stale-generation fault class).
      d.ok = false;
      d.diagnostic = "stale generation " + std::to_string(d.generation) +
                     " in slot " + std::to_string(s);
    }
    if (d.ok) {
      slots[s].valid = true;
    } else {
      ++lr.corruptSlots;
      ++stats_.corruptSlots;
      lr.slotDiagnostics.push_back("slot " + std::to_string(s) + ": " +
                                   d.diagnostic);
    }
  }
  int best = -1;
  for (int s = 0; s < 2; ++s) {
    if (slots[s].valid &&
        (best < 0 ||
         slots[s].decoded.generation > slots[best].decoded.generation)) {
      best = s;
    }
  }
  if (best < 0) {
    ++stats_.failedLoads;
    lr.diagnostic = "no intact checkpoint for '" + task + "'";
    for (const std::string& d : lr.slotDiagnostics) {
      lr.diagnostic += "; " + d;
    }
    if (lr.slotDiagnostics.empty()) lr.diagnostic += " (no slots on disk)";
    return lr;
  }
  lr.ok = true;
  lr.checkpoint = slots[best].decoded.checkpoint;
  lr.generation = slots[best].decoded.generation;
  // A rejected slot always means this load survived a corruption: by the
  // parity protocol the other slot held the generation adjacent to the one
  // returned, so recovery fell back past it to the previous good write.
  lr.fellBack = lr.corruptSlots > 0;
  if (lr.fellBack) ++stats_.fallbacks;
  return lr;
}

}  // namespace vfpga::fault
