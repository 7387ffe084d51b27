// Configuration images and bitstreams.
//
// A ConfigImage is the device's configuration RAM contents (one entry per
// bit). A Bitstream is the *transfer* representation: an ordered list of
// frames, each carrying frameBits payload bits, protected by a CRC-16 —
// either the full device (serial full configuration, the only mode of e.g.
// the XC4000 discussed in §2) or an arbitrary frame subset (partial
// reconfiguration).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace vfpga {

// ---- CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, MSB first) -----------
// The one CRC of the project: configuration downloads, readback scrubbing,
// saved FF state and durable checkpoints all build on crc16Step.

inline constexpr std::uint16_t kCrc16Init = 0xFFFF;

/// Shifts one input bit into the CRC register.
constexpr std::uint16_t crc16Step(std::uint16_t crc, bool bit) {
  const bool feedback = ((crc >> 15) & 1) != (bit ? 1 : 0);
  crc = static_cast<std::uint16_t>(crc << 1);
  return feedback ? static_cast<std::uint16_t>(crc ^ 0x1021) : crc;
}

/// CRC over a bit sequence stored one bit per byte (frame payloads, image
/// bits): each entry counts as nonzero-vs-zero. Pass a previous result as
/// `crc` to continue over a following sequence.
std::uint16_t crc16Bits(std::span<const std::uint8_t> bits,
                        std::uint16_t crc = kCrc16Init);

/// CRC over dense bytes, all 8 bits of each byte, MSB first. crc16Bits()
/// reduces every byte to nonzero-vs-zero, so over a dense byte payload it
/// would pass any flip that leaves the byte nonzero; checkpoint files need
/// every bit feeding the register.
std::uint16_t crc16Bytes(std::span<const std::uint8_t> bytes);

class ConfigImage {
 public:
  ConfigImage() = default;
  explicit ConfigImage(std::uint32_t totalBits) : bits_(totalBits, 0) {}

  std::uint32_t size() const { return static_cast<std::uint32_t>(bits_.size()); }
  bool get(std::uint32_t bit) const { return bits_.at(bit) != 0; }
  void set(std::uint32_t bit, bool v) { bits_.at(bit) = v ? 1 : 0; }
  void clear() { bits_.assign(bits_.size(), 0); }

  std::span<const std::uint8_t> raw() const { return bits_; }

  bool operator==(const ConfigImage&) const = default;

 private:
  std::vector<std::uint8_t> bits_;  // one byte per bit, value 0/1
};

struct Frame {
  std::uint32_t id = 0;
  std::vector<std::uint8_t> payload;  // frameBits entries, value 0/1
};

struct Bitstream {
  std::uint32_t frameBits = 0;
  bool full = false;  ///< covers every frame of the device
  std::vector<Frame> frames;
  std::uint16_t crc = 0;

  std::size_t frameCount() const { return frames.size(); }
  std::size_t bitCount() const { return frames.size() * frameBits; }

  /// Recomputes the CRC over all payloads (in frame order, as one bit
  /// sequence).
  void sealCrc();
  /// True when the stored CRC matches the payloads.
  bool crcOk() const;
};

/// Serializes an entire image as a full bitstream.
Bitstream makeFullBitstream(const ConfigImage& image, std::uint32_t frameBits);

/// Serializes only the listed frames (sorted, deduplicated by the caller).
Bitstream makePartialBitstream(const ConfigImage& image,
                               std::uint32_t frameBits,
                               std::span<const std::uint32_t> frameIds);

/// Frame ids whose contents differ between two equally sized images.
std::vector<std::uint32_t> diffFrames(const ConfigImage& a,
                                      const ConfigImage& b,
                                      std::uint32_t frameBits);

/// Applies a bitstream to an image (frame ids must be in range).
void applyBitstream(ConfigImage& image, const Bitstream& bs);

/// CRC-16 of one frame's worth of image bits (used by readback scrubbing
/// to compare live configuration against a golden image frame by frame).
std::uint16_t frameCrc(const ConfigImage& image, std::uint32_t frameBits,
                       std::uint32_t frameId);

// ---- byte-level serialization (the on-disk / on-wire format) --------------
// Layout (all multi-byte fields little-endian):
//   "VFPB"  magic            (4 bytes)
//   u16     format version   (currently 1)
//   u32     frameBits
//   u8      full flag
//   u32     frame count
//   per frame: u32 frame id, ceil(frameBits/8) packed payload bytes
//   u16     CRC-16 over the payload bits (same CRC as Bitstream::crc)

/// Packs a bitstream into bytes.
std::vector<std::uint8_t> serializeBitstream(const Bitstream& bs);

/// Parses bytes back into a bitstream. Throws std::runtime_error on bad
/// magic, unsupported version, truncation, or CRC mismatch.
Bitstream deserializeBitstream(std::span<const std::uint8_t> bytes);

}  // namespace vfpga
