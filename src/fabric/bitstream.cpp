#include "fabric/bitstream.hpp"

#include <cassert>
#include <stdexcept>

#include "sim/bytes.hpp"

namespace vfpga {

std::uint16_t crc16Bits(std::span<const std::uint8_t> bits,
                        std::uint16_t crc) {
  for (const std::uint8_t b : bits) crc = crc16Step(crc, b != 0);
  return crc;
}

std::uint16_t crc16Bytes(std::span<const std::uint8_t> bytes) {
  std::uint16_t crc = kCrc16Init;
  for (const std::uint8_t b : bytes) {
    for (int i = 7; i >= 0; --i) crc = crc16Step(crc, ((b >> i) & 1) != 0);
  }
  return crc;
}

namespace {

std::uint16_t payloadCrc(const std::vector<Frame>& frames) {
  std::uint16_t crc = kCrc16Init;
  for (const Frame& f : frames) crc = crc16Bits(f.payload, crc);
  return crc;
}

Frame extractFrame(const ConfigImage& image, std::uint32_t frameBits,
                   std::uint32_t id) {
  Frame f;
  f.id = id;
  f.payload.resize(frameBits);
  const std::uint32_t base = id * frameBits;
  if (static_cast<std::size_t>(base) + frameBits > image.size()) {
    throw std::out_of_range("frame id beyond image");
  }
  for (std::uint32_t i = 0; i < frameBits; ++i) {
    f.payload[i] = image.get(base + i) ? 1 : 0;
  }
  return f;
}

}  // namespace

void Bitstream::sealCrc() { crc = payloadCrc(frames); }

bool Bitstream::crcOk() const { return crc == payloadCrc(frames); }

Bitstream makeFullBitstream(const ConfigImage& image,
                            std::uint32_t frameBits) {
  assert(image.size() % frameBits == 0);
  Bitstream bs;
  bs.frameBits = frameBits;
  bs.full = true;
  const std::uint32_t n = image.size() / frameBits;
  bs.frames.reserve(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    bs.frames.push_back(extractFrame(image, frameBits, id));
  }
  bs.sealCrc();
  return bs;
}

Bitstream makePartialBitstream(const ConfigImage& image,
                               std::uint32_t frameBits,
                               std::span<const std::uint32_t> frameIds) {
  Bitstream bs;
  bs.frameBits = frameBits;
  bs.full = false;
  bs.frames.reserve(frameIds.size());
  for (std::uint32_t id : frameIds) {
    bs.frames.push_back(extractFrame(image, frameBits, id));
  }
  bs.sealCrc();
  return bs;
}

std::vector<std::uint32_t> diffFrames(const ConfigImage& a,
                                      const ConfigImage& b,
                                      std::uint32_t frameBits) {
  if (a.size() != b.size()) throw std::invalid_argument("image size mismatch");
  std::vector<std::uint32_t> out;
  const std::uint32_t n = a.size() / frameBits;
  for (std::uint32_t id = 0; id < n; ++id) {
    const std::uint32_t base = id * frameBits;
    for (std::uint32_t i = 0; i < frameBits; ++i) {
      if (a.get(base + i) != b.get(base + i)) {
        out.push_back(id);
        break;
      }
    }
  }
  return out;
}

namespace {

constexpr std::uint8_t kMagic[4] = {'V', 'F', 'P', 'B'};
constexpr std::uint16_t kFormatVersion = 1;

}  // namespace

std::vector<std::uint8_t> serializeBitstream(const Bitstream& bs) {
  ByteWriter out;
  out.raw(kMagic);
  out.u16(kFormatVersion);
  out.u32(bs.frameBits);
  out.u8(bs.full ? 1 : 0);
  out.u32(static_cast<std::uint32_t>(bs.frames.size()));
  for (const Frame& f : bs.frames) {
    out.u32(f.id);
    out.bits(f.payload, bs.frameBits);
  }
  out.u16(bs.crc);
  return out.take();
}

Bitstream deserializeBitstream(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  // Checked before each field's own test, so the first guard that fails
  // names the damage.
  const auto requireBytes = [&in] {
    if (!in.ok()) throw std::runtime_error("truncated bitstream file");
  };
  for (std::uint8_t m : kMagic) {
    const std::uint8_t b = in.u8();
    requireBytes();
    if (b != m) throw std::runtime_error("bad bitstream magic");
  }
  const std::uint16_t version = in.u16();
  requireBytes();
  if (version != kFormatVersion) {
    throw std::runtime_error("unsupported bitstream format version");
  }
  Bitstream bs;
  bs.frameBits = in.u32();
  requireBytes();
  if (bs.frameBits == 0 || bs.frameBits > (1u << 20)) {
    throw std::runtime_error("implausible frame size");
  }
  bs.full = in.u8() != 0;
  const std::uint32_t frames = in.count(4 + packedBytes(bs.frameBits));
  requireBytes();
  bs.frames.resize(frames);
  for (Frame& frame : bs.frames) {
    frame.id = in.u32();
    in.bits(frame.payload, bs.frameBits);
  }
  bs.crc = in.u16();
  requireBytes();
  if (!in.atEnd()) throw std::runtime_error("trailing bytes in bitstream");
  if (!bs.crcOk()) throw std::runtime_error("bitstream CRC mismatch");
  return bs;
}

std::uint16_t frameCrc(const ConfigImage& image, std::uint32_t frameBits,
                       std::uint32_t frameId) {
  const std::uint32_t base = frameId * frameBits;
  if (static_cast<std::size_t>(base) + frameBits > image.size()) {
    throw std::out_of_range("frame id beyond image");
  }
  return crc16Bits(image.raw().subspan(base, frameBits));
}

void applyBitstream(ConfigImage& image, const Bitstream& bs) {
  for (const Frame& f : bs.frames) {
    const std::uint32_t base = f.id * bs.frameBits;
    if (static_cast<std::size_t>(base) + bs.frameBits > image.size()) {
      throw std::out_of_range("bitstream frame beyond image");
    }
    for (std::uint32_t i = 0; i < bs.frameBits; ++i) {
      image.set(base + i, f.payload[i] != 0);
    }
  }
}

}  // namespace vfpga
