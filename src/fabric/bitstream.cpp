#include "fabric/bitstream.hpp"

#include <cassert>
#include <stdexcept>

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

void putU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void putU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return bytes_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        bytes_[pos_] | (bytes_[pos_ + 1] << 8));
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::span<const std::uint8_t> raw(std::size_t n) {
    need(n);
    auto s = bytes_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  bool atEnd() const { return pos_ == bytes_.size(); }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > bytes_.size()) {
      throw std::runtime_error("truncated bitstream file");
    }
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

constexpr std::uint8_t kMagic[4] = {'V', 'F', 'P', 'B'};
constexpr std::uint16_t kFormatVersion = 1;

}  // namespace

std::vector<std::uint8_t> serializeBitstream(const Bitstream& bs) {
  std::vector<std::uint8_t> out;
  out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
  putU16(out, kFormatVersion);
  putU32(out, bs.frameBits);
  out.push_back(bs.full ? 1 : 0);
  putU32(out, static_cast<std::uint32_t>(bs.frames.size()));
  const std::size_t payloadBytes = (bs.frameBits + 7) / 8;
  for (const Frame& f : bs.frames) {
    putU32(out, f.id);
    for (std::size_t byte = 0; byte < payloadBytes; ++byte) {
      std::uint8_t packed = 0;
      for (std::size_t bit = 0; bit < 8; ++bit) {
        const std::size_t idx = byte * 8 + bit;
        if (idx < f.payload.size() && f.payload[idx]) {
          packed |= static_cast<std::uint8_t>(1u << bit);
        }
      }
      out.push_back(packed);
    }
  }
  putU16(out, bs.crc);
  return out;
}

Bitstream deserializeBitstream(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  for (std::uint8_t m : kMagic) {
    if (in.u8() != m) throw std::runtime_error("bad bitstream magic");
  }
  if (in.u16() != kFormatVersion) {
    throw std::runtime_error("unsupported bitstream format version");
  }
  Bitstream bs;
  bs.frameBits = in.u32();
  if (bs.frameBits == 0 || bs.frameBits > (1u << 20)) {
    throw std::runtime_error("implausible frame size");
  }
  bs.full = in.u8() != 0;
  const std::uint32_t frames = in.u32();
  const std::size_t payloadBytes = (bs.frameBits + 7) / 8;
  bs.frames.reserve(frames);
  for (std::uint32_t f = 0; f < frames; ++f) {
    Frame frame;
    frame.id = in.u32();
    frame.payload.resize(bs.frameBits);
    const auto raw = in.raw(payloadBytes);
    for (std::uint32_t bit = 0; bit < bs.frameBits; ++bit) {
      frame.payload[bit] = (raw[bit / 8] >> (bit % 8)) & 1;
    }
    bs.frames.push_back(std::move(frame));
  }
  bs.crc = in.u16();
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
