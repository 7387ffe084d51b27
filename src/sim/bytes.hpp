// The one little-endian byte codec, shared by VFPB bitstream files and VFCK
// checkpoints. ByteReader never throws or reads past its span: the first
// overrun poisons it and later reads return zero/empty, so a decoder checks
// ok() once. Counted reads (count(), bits()) check the claimed size against
// the bytes left before the caller allocates anything.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace vfpga {

/// Bytes needed to pack `bits` bits.
constexpr std::size_t packedBytes(std::size_t bits) {
  return bits / 8 + (bits % 8 != 0 ? 1 : 0);
}

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void raw(std::span<const std::uint8_t> bytes) {
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }
  /// u32 length, then the bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  /// Packs `count` bits LSB first into packedBytes(count) bytes; an entry
  /// of `values` counts as set when nonzero, entries past its end as clear.
  template <typename Bits>
  void bits(const Bits& values, std::size_t count) {
    const std::size_t have = std::min<std::size_t>(values.size(), count);
    for (std::size_t byte = 0; byte < packedBytes(count); ++byte) {
      std::uint8_t packed = 0;
      for (std::size_t b = 0; b < 8 && byte * 8 + b < have; ++b) {
        if (values[byte * 8 + b]) packed |= static_cast<std::uint8_t>(1u << b);
      }
      out_.push_back(packed);
    }
  }

  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  void le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<std::uint8_t> out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  /// Every byte consumed without an overrun.
  bool atEnd() const { return ok_ && pos_ == bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - pos_; }

  std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  std::span<const std::uint8_t> raw(std::size_t n) {
    if (!need(n)) return {};
    pos_ += n;
    return bytes_.subspan(pos_ - n, n);
  }
  std::string str() {
    const auto s = raw(u32());
    return {s.begin(), s.end()};
  }
  /// A u32 count of elements at least `minElementBytes` (> 0) long each; a
  /// count the bytes left cannot hold poisons the reader and reads as 0.
  std::uint32_t count(std::size_t minElementBytes) {
    const std::uint32_t n = u32();
    if (n > remaining() / minElementBytes) ok_ = false;
    return ok_ ? n : 0;
  }
  /// Unpacks `count` LSB-first bits into `out` as 0/1 entries (left empty
  /// on overrun).
  template <typename Bits>
  void bits(Bits& out, std::size_t count) {
    out.clear();
    const auto packed = raw(packedBytes(count));
    if (!ok_) return;
    out.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = static_cast<typename Bits::value_type>(
          (packed[i / 8] >> (i % 8)) & 1);
    }
  }

 private:
  bool need(std::size_t n) {
    if (remaining() < n) ok_ = false;
    return ok_;
  }
  std::uint64_t le(int n) {
    if (!need(static_cast<std::size_t>(n))) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) v |= std::uint64_t{bytes_[pos_++]} << (8 * i);
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace vfpga
