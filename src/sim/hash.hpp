// The project's one non-cryptographic hash family.
//
// FNV-1a (64-bit) keys the content-addressed caches (compile digests,
// configuration digests) and the determinism goldens (oracle traces,
// fabric-replay digests, benchmark checksums); splitmix64 derives seeded
// stimulus words and reseeds Rng. Every digest the CLI prints or a test
// pins is built from these definitions, so changing one is a golden
// change, never a refactor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace vfpga::hash {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// FNV-1a over bytes, continuing from `h` (start from kFnvOffset).
constexpr std::uint64_t fnv1a(std::uint64_t h,
                              std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) h = (h ^ b) * kFnvPrime;
  return h;
}

/// FNV-1a over the 8 bytes of `v`, little-endian by construction (so the
/// digest does not depend on host byte order).
constexpr std::uint64_t fnv1aU64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) h = (h ^ ((v >> (8 * i)) & 0xffu)) * kFnvPrime;
  return h;
}

/// splitmix64 finalizer of `x + golden ratio`: one well-mixed word per
/// input, so nearby seeds give uncorrelated outputs.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace vfpga::hash
