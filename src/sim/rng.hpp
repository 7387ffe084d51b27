// Deterministic pseudo-random number generation.
//
// Every stochastic component in the project draws from an explicitly seeded
// Rng instance; there is no global RNG and no wall-clock seeding, so a run
// with the same parameters always produces the same results (a hard
// requirement for reproducible experiments and for debugging the placer).
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>

#include "sim/hash.hpp"

namespace vfpga {

/// xorshift128+ generator: fast, tiny state, good enough statistical quality
/// for simulated annealing and workload generation (not for cryptography).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initializes the state from a seed via splitmix64 so that nearby
  /// seeds produce uncorrelated streams.
  void reseed(std::uint64_t seed) {
    s0_ = hash::splitmix64(seed);
    s1_ = hash::splitmix64(seed + 0x9e3779b97f4a7c15ULL);
    if (s0_ == 0 && s1_ == 0) s1_ = 1;  // all-zero state is absorbing
  }

  /// Next raw 64-bit value.
  std::uint64_t next() {
    std::uint64_t x = s0_;
    const std::uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t below(std::uint64_t bound) {
    assert(bound > 0);
    // Modulo bias is negligible for bounds << 2^64 (all our uses).
    return next() % bound;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// True with probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean) {
    assert(mean > 0.0);
    double u = uniform();
    if (u <= 0.0) u = 1e-300;  // guard log(0)
    return -mean * std::log(u);
  }

  /// Zipf-distributed rank in [0, n) with exponent s (s = 0 is uniform).
  /// Implemented by inverse transform over the exact normalized CDF; n is
  /// small (tens of configurations) in all our uses, so O(n) is fine.
  std::size_t zipf(std::size_t n, double s) {
    assert(n > 0);
    double norm = 0.0;
    for (std::size_t i = 1; i <= n; ++i) norm += 1.0 / std::pow(double(i), s);
    double u = uniform() * norm;
    double acc = 0.0;
    for (std::size_t i = 1; i <= n; ++i) {
      acc += 1.0 / std::pow(double(i), s);
      if (u < acc) return i - 1;
    }
    return n - 1;
  }

  /// Derives an independent child stream (for per-task generators).
  Rng fork() { return Rng(next()); }

 private:
  std::uint64_t s0_;
  std::uint64_t s1_;
};

}  // namespace vfpga
