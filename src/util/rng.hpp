// Deterministic pseudo-random number generation.
//
// All randomness in the simulator and the workload generators flows through
// `Rng` so that a run is fully reproducible from a single 64-bit seed.  The
// generator is xoshiro256** seeded via SplitMix64, which is fast, has a 256
// bit state, and passes BigCrush — more than adequate for workload synthesis
// (cryptographic randomness is *not* drawn from here; see crypto/drbg).
#pragma once

#include <cstdint>
#include <vector>

namespace cicero::util {

class Rng {
 public:
  /// Seeds the generator deterministically from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound) using rejection sampling (unbiased).
  /// bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Exponentially distributed double with the given rate (λ); the mean is
  /// 1/λ.  Used for Poisson arrival processes.
  double exponential(double rate);

  /// Standard normal via Box–Muller.
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Forks a child generator whose stream is independent of the parent's
  /// subsequent output; used to give each simulated node its own stream.
  Rng fork();

 private:
  std::uint64_t s_[4];
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace cicero::util
