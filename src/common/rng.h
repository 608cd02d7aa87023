// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic component in this codebase draws from an explicitly seeded
// Rng instance so that experiments are reproducible run-to-run and the
// discrete-event simulator can be replayed.  We implement xoshiro256** with a
// SplitMix64 seeding stage (the reference construction recommended by the
// xoshiro authors) instead of std::mt19937 because it is faster, has a far
// smaller state, and its output is identical across standard libraries.
#pragma once

#include <array>
#include <cstdint>
#include <cmath>
#include <cassert>
#include <limits>
#include <vector>
#include <algorithm>
#include <numeric>

namespace ear {

// SplitMix64: used to expand a single 64-bit seed into xoshiro state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(uint64_t seed) : state_(seed) {}

  constexpr uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

// xoshiro256**: general-purpose 64-bit PRNG.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  // Raw xoshiro256** state, to checkpoint a generator mid-stream.  The
  // cached second normal() variate is not part of it: set_state drops it.
  std::array<uint64_t, 4> state() const { return {s_[0], s_[1], s_[2], s_[3]}; }
  void set_state(const std::array<uint64_t, 4>& s) {
    std::copy(s.begin(), s.end(), s_);
    have_spare_ = false;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  uint64_t operator()() { return next(); }

  uint64_t next() {
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). Uses Lemire's multiply-shift rejection
  // method for unbiased results.
  uint64_t uniform(uint64_t bound) {
    assert(bound > 0);
    uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<uint64_t>(m);
    if (lo < bound) {
      const uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  // Uniform integer in [lo, hi] inclusive.
  int64_t uniform_int(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return lo + static_cast<int64_t>(
                    uniform(static_cast<uint64_t>(hi - lo) + 1));
  }

  // Uniform double in [0, 1).
  double uniform_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double uniform_double(double lo, double hi) {
    return lo + (hi - lo) * uniform_double();
  }

  bool bernoulli(double p) { return uniform_double() < p; }

  // Exponential with the given mean (inter-arrival times of Poisson streams).
  double exponential(double mean) {
    assert(mean > 0);
    double u;
    do {
      u = uniform_double();
    } while (u <= 0.0);
    return -mean * std::log(u);
  }

  // Marsaglia polar method.
  double normal(double mean, double stddev) {
    if (have_spare_) {
      have_spare_ = false;
      return mean + stddev * spare_;
    }
    double u, v, s;
    do {
      u = uniform_double(-1.0, 1.0);
      v = uniform_double(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * factor;
    have_spare_ = true;
    return mean + stddev * u * factor;
  }

  double lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
  }

  // Pick a uniformly random element index from a non-empty container size.
  size_t index(size_t size) {
    assert(size > 0);
    return static_cast<size_t>(uniform(size));
  }

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[uniform(i)]);
    }
  }

  // Sample m distinct values from [0, range) without replacement.
  std::vector<size_t> sample_without_replacement(size_t range, size_t m) {
    assert(m <= range);
    // Selection sampling for small m, shuffle prefix otherwise.
    if (m * 4 >= range) {
      std::vector<size_t> all(range);
      std::iota(all.begin(), all.end(), size_t{0});
      for (size_t i = 0; i < m; ++i) {
        std::swap(all[i], all[i + uniform(range - i)]);
      }
      all.resize(m);
      return all;
    }
    std::vector<size_t> out;
    out.reserve(m);
    while (out.size() < m) {
      const size_t candidate = index(range);
      if (std::find(out.begin(), out.end(), candidate) == out.end()) {
        out.push_back(candidate);
      }
    }
    return out;
  }

  // Derive an independent child stream (for per-component generators).
  Rng fork() { return Rng(next()); }

 private:
  static constexpr uint64_t rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4]{};
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace ear
