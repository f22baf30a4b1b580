// Deterministic random number generation and the skewed samplers the
// dataset generators need (uniform, Zipf, discrete power-law degree
// sampling). Determinism matters: the paper's methodology requires the
// "same random selection across systems", which we get by seeding every
// generator and workload picker from the dataset seed.

#ifndef GDBMICRO_UTIL_RNG_H_
#define GDBMICRO_UTIL_RNG_H_

#include <cassert>
#include <cmath>
#include <cstdint>

namespace gdbmicro {

/// splitmix64: fast, high-quality 64-bit PRNG used for seeding and as the
/// core generator. Deterministic across platforms.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) : state_(seed) {}

  /// Next 64 random bits.
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n) {
    assert(n > 0);
    // Rejection-free multiply-shift; bias is negligible for n << 2^64.
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformRange(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return lo + static_cast<int64_t>(
                    Uniform(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Bernoulli trial with success probability p.
  bool Chance(double p) { return NextDouble() < p; }

  /// Derives an independent child generator; used to give each dataset
  /// component its own stream so adding one component does not perturb
  /// the others.
  Rng Fork(uint64_t stream_id) {
    return Rng(Next() ^ (stream_id * 0xd1342543de82ef95ULL + 1));
  }

 private:
  uint64_t state_;
};

/// Zipf-distributed sampler over {0, ..., n-1} with exponent s, using the
/// rejection-inversion method of Hörmann & Derflinger. O(1) per sample
/// after O(1) setup; suitable for the power-law hub structure of the
/// Freebase/MiCo-like generators.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s) : n_(n), s_(s) {
    assert(n > 0);
    h_x1_ = H(1.5) - 1.0;
    h_n_ = H(static_cast<double>(n_) + 0.5);
    dist_range_ = h_n_ - h_x1_;
  }

  uint64_t Sample(Rng& rng) {
    if (n_ == 1) return 0;
    while (true) {
      double u = h_x1_ + rng.NextDouble() * dist_range_;
      double x = HInv(u);
      uint64_t k = static_cast<uint64_t>(x + 0.5);
      if (k < 1) k = 1;
      if (k > n_) k = n_;
      double diff = static_cast<double>(k) - x;
      if (diff > 0.5 || diff < -0.5) continue;  // numeric safety
      if (u >= H(static_cast<double>(k) + 0.5) - Pow(static_cast<double>(k))) {
        return k - 1;
      }
    }
  }

 private:
  double Pow(double x) const { return std::exp(-s_ * std::log(x)); }
  // H(x) = integral of x^-s
  double H(double x) const {
    if (s_ == 1.0) return std::log(x);
    return (std::exp((1.0 - s_) * std::log(x)) - 1.0) / (1.0 - s_);
  }
  double HInv(double u) const {
    if (s_ == 1.0) return std::exp(u);
    return std::exp(std::log(1.0 + u * (1.0 - s_)) / (1.0 - s_));
  }

  uint64_t n_;
  double s_;
  double h_x1_;
  double h_n_;
  double dist_range_;
};

}  // namespace gdbmicro

#endif  // GDBMICRO_UTIL_RNG_H_
