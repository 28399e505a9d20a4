// The benchmark's own input generator.
//
// Every input the workloads feed the program -- tensors, the base/delta
// split, the serving model, the warm-start model and the request stream --
// is made here from the run's seed, with a private random number generator
// and Zipf sampler. Nothing comes from tensor/generator.cpp or from the
// trainer, so a change to either cannot silently change what the
// benchmark measures.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/model.hpp"
#include "tensor/coo_tensor.hpp"
#include "tensor/delta.hpp"

namespace perfbench {

/// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform() { return double(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_[4];
};

/// Draws ranks 0..n-1 with P(r) proportional to (r+1)^-skew, then maps a
/// rank to an index through a seeded permutation, so hot indices are
/// scattered over the mode as in real data. skew 0 is uniform.
class Zipf {
 public:
  Zipf(std::uint32_t n, double skew, Rng& permRng);
  std::uint32_t sample(Rng& rng) const;
  /// Index holding popularity rank `r` (0 = hottest).
  std::uint32_t indexOfRank(std::uint32_t r) const { return perm_[r]; }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> perm_;
};

/// `nnz` distinct coordinates, each mode drawn from its own Zipf law,
/// values uniform in (0, 1].
cstf::tensor::CooTensor skewedTensor(const std::vector<cstf::Index>& dims,
                                     std::size_t nnz,
                                     const std::vector<double>& skew,
                                     std::uint64_t seed);

/// Serving model: rank-`rank` nonnegative factors whose row norms follow a
/// power law in each row's popularity rank (as in a trained model, where
/// frequent rows carry large norms), plus the popularity laws requests use.
struct ServeInputs {
  cstf::serve::CpModel model;
  /// Distinct requests; request popularity is Zipf over this list.
  std::vector<cstf::serve::TopKRequest> universe;
};
ServeInputs serveInputs(const std::vector<cstf::Index>& dims,
                        std::size_t rank, std::size_t distinct,
                        std::size_t k, std::uint64_t seed);

/// A full tensor split into a base and `batches` disjoint append batches
/// (seq 1..batches), plus a warm-start model fitted to the base by a few
/// sweeps of the benchmark's own sequential ALS.
struct StreamInputs {
  cstf::tensor::CooTensor full;
  cstf::tensor::CooTensor base;
  std::vector<cstf::tensor::Delta> deltas;
  cstf::serve::CpModel warm;
};
StreamInputs streamInputs(const std::vector<cstf::Index>& dims,
                          std::size_t nnz, double skew, std::size_t batches,
                          double deltaFraction, std::size_t rank,
                          std::uint64_t seed);

}  // namespace perfbench
