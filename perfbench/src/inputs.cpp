#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace perfbench {

using cstf::Index;
using cstf::la::Matrix;
using cstf::tensor::CooTensor;
using cstf::tensor::Nonzero;

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

/// Mixed-radix key of a coordinate, for duplicate detection.
std::uint64_t coordKey(const Nonzero& nz, const std::vector<Index>& dims) {
  std::uint64_t key = 0;
  for (std::size_t m = 0; m < dims.size(); ++m) key = key * dims[m] + nz.idx[m];
  return key;
}

/// Dense R x R solve of X V = M for every row of M (V symmetric positive
/// semi-definite), through a Cholesky factor of V plus a tiny ridge.
Matrix solveRows(const Matrix& m, const Matrix& v) {
  const std::size_t r = v.rows();
  double trace = 0.0;
  for (std::size_t i = 0; i < r; ++i) trace += v(i, i);
  Matrix l(r, r);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = v(i, j) + (i == j ? 1e-10 * trace / double(r) : 0.0);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = i == j ? std::sqrt(std::max(s, 1e-300)) : s / l(j, j);
    }
  }
  Matrix x(m.rows(), r);
  std::vector<double> y(r);
  for (std::size_t row = 0; row < m.rows(); ++row) {
    for (std::size_t i = 0; i < r; ++i) {
      double s = m(row, i);
      for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
      y[i] = s / l(i, i);
    }
    for (std::size_t i = r; i-- > 0;) {
      double s = y[i];
      for (std::size_t k = i + 1; k < r; ++k) s -= l(k, i) * x(row, k);
      x(row, i) = s / l(i, i);
    }
  }
  return x;
}

Matrix gramOf(const Matrix& a) {
  Matrix g(a.cols(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t p = 0; p < a.cols(); ++p) {
      for (std::size_t q = 0; q < a.cols(); ++q) g(p, q) += a(i, p) * a(i, q);
    }
  }
  return g;
}

/// Normalize columns of every factor to unit norm, folding the norms into
/// lambda.
void normalizeInto(std::vector<Matrix>& factors, std::vector<double>& lambda) {
  const std::size_t rank = factors.front().cols();
  lambda.assign(rank, 1.0);
  for (Matrix& f : factors) {
    for (std::size_t r = 0; r < rank; ++r) {
      double n = 0.0;
      for (std::size_t i = 0; i < f.rows(); ++i) n += f(i, r) * f(i, r);
      n = std::sqrt(n);
      if (n == 0.0) continue;
      for (std::size_t i = 0; i < f.rows(); ++i) f(i, r) /= n;
      lambda[r] *= n;
    }
  }
}

/// A few sweeps of plain sequential CP-ALS (own MTTKRP and solve), enough
/// to give the stream's warm start a fit like a lightly trained model's.
cstf::serve::CpModel fitWarmStart(const CooTensor& t, std::size_t rank,
                                  int sweeps, Rng& rng) {
  const std::vector<Index>& dims = t.dims();
  const std::size_t order = dims.size();
  std::vector<Matrix> f;
  for (const Index d : dims) {
    Matrix m(d, rank);
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t r = 0; r < rank; ++r) m(i, r) = rng.uniform();
    }
    f.push_back(std::move(m));
  }
  std::vector<Matrix> grams;
  for (const Matrix& m : f) grams.push_back(gramOf(m));
  std::vector<double> row(rank);
  for (int s = 0; s < sweeps; ++s) {
    for (std::size_t n = 0; n < order; ++n) {
      Matrix mt(dims[n], rank);
      for (const Nonzero& nz : t.nonzeros()) {
        std::fill(row.begin(), row.end(), nz.val);
        for (std::size_t m = 0; m < order; ++m) {
          if (m == n) continue;
          const double* a = f[m].row(nz.idx[m]);
          for (std::size_t r = 0; r < rank; ++r) row[r] *= a[r];
        }
        double* out = mt.row(nz.idx[n]);
        for (std::size_t r = 0; r < rank; ++r) out[r] += row[r];
      }
      Matrix v(rank, rank, 1.0);
      for (std::size_t m = 0; m < order; ++m) {
        if (m == n) continue;
        for (std::size_t p = 0; p < rank; ++p) {
          for (std::size_t q = 0; q < rank; ++q) v(p, q) *= grams[m](p, q);
        }
      }
      f[n] = solveRows(mt, v);
      grams[n] = gramOf(f[n]);
    }
  }
  cstf::serve::CpModel model;
  model.rank = rank;
  model.dims = dims;
  normalizeInto(f, model.lambda);
  model.factors = std::move(f);
  return model;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (std::uint64_t& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Zipf::Zipf(std::uint32_t n, double skew, Rng& permRng) : cdf_(n), perm_(n) {
  double acc = 0.0;
  for (std::uint32_t r = 0; r < n; ++r) {
    acc += std::pow(double(r) + 1.0, -skew);
    cdf_[r] = acc;
  }
  for (double& c : cdf_) c /= acc;
  for (std::uint32_t i = 0; i < n; ++i) perm_[i] = i;
  for (std::uint32_t i = n; i > 1; --i) {
    std::swap(perm_[i - 1], perm_[permRng.below(i)]);
  }
}

std::uint32_t Zipf::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto r = static_cast<std::uint32_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(), cdf_.size() - 1));
  return perm_[r];
}

CooTensor skewedTensor(const std::vector<Index>& dims, std::size_t nnz,
                       const std::vector<double>& skew, std::uint64_t seed) {
  double cells = 1.0;
  for (const Index d : dims) cells *= double(d);
  if (cells >= 0x1.0p63 || double(nnz) > cells / 4) {
    throw std::invalid_argument("tensor shape too large or too dense");
  }
  Rng rng(seed);
  std::vector<Zipf> laws;
  for (std::size_t m = 0; m < dims.size(); ++m) {
    laws.emplace_back(dims[m], skew[m], rng);
  }
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(nnz * 2);
  std::vector<Nonzero> nzs;
  nzs.reserve(nnz);
  while (nzs.size() < nnz) {
    Nonzero nz;
    nz.order = static_cast<cstf::ModeId>(dims.size());
    for (std::size_t m = 0; m < dims.size(); ++m) {
      nz.idx[m] = laws[m].sample(rng);
    }
    nz.val = 1.0 - rng.uniform();
    if (seen.insert(coordKey(nz, dims)).second) nzs.push_back(nz);
  }
  return CooTensor(dims, std::move(nzs), "perfbench");
}

ServeInputs serveInputs(const std::vector<Index>& dims, std::size_t rank,
                        std::size_t distinct, std::size_t k,
                        std::uint64_t seed) {
  // Row-norm decay and the direction spread are set so that norm-bound
  // pruning skips ~98% of the candidate rows, as on a trained rank-16
  // delicious3d-s model.
  constexpr double kNormDecay = 0.22;
  constexpr double kPopularity = 0.8;
  Rng rng(seed);
  ServeInputs in;
  std::vector<Zipf> laws;
  std::vector<Matrix> f;
  for (std::size_t m = 0; m < dims.size(); ++m) {
    laws.emplace_back(dims[m], kPopularity, rng);
    Matrix a(dims[m], rank);
    for (std::uint32_t r = 0; r < dims[m]; ++r) {
      double* row = a.row(laws[m].indexOfRank(r));
      double n2 = 0.0;
      for (std::size_t c = 0; c < rank; ++c) {
        const double u = rng.uniform();
        row[c] = u * u * u;
        n2 += row[c] * row[c];
      }
      const double scale = std::pow(double(r) + 1.0, -kNormDecay) /
                           std::sqrt(std::max(n2, 1e-300));
      for (std::size_t c = 0; c < rank; ++c) row[c] *= scale;
    }
    f.push_back(std::move(a));
  }
  in.model.rank = rank;
  in.model.dims = dims;
  normalizeInto(f, in.model.lambda);
  in.model.factors = std::move(f);
  in.universe.resize(distinct);
  for (cstf::serve::TopKRequest& req : in.universe) {
    req.mode = 0;
    req.k = k;
    req.fixed.assign(dims.size(), 0);
    for (std::size_t m = 1; m < dims.size(); ++m) {
      req.fixed[m] = laws[m].sample(rng);
    }
  }
  return in;
}

StreamInputs streamInputs(const std::vector<Index>& dims, std::size_t nnz,
                          double skew, std::size_t batches,
                          double deltaFraction, std::size_t rank,
                          std::uint64_t seed) {
  StreamInputs in;
  in.full = skewedTensor(dims, nnz, std::vector<double>(dims.size(), skew),
                         seed);
  Rng rng(seed ^ 0x5157u);
  std::vector<Nonzero> base;
  in.deltas.resize(batches);
  for (std::size_t b = 0; b < batches; ++b) {
    in.deltas[b].seq = b + 1;
    in.deltas[b].dims = dims;
  }
  for (const Nonzero& nz : in.full.nonzeros()) {
    if (rng.uniform() < deltaFraction) {
      in.deltas[rng.below(batches)].entries.push_back(nz);
    } else {
      base.push_back(nz);
    }
  }
  in.base = CooTensor(dims, std::move(base), "perfbench-base");
  in.warm = fitWarmStart(in.base, rank, 3, rng);
  return in;
}

}  // namespace perfbench
