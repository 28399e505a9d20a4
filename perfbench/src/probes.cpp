#include "probes.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "bench.hpp"
#include "inputs.hpp"
#include "la/matrix.hpp"
#include "la/normalize.hpp"
#include "la/solve.hpp"

namespace perfbench {

namespace {

/// Size of the highest-level data/unified cache of cpu0, from sysfs.
double lastLevelCacheBytes() {
  double best = 0.0;
  int bestLevel = -1;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream levelIn(dir + "level");
    std::ifstream sizeIn(dir + "size");
    std::ifstream typeIn(dir + "type");
    int level = 0;
    std::string size;
    std::string type;
    if (!(levelIn >> level) || !(sizeIn >> size)) continue;
    typeIn >> type;
    if (type == "Instruction") continue;
    double bytes = std::stod(size);
    if (size.back() == 'K') bytes *= 1024.0;
    if (size.back() == 'M') bytes *= 1024.0 * 1024.0;
    if (level > bestLevel) {
      bestLevel = level;
      best = bytes;
    }
  }
  return best > 0.0 ? best : 32.0 * 1024 * 1024;
}

}  // namespace

BandwidthProbe memoryBandwidth(int threads) {
  BandwidthProbe p;
  p.llcBytes = lastLevelCacheBytes();
  p.arrayBytes = std::min(4.0 * p.llcBytes, 2.0 * 1024 * 1024 * 1024);
  const std::size_t n = static_cast<std::size_t>(p.arrayBytes / sizeof(double));
  std::unique_ptr<double[]> a(new double[n]);
  const std::size_t chunk = (n + threads - 1) / threads;
  auto parallel = [&](auto&& body) {
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
      const std::size_t lo = std::min(n, t * chunk);
      const std::size_t hi = std::min(n, lo + chunk);
      ts.emplace_back([&, lo, hi] { body(lo, hi); });
    }
    for (std::thread& t : ts) t.join();
  };
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) a[i] = double(i & 1023);
  });
  double sink = 0.0;
  for (int sweep = 0; sweep < 4; ++sweep) {
    std::vector<double> partial(threads, 0.0);
    const auto t0 = Clock::now();
    parallel([&](std::size_t lo, std::size_t hi) {
      double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
      std::size_t i = lo;
      for (; i + 4 <= hi; i += 4) {
        s0 += a[i];
        s1 += a[i + 1];
        s2 += a[i + 2];
        s3 += a[i + 3];
      }
      for (; i < hi; ++i) s0 += a[i];
      partial[lo / chunk] = s0 + s1 + s2 + s3;
    });
    const double sec = secondsSince(t0);
    for (const double s : partial) sink += s;
    p.gbPerSec = std::max(p.gbPerSec, double(n * sizeof(double)) / sec / 1e9);
  }
  check(sink > 0.0, "bandwidth probe read nothing");
  return p;
}

double laModeUpdateMicros(const std::vector<cstf::Index>& dims,
                          std::size_t rank) {
  using cstf::la::Matrix;
  Rng rng(0x1a);
  std::vector<Matrix> factors;
  std::vector<Matrix> grams;
  for (const cstf::Index d : dims) {
    Matrix f(d, rank);
    for (std::size_t i = 0; i < d * rank; ++i) f.data()[i] = rng.uniform();
    grams.push_back(cstf::la::gram(f));
    factors.push_back(std::move(f));
  }
  std::vector<double> micros;
  for (int rep = 0; rep < 5; ++rep) {
    for (std::size_t n = 0; n < dims.size(); ++n) {
      const Matrix m = factors[n];  // stands in for the MTTKRP result
      const auto t0 = Clock::now();
      Matrix v(rank, rank, 1.0);
      for (std::size_t d = 0; d < dims.size(); ++d) {
        if (d != n) v = cstf::la::hadamard(v, grams[d]);
      }
      Matrix updated = cstf::la::matmul(m, cstf::la::pinvSym(v));
      const std::vector<double> lambda = cstf::la::normalizeColumns(updated);
      grams[n] = cstf::la::gram(updated);
      micros.push_back(secondsSince(t0) * 1e6);
      check(lambda.size() == rank, "mode update lost columns");
    }
  }
  return median(micros);
}

}  // namespace perfbench
