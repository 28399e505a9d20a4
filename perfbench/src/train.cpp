// train-qcoo / train-csf: exact CP-ALS through cstf_core::cpAls.
//
// Untraced: one cold cpAls gives setup_s (process start to the end of its
// iteration 1) and program.setup_s (its own share), one MTTKRP per mode is checked against tensor::referenceMttkrp, then
// whole cpAls rounds of TrainShape::itersPerRound iterations run until the
// run time is spent; every iteration after a round's first is one timed
// sample, and every iteration of a round is one counted operation.
//
// Traced: half the time runs the same untraced rounds, half runs the
// benchmark's own replica of the ALS loop built from the program's public
// calls (QcooEngine::mttkrpNext or mttkrpLocal, then the la mode update),
// with a span around each call, and reads sparkle's stage and task records
// for the traced iterations. A 1-thread cpAls pass gives cstf.speedup_2t.
#include <cmath>
#include <optional>

#include "bench.hpp"
#include "cstf/cp_als.hpp"
#include "cstf/factors.hpp"
#include "cstf/mttkrp_local.hpp"
#include "cstf/mttkrp_qcoo.hpp"
#include "inputs.hpp"
#include "la/normalize.hpp"
#include "la/solve.hpp"
#include "tensor/reference_ops.hpp"

namespace perfbench {

namespace {

using cstf::Index;
using cstf::ModeId;
using cstf::la::Matrix;
namespace core = cstf::cstf_core;
namespace sparkle = cstf::sparkle;

constexpr int kThreads = 2;
constexpr int kNodes = 8;

struct TrainShape {
  std::vector<Index> dims;
  std::size_t nnz;
  std::vector<double> skew;
  std::size_t rank;
  core::Backend backend;
  sparkle::LocalKernel kernel;
  int itersPerRound;
};

/// delicious3d-s-shaped (QCOO, rank 8) or flickr-s-shaped (COO + csf
/// kernel, rank 16) -- see README.md for why these two.
TrainShape shapeFor(bool csf) {
  if (csf) {
    return {{3200, 28000, 16000, 731}, 112000, {0.55, 0.6, 0.65, 0.3}, 16,
            core::Backend::kCoo, sparkle::LocalKernel::kCsf, 5};
  }
  return {{17300, 8000, 6000}, 140000, {0.55, 0.6, 0.65}, 8,
          core::Backend::kQcoo, sparkle::LocalKernel::kCoo, 4};
}

sparkle::ClusterConfig clusterConfig(const TrainShape& s) {
  sparkle::ClusterConfig cfg;
  cfg.numNodes = kNodes;
  cfg.localKernel = s.kernel;
  // An inherited CSTF_CHAOS must not inject node loss into a measured run.
  cfg.faults.allowEnvChaos = false;
  return cfg;
}

core::CpAlsOptions alsOptions(const TrainShape& s, std::uint64_t seed,
                              int iters) {
  core::CpAlsOptions o;
  o.rank = s.rank;
  o.maxIterations = iters;
  o.tolerance = -1.0;  // never stop early: every round does `iters`
  o.backend = s.backend;
  o.seed = seed;
  o.mttkrp.localKernel = s.kernel;
  return o;
}

double relFrobenius(const Matrix& got, const Matrix& want) {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < want.rows() * want.cols(); ++i) {
    const double d = got.data()[i] - want.data()[i];
    num += d * d;
    den += want.data()[i] * want.data()[i];
  }
  return std::sqrt(num / std::max(den, 1e-300));
}

/// Exact-ALS properties of one finished cpAls call.
void checkRound(const cstf::tensor::CooTensor& x,
                const core::CpAlsResult& r, int iters) {
  check(int(r.iterations.size()) == iters, "cpAls stopped early");
  double prev = -1.0;
  for (const core::CpAlsIterationStats& it : r.iterations) {
    check(it.fit >= 0.0 && it.fit <= 1.0,
          "fit outside [0, 1] at iteration " + std::to_string(it.iteration));
    check(it.fit >= prev - 1e-10,
          "exact-ALS fit decreased at iteration " +
              std::to_string(it.iteration));
    prev = it.fit;
  }
  const double recomputed = cstf::tensor::cpFit(x, r.factors, r.lambda);
  check(std::abs(recomputed - r.finalFit) <= 1e-9,
        "reported final fit differs from tensor::cpFit of the factors");
}

/// One MTTKRP per mode from the workload's backend against the sequential
/// reference, on factors the benchmark draws itself.
void checkMttkrp(sparkle::Context& ctx, const cstf::tensor::CooTensor& x,
                 const TrainShape& s, std::uint64_t seed) {
  Rng rng(seed ^ 0xc4ec);
  std::vector<Matrix> f;
  for (const Index d : x.dims()) {
    Matrix m(d, s.rank);
    for (std::size_t i = 0; i < d * s.rank; ++i) m.data()[i] = rng.uniform();
    f.push_back(std::move(m));
  }
  auto xr = core::tensorToRdd(ctx, x);
  xr.cache();
  core::MttkrpOptions mo;
  mo.localKernel = s.kernel;
  std::optional<core::QcooEngine> q;
  if (s.kernel == sparkle::LocalKernel::kCoo) {
    q.emplace(ctx, xr, x.dims(), f, mo);
  }
  for (ModeId n = 0; n < x.order(); ++n) {
    const Matrix got = q ? q->mttkrpNext(f)
                         : core::mttkrpLocal(ctx, xr, x.dims(), f, n, mo);
    const double err = relFrobenius(got, cstf::tensor::referenceMttkrp(x, f, n));
    check(err <= 1e-10, "MTTKRP of mode " + std::to_string(n + 1) +
                            " differs from referenceMttkrp (rel " +
                            std::to_string(err) + ")");
  }
}

struct RoundSamples {
  std::vector<double> iterSec;  // iterations after each round's first
  std::vector<std::vector<double>> rounds;  // the same, per round
  std::vector<double> simSec;
  std::uint64_t iterations = 0;
  double lastFit = 0.0;
};

/// Whole untraced cpAls rounds until `seconds` of wall time are spent.
RoundSamples timedRounds(sparkle::Context& ctx,
                         const cstf::tensor::CooTensor& x,
                         const TrainShape& s, std::uint64_t seed,
                         double seconds) {
  RoundSamples out;
  const auto t0 = Clock::now();
  do {
    ctx.metrics().reset();
    const core::CpAlsResult r =
        core::cpAls(ctx, x, alsOptions(s, seed, s.itersPerRound));
    checkRound(x, r, s.itersPerRound);
    out.rounds.emplace_back();
    for (std::size_t i = 1; i < r.iterations.size(); ++i) {
      out.iterSec.push_back(r.iterations[i].wallTimeSec);
      out.rounds.back().push_back(r.iterations[i].wallTimeSec);
      out.simSec.push_back(r.iterations[i].simTimeSec);
    }
    out.iterations += r.iterations.size();
    out.lastFit = r.finalFit;
  } while (secondsSince(t0) < seconds);
  return out;
}

struct TracedResult {
  double fit = 0.0;      // of the final factors, to compare with cpAls's
  double iterSec = 0.0;  // median traced iteration after a round's first
};

/// The traced replica of cpAls's exact loop: same calls, same order, a
/// span around each call into a layer.
TracedResult tracedLoop(sparkle::Context& ctx,
                        const cstf::tensor::CooTensor& x, const TrainShape& s,
                        std::uint64_t seed, double seconds, Report& report,
                        SpanLog& spans) {
  const std::vector<Index>& dims = x.dims();
  const auto order = static_cast<ModeId>(dims.size());
  const int iters = s.itersPerRound;
  std::vector<double> iterSec;
  std::vector<double> mttkrpSec;
  std::vector<double> updateSec;
  std::vector<Matrix> factors;
  std::vector<double> lambda;
  double kernelSec = 0.0;
  double layoutSec = 0.0;
  double stageWallSec = 0.0;
  double taskSec = 0.0;
  double shuffleBytes = 0.0;
  double shuffleRecords = 0.0;
  double stages = 0.0;
  std::vector<std::uint64_t> reduceRecords;
  const auto t0 = Clock::now();
  do {
    ctx.metrics().reset();
    core::MttkrpOptions mo;
    mo.localKernel = s.kernel;
    factors = core::randomFactors(dims, s.rank, seed);
    lambda.assign(s.rank, 1.0);
    std::vector<Matrix> grams;
    for (const Matrix& f : factors) grams.push_back(cstf::la::gram(f));
    SpanLog::Scope round(spans, "als.round");
    auto xr = core::tensorToRdd(ctx, x);
    xr.cache();
    core::LocalMttkrpTelemetry tel;
    std::optional<core::QcooEngine> q;
    if (s.kernel == sparkle::LocalKernel::kCsf) {
      SpanLog::Scope span(spans, "cstf.layout_build");
      core::ensureCsfLayouts(ctx, xr, order, &tel);
    } else {
      SpanLog::Scope span(spans, "cstf.qcoo_init");
      q.emplace(ctx, xr, dims, factors, mo);
    }
    layoutSec = tel.layoutBuildWallSec;
    std::size_t stageCursor = 0;
    double kernelBase = 0.0;
    for (int iter = 1; iter <= iters; ++iter) {
      if (iter == 2) {
        stageCursor = ctx.metrics().stageCount();
        kernelBase = tel.kernelWallSec;
      }
      const auto it0 = Clock::now();
      SpanLog::Scope itSpan(spans, "als.iteration");
      for (ModeId n = 0; n < order; ++n) {
        Matrix m;
        {
          const auto c0 = Clock::now();
          SpanLog::Scope span(spans, "cstf.mttkrp");
          const std::size_t before = ctx.metrics().stageCount();
          m = q ? q->mttkrpNext(factors)
                : core::mttkrpLocal(ctx, xr, dims, factors, n, mo, &tel);
          span.count("mode", n + 1);
          span.count("stages", double(ctx.metrics().stageCount() - before));
          span.end();
          if (iter > 1) mttkrpSec.push_back(secondsSince(c0));
        }
        const auto u0 = Clock::now();
        SpanLog::Scope span(spans, "la.mode_update");
        Matrix v(s.rank, s.rank, 1.0);
        for (ModeId d = 0; d < order; ++d) {
          if (d != n) v = cstf::la::hadamard(v, grams[d]);
        }
        Matrix updated = cstf::la::matmul(m, cstf::la::pinvSym(v));
        lambda = cstf::la::normalizeColumns(updated);
        factors[n] = std::move(updated);
        grams[n] = cstf::la::gram(factors[n]);
        span.end();
        if (iter > 1) updateSec.push_back(secondsSince(u0));
      }
      itSpan.end();
      if (iter > 1) iterSec.push_back(secondsSince(it0));
    }
    kernelSec += tel.kernelWallSec - kernelBase;
    // sparkle's own records of the iterations after the first.
    const std::vector<sparkle::StageMetrics> st = ctx.metrics().stages();
    for (std::size_t i = stageCursor; i < st.size(); ++i) {
      stages += 1.0;
      stageWallSec += st[i].wallTimeSec;
      shuffleBytes += double(st[i].shuffleBytesRemote + st[i].shuffleBytesLocal);
      shuffleRecords += double(st[i].shuffleRecords);
      for (const sparkle::TaskRecord& t : st[i].tasks) taskSec += t.wallTimeSec;
      reduceRecords.insert(reduceRecords.end(),
                           st[i].reduceRecordsByPartition.begin(),
                           st[i].reduceRecordsByPartition.end());
    }
  } while (secondsSince(t0) < seconds);

  const double n = double(iterSec.size());
  double iterTotal = 0.0;
  for (const double v : iterSec) iterTotal += v;
  double mttkrpTotal = 0.0;
  for (const double v : mttkrpSec) mttkrpTotal += v;
  report.set("sparkle.shuffle_mb_per_iter", shuffleBytes / 1e6 / n, "MB");
  report.set("sparkle.shuffle_records_per_iter", shuffleRecords / n, "count");
  report.set("sparkle.stages_per_iter", stages / n, "count");
  report.set("sparkle.task_s_per_iter", taskSec / n, "thread-s");
  report.set("sparkle.busy_ratio", taskSec / (kThreads * iterTotal), "ratio");
  report.set("sparkle.reduce_imbalance",
             sparkle::computeRecordSkew(reduceRecords).imbalance, "ratio");
  report.set("sparkle.stage_wall_over_iter", stageWallSec / iterTotal, "ratio");
  report.set("cstf.mttkrp_ms", median(mttkrpSec) * 1e3, "ms");
  // Computed, not counted: per nonzero N multiplies/adds per rank column;
  // bytes are the nonzero array, the factors read and the result written.
  double flops = 0.0;
  double bytes = 0.0;
  const double nnz = double(x.nnz());
  for (ModeId m = 0; m < order; ++m) {
    flops += nnz * double(s.rank) * order;
    bytes += nnz * (order * sizeof(Index) + sizeof(double));
    for (ModeId d = 0; d < order; ++d) {
      bytes += double(dims[d]) * double(s.rank) * sizeof(double);
    }
  }
  const double perCall = flops / order;
  report.set("cstf.mttkrp_gflops",
             perCall * double(mttkrpSec.size()) / mttkrpTotal / 1e9,
             "GFLOP/s");
  report.set("cstf.mttkrp_flop_per_byte", flops / bytes, "flop/B");
  report.set("cstf.kernel_s_per_iter", kernelSec / n, "thread-s");
  report.set("cstf.layout_build_s", layoutSec, "s");
  report.set("la.mode_update_us", median(updateSec) * 1e6, "us");
  return {cstf::tensor::cpFit(x, factors, lambda), median(iterSec)};
}

}  // namespace

void runTrain(const RunOptions& opts, bool csf, Report& report,
              SpanLog& spans) {
  const TrainShape s = shapeFor(csf);
  const cstf::tensor::CooTensor x =
      skewedTensor(s.dims, s.nnz, s.skew, opts.seed);
  const std::uint64_t alsSeed = opts.seed * 2654435761u + 7;
  sparkle::Context ctx(clusterConfig(s), kThreads);

  // Cold set-up: the input tensor, then cpAls entry to the end of
  // iteration 1 (RDD caching, the QCOO queue build or the CSF layout build,
  // first iteration), which is the program's part.
  {
    core::CpAlsOptions o = alsOptions(s, alsSeed, s.itersPerRound);
    double setup = 0.0;
    double programSetup = 0.0;
    const auto t0 = Clock::now();
    o.onIteration = [&](const core::CpAlsIterationStats& it) {
      if (it.iteration != 1) return;
      setup = secondsSince(opts.start);
      programSetup = secondsSince(t0);
    };
    const core::CpAlsResult r = core::cpAls(ctx, x, o);
    checkRound(x, r, s.itersPerRound);
    report.set("setup_s", setup, "s");
    report.set("program.setup_s", programSetup, "s");
  }
  checkMttkrp(ctx, x, s, opts.seed);

  const double untracedSec = opts.trace ? opts.seconds / 2 : opts.seconds;
  const RoundSamples r = timedRounds(ctx, x, s, alsSeed, untracedSec);
  report.countOps(r.iterations);
  const double iterS = median(r.iterSec);
  report.set("op_ms", roundLowerQuartile(r.rounds) * 1e3, "ms");
  report.set("cstf.iter_s", iterS, "s");
  report.set("cstf.sim_iter_s", median(r.simSec), "s");
  report.set("cstf.fit", r.lastFit, "ratio");
  std::printf("train: %zu nnz, rank %zu, %zu timed iterations, %d threads\n",
              x.nnz(), s.rank, r.iterSec.size(), kThreads);
  if (!opts.trace) return;

  const TracedResult t =
      tracedLoop(ctx, x, s, alsSeed, opts.seconds / 2, report, spans);
  check(relDiff(t.fit, r.lastFit) <= 1e-9,
        "traced ALS loop does not reproduce cpAls's fit");
  report.set("trace.overhead_pct", (t.iterSec / iterS - 1.0) * 100.0, "%");

  // Single-threaded baseline: the first point of the scaling curve.
  sparkle::Context ctx1(clusterConfig(s), 1);
  const RoundSamples one = timedRounds(ctx1, x, s, alsSeed, 0.0);
  report.set("cstf.iter_s_1t", median(one.iterSec), "s");
  report.set("cstf.speedup_2t", median(one.iterSec) / iterS, "ratio");
}

}  // namespace perfbench
