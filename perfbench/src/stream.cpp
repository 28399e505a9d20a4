// stream-als: offline replay of a CSTFDLT1 delta log onto a warm-start
// model by stream::OnlineUpdater (row-subset ALS), single-threaded.
//
// Each round builds a fresh updater from the warm model and the base
// tensor, reads the whole log with DeltaLog::readAfter, applies every
// batch (one timed operation each), runs the exact-fit probe, and checks
// the result. Rounds repeat until the run time is spent.
//
// The tensor is small enough that a round's working set (factors, the
// accumulated tensor and its slice indices, about 1.5 MB) fits one core's
// 2 MB L2, and a run holds hundreds of replay rounds for op_ms to choose
// from. Rank 16 makes a row re-solve mostly arithmetic: at rank 8, whole
// runs moved by up to 1.6x with the load other tenants put on the memory
// system; at rank 16, by under 1.15x over the same minutes.
#include <cmath>
#include <filesystem>

#include "bench.hpp"
#include "inputs.hpp"
#include "probes.hpp"
#include "stream/delta_log.hpp"
#include "stream/online_updater.hpp"
#include "tensor/reference_ops.hpp"

namespace perfbench {

namespace {

using cstf::Index;
namespace stream = cstf::stream;

const std::vector<Index> kDims = {2000, 1500, 1000};  // see above
constexpr std::size_t kNnz = 15000;
constexpr double kSkew = 0.5;
constexpr std::size_t kBatches = 48;
constexpr double kDeltaFraction = 0.1;
constexpr std::size_t kRank = 16;

stream::OnlineUpdaterOptions updaterOptions() {
  stream::OnlineUpdaterOptions o;
  o.solver = stream::OnlineSolver::kAls;
  o.fitProbeEvery = 0;  // the round's own probe runs once, at the end
  return o;
}

struct Totals {
  std::vector<double> batchSec;
  std::vector<std::vector<double>> rounds;  // batchSec, per replay round
  std::vector<double> readSec;
  std::vector<double> probeSec;
  double applySec = 0.0;
  double rows = 0.0;
  double batches = 0.0;
  double fit = 0.0;
};

/// One replay round on a fresh updater, with its output checks.
void replayRound(const StreamInputs& in, const stream::DeltaLog& log,
                 double warmFit, double fullNormSq, Totals& t,
                 SpanLog& spans) {
  stream::OnlineUpdater u(in.warm, in.base, updaterOptions());
  SpanLog::Scope round(spans, "stream.round");
  const auto r0 = Clock::now();
  SpanLog::Scope readSpan(spans, "stream.delta_read");
  const stream::DeltaReadResult read = log.readAfter(0);
  readSpan.end();
  t.readSec.push_back(secondsSince(r0));
  check(read.deltas.size() == kBatches && read.skippedCorruptTail == 0,
        "delta log replay lost batches");
  t.rounds.emplace_back();
  for (const cstf::tensor::Delta& d : read.deltas) {
    const auto b0 = Clock::now();
    SpanLog::Scope span(spans, "stream.apply");
    const std::uint64_t rows0 = u.stats().rowsRecomputed;
    u.apply(d);
    span.count("entries", double(d.entries.size()));
    span.count("rows", double(u.stats().rowsRecomputed - rows0));
    span.end();
    t.batchSec.push_back(secondsSince(b0));
    t.rounds.back().push_back(t.batchSec.back());
  }
  const auto p0 = Clock::now();
  SpanLog::Scope probeSpan(spans, "stream.fit_probe");
  const double fit = u.exactFit();
  probeSpan.end();
  t.probeSec.push_back(secondsSince(p0));
  round.end();

  t.applySec += u.stats().totalApplySec;
  t.rows += double(u.stats().rowsRecomputed);
  t.batches += double(u.stats().batchesApplied);
  t.fit = fit;

  check(u.tensor().nnz() == in.full.nnz(),
        "accumulated tensor nnz differs from the full tensor");
  check(relDiff(u.tensor().normSq(), fullNormSq) <= 1e-12,
        "accumulated tensor norm differs from the full tensor");
  const cstf::serve::CpModel snap = u.snapshotModel();
  check(std::abs(fit - cstf::tensor::cpFit(in.full, snap.factors,
                                           snap.lambda)) <= 1e-9,
        "exactFit differs from tensor::cpFit of the snapshot model");
  check(fit >= warmFit, "replay lowered the fit below the warm start's");
}

}  // namespace

void runStream(const RunOptions& opts, Report& report, SpanLog& spans) {
  const StreamInputs in = streamInputs(kDims, kNnz, kSkew, kBatches,
                                       kDeltaFraction, kRank, opts.seed);
  const std::string dir =
      opts.outDir + "/stream-deltas-" + std::to_string(opts.seed);
  std::filesystem::remove_all(dir);
  stream::DeltaLog log(dir);
  for (const cstf::tensor::Delta& d : in.deltas) log.append(d);
  const double warmFit =
      cstf::tensor::cpFit(in.full, in.warm.factors, in.warm.lambda);
  double fullNormSq = 0.0;
  for (const cstf::tensor::Nonzero& nz : in.full.nonzeros()) {
    fullNormSq += nz.val * nz.val;
  }

  // Cold set-up: inputs, the delta log, then OnlineUpdater construction
  // (indexing the base tensor), which is the program's part.
  {
    const auto t0 = Clock::now();
    stream::OnlineUpdater u(in.warm, in.base, updaterOptions());
    report.set("setup_s", secondsSince(opts.start), "s");
    report.set("program.setup_s", secondsSince(t0), "s");
  }
  SpanLog off(false);
  Totals warm;
  replayRound(in, log, warmFit, fullNormSq, warm, off);  // warm-up, untimed

  const double untracedSec = opts.trace ? opts.seconds / 2 : opts.seconds;
  Totals t;
  const auto l0 = Clock::now();
  do {
    replayRound(in, log, warmFit, fullNormSq, t, off);
  } while (secondsSince(l0) < untracedSec);
  report.countOps(static_cast<std::uint64_t>(t.batches));
  const double batchMs = median(t.batchSec) * 1e3;
  report.set("op_ms", roundLowerQuartile(t.rounds) * 1e3, "ms");
  report.set("stream.batch_ms", batchMs, "ms");
  report.set("stream.fit", t.fit, "ratio");
  std::printf("stream: %zu batches over a %zu-nnz base, warm fit %.6g, "
              "replayed fit %.6g\n",
              in.deltas.size(), in.base.nnz(), warmFit, t.fit);
  if (!opts.trace) return;

  Totals tr;
  const auto tr0 = Clock::now();
  do {
    replayRound(in, log, warmFit, fullNormSq, tr, spans);
  } while (secondsSince(tr0) < opts.seconds / 2);
  report.set("trace.overhead_pct",
             (median(tr.batchSec) * 1e3 / batchMs - 1.0) * 100.0, "%");
  report.set("stream.rows_per_batch", tr.rows / tr.batches, "count");
  report.set("stream.row_solve_us", tr.applySec / tr.rows * 1e6, "us");
  report.set("stream.delta_read_ms", median(tr.readSec) * 1e3, "ms");
  report.set("stream.fit_probe_ms", median(tr.probeSec) * 1e3, "ms");
  report.set("la.mode_update_us", laModeUpdateMicros(kDims, kRank), "us");
}

}  // namespace perfbench
