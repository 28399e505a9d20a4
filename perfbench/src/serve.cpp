// serve-topk: closed-loop top-k (k = 10) along the largest mode through
// serve::Batcher in front of a 1-thread serve::Engine.
//
// Two client threads each submit a request, wait for its answer, and
// submit the next; requests are Zipf-popular over a fixed universe larger
// than the result cache. Latency is measured by the clients from submit to
// answer. With the dispatcher and the engine's one pool thread that is
// four threads in all.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "bench.hpp"
#include "common/histogram.hpp"
#include "inputs.hpp"
#include "probes.hpp"
#include "serve/batcher.hpp"
#include "serve/engine.hpp"
#include "serve/model.hpp"

namespace perfbench {

namespace {

using cstf::Index;
namespace serve = cstf::serve;

constexpr int kClients = 2;
constexpr std::size_t kTopK = 10;
constexpr std::size_t kDistinct = 16384;
constexpr std::size_t kCacheEntries = 32;
constexpr double kRequestSkew = 1.1;
constexpr std::size_t kCheckedRequests = 64;
/// Length of the windows whose median latencies give op_ms.
constexpr double kWindowSec = 0.25;
const std::vector<Index> kDims = {17300, 8000, 6000};
constexpr std::size_t kRank = 16;

/// The benchmark's own exact top-k: every row scored from the model's
/// factors and lambda, ranked by score descending then index ascending.
std::vector<serve::TopKEntry> bruteForce(const serve::CpModel& m,
                                         const serve::TopKRequest& req) {
  std::vector<double> w(m.rank);
  for (std::size_t r = 0; r < m.rank; ++r) {
    w[r] = m.lambda[r];
    for (std::size_t d = 0; d < m.dims.size(); ++d) {
      if (d != req.mode) w[r] *= m.factors[d](req.fixed[d], r);
    }
  }
  std::vector<serve::TopKEntry> all(m.dims[req.mode]);
  for (Index i = 0; i < m.dims[req.mode]; ++i) {
    double s = 0.0;
    for (std::size_t r = 0; r < m.rank; ++r) {
      s += m.factors[req.mode](i, r) * w[r];
    }
    all[i] = {i, s};
  }
  std::partial_sort(all.begin(), all.begin() + req.k, all.end(),
                    serve::topKBetter);
  all.resize(req.k);
  return all;
}

/// Scores agree within 1e-12 relative; indices agree except where the two
/// candidates' own scores tie within that tolerance.
void checkAnswer(const serve::CpModel& m, const serve::TopKRequest& req,
                 const serve::TopKResult& got) {
  const std::vector<serve::TopKEntry> want = bruteForce(m, req);
  check(got.entries.size() == want.size(), "top-k returned " +
            std::to_string(got.entries.size()) + " entries, want " +
            std::to_string(want.size()));
  for (std::size_t j = 0; j < want.size(); ++j) {
    const serve::TopKEntry& g = got.entries[j];
    check(relDiff(g.score, want[j].score) <= 1e-12,
          "top-k score differs from brute force at rank " + std::to_string(j));
    if (g.index != want[j].index) {
      serve::TopKRequest probe = req;
      probe.k = m.dims[req.mode];
      double own = 0.0;
      for (const serve::TopKEntry& e : bruteForce(m, probe)) {
        if (e.index == g.index) own = e.score;
      }
      check(relDiff(own, want[j].score) <= 1e-12,
            "top-k index differs from brute force at rank " +
                std::to_string(j) + " without a tie");
    }
  }
}

struct LoopResult {
  cstf::Histogram latencyUs;
  /// Median latency of each client's kWindowSec windows, in us.
  std::vector<double> windowMedians;
  std::uint64_t requests = 0;
  /// Requests whose answer was an exception.
  std::uint64_t failed = 0;
  std::string firstError;
  double wallSec = 0.0;
};

/// `kClients` closed-loop clients for `seconds`; each checks that every
/// answer carries k entries. A request whose future throws is counted as
/// failed, and the client goes on with the next one.
LoopResult closedLoop(serve::Batcher& batcher, const ServeInputs& in,
                      std::uint64_t seed, double seconds, SpanLog& spans) {
  std::vector<cstf::Histogram> lat(kClients);
  std::vector<std::vector<double>> windowMedians(kClients);
  std::vector<std::uint64_t> failed(kClients, 0);
  std::atomic<bool> bad{false};
  std::vector<std::string> errors(kClients);
  Rng permRng(seed ^ 0x9e37);
  const Zipf popularity(static_cast<std::uint32_t>(in.universe.size()),
                        kRequestSkew, permRng);
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(seed * 31 + std::uint64_t(c) + 1);
      cstf::Histogram& mine = lat[c];
      std::vector<double> window;
      auto windowEnd = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(kWindowSec));
      while (Clock::now() < deadline) {
        const serve::TopKRequest& req = in.universe[popularity.sample(rng)];
        const auto s0 = Clock::now();
        SpanLog::Scope span(spans, "serve.request");
        serve::Batcher::ResultPtr r;
        try {
          r = batcher.submit(req).get();
        } catch (const std::exception& e) {
          if (errors[c].empty()) errors[c] = e.what();
          ++failed[c];
          continue;
        }
        span.end();
        const auto s1 = Clock::now();
        const double us = std::chrono::duration<double>(s1 - s0).count() * 1e6;
        mine.record(us);
        window.push_back(us);
        if (s1 >= windowEnd) {
          windowMedians[c].push_back(median(window));
          window.clear();
          windowEnd += std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(kWindowSec));
        }
        if (r->entries.size() != req.k) bad = true;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  LoopResult out;
  out.wallSec = secondsSince(t0);
  for (int c = 0; c < kClients; ++c) {
    out.latencyUs.merge(lat[c]);
    out.windowMedians.insert(out.windowMedians.end(),
                             windowMedians[c].begin(), windowMedians[c].end());
    out.failed += failed[c];
    if (out.firstError.empty()) out.firstError = errors[c];
  }
  out.requests = out.latencyUs.count() + out.failed;
  check(!bad, "a served answer had fewer than k entries");
  return out;
}

}  // namespace

void runServe(const RunOptions& opts, Report& report, SpanLog& spans) {
  const ServeInputs in = serveInputs(kDims, kRank, kDistinct, kTopK, opts.seed);
  const std::string path =
      opts.outDir + "/serve-model-" + std::to_string(opts.seed) + ".cstf";
  serve::saveModel(path, in.model);

  // Cold set-up: the inputs and the model file, then model load plus Engine
  // construction, which is the program's part.
  const auto t0 = Clock::now();
  auto engine = std::make_shared<const serve::Engine>(serve::loadModel(path), 1);
  report.set("setup_s", secondsSince(opts.start), "s");
  report.set("program.setup_s", secondsSince(t0), "s");

  // Direct engine answers against brute force, before any timing.
  for (std::size_t i = 0; i < kCheckedRequests; ++i) {
    const serve::TopKRequest& req = in.universe[i];
    checkAnswer(in.model, req, engine->topK(req.mode, req.fixed, req.k));
  }

  serve::BatcherOptions bo;
  bo.maxBatch = kClients;  // serve-bench's default: flush size = clients
  bo.cacheCapacity = kCacheEntries;
  serve::Batcher batcher(engine, bo);

  SpanLog off(false);
  closedLoop(batcher, in, opts.seed + 1, 1.0, off);  // warm-up, untimed
  const serve::ServeStats s0 = batcher.stats();
  const double untracedSec = opts.trace ? opts.seconds / 2 : opts.seconds;
  const LoopResult r = closedLoop(batcher, in, opts.seed, untracedSec, off);
  const serve::ServeStats s1 = batcher.stats();
  report.countOps(r.requests, r.failed);
  check(r.failed == 0, "a request failed: " + r.firstError);
  // Windows play the part of rounds (see roundLowerQuartile). The median
  // latency is the median of the windows' medians: exact, where the
  // histogram's quantiles are bucket midpoints.
  const double p50 = median(r.windowMedians);
  report.set("op_ms", quantile(r.windowMedians, 0.25) / 1e3, "ms");
  report.set("serve.qps", double(r.requests) / r.wallSec, "req/s");
  report.set("serve.latency_p50_us", p50, "us");
  report.set("serve.latency_p99_us", r.latencyUs.quantile(0.99), "us");
  const double lookups = double((s1.cacheHits - s0.cacheHits) +
                                (s1.cacheMisses - s0.cacheMisses));
  report.set("serve.cache_hit_ratio",
             double(s1.cacheHits - s0.cacheHits) / lookups, "ratio");
  report.set("serve.batch_size_mean",
             (s1.batchSizes.sum() - s0.batchSizes.sum()) /
                 double(s1.batchSizes.count() - s0.batchSizes.count()),
             "count");
  std::printf("serve: %llu requests from %d clients, %zu distinct, cache %zu\n",
              static_cast<unsigned long long>(r.requests), kClients,
              in.universe.size(), kCacheEntries);

  if (opts.trace) {
    const LoopResult t = closedLoop(batcher, in, opts.seed, opts.seconds / 2,
                                    spans);
    check(t.failed == 0, "a request failed: " + t.firstError);
    report.set("trace.overhead_pct",
               (median(t.windowMedians) / p50 - 1.0) * 100.0, "%");
    // The engine alone, on the same Zipf request mix.
    Rng rng(opts.seed ^ 0x70b);
    Rng permRng(opts.seed ^ 0x9e37);
    const Zipf popularity(static_cast<std::uint32_t>(in.universe.size()),
                          kRequestSkew, permRng);
    std::vector<double> topkUs;
    double scanned = 0.0;
    double pruned = 0.0;
    for (int i = 0; i < 4000; ++i) {
      const serve::TopKRequest& req = in.universe[popularity.sample(rng)];
      const auto q0 = Clock::now();
      SpanLog::Scope span(spans, "serve.topk");
      const serve::TopKResult res = engine->topK(req.mode, req.fixed, req.k);
      span.count("rows_scanned", double(res.stats.rowsScanned));
      span.count("rows_pruned", double(res.stats.rowsPruned));
      span.end();
      topkUs.push_back(secondsSince(q0) * 1e6);
      scanned += double(res.stats.rowsScanned);
      pruned += double(res.stats.rowsPruned);
    }
    report.set("serve.topk_us", median(topkUs), "us");
    report.set("serve.rows_scanned_per_query", scanned / 4000.0, "count");
    report.set("serve.prune_ratio", pruned / (scanned + pruned), "ratio");
    report.set("serve.batcher_overhead_us", p50 - median(topkUs), "us");
    report.set("la.mode_update_us", laModeUpdateMicros(kDims, kRank), "us");
  }

  // Batcher answers (some from its cache) against brute force, then the
  // accounting invariants once every client has its answer.
  for (std::size_t i = 0; i < kCheckedRequests; ++i) {
    checkAnswer(in.model, in.universe[i], *batcher.submit(in.universe[i]).get());
  }
  const serve::ServeStats fin = batcher.stats();
  check(fin.submitted == fin.completed, "submitted != completed");
  check(fin.failed == 0 && fin.shedTotal() == 0, "requests failed or shed");
}

}  // namespace perfbench
