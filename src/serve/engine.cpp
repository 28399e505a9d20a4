#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <thread>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "cstf/skew.hpp"

namespace cstf::serve {

namespace {

/// Raise `floor` to at least `v` (atomic max, relaxed — the floor is a
/// monotone lower bound used only to skip provably losing rows).
void raiseFloor(std::atomic<double>& floor, double v) {
  double cur = floor.load(std::memory_order_relaxed);
  while (v > cur &&
         !floor.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

EngineOptions unsharded(std::size_t threads) {
  EngineOptions o;
  o.threads = threads;
  return o;
}

}  // namespace

LoadHints servingLoadHints(const cstf_core::SkewPlan& plan) {
  LoadHints hints(plan.modes.size());
  for (std::size_t m = 0; m < plan.modes.size(); ++m) {
    hints[m] = plan.modes[m].heavyKeys;
  }
  return hints;
}

Engine::Engine(CpModel model, std::size_t threads)
    : Engine(std::move(model), unsharded(threads)) {}

Engine::Engine(CpModel model, EngineOptions opts)
    : rank_(model.rank),
      dims_(std::move(model.dims)),
      lambda_(std::move(model.lambda)),
      finalFit_(model.finalFit),
      numShards_(opts.numShards),
      numNodes_(opts.numNodes == 0 ? opts.numShards : opts.numNodes),
      backoffMicros_(opts.backoffMicros),
      maxFailoverRounds_(std::max(1, opts.maxFailoverRounds)),
      faults_(std::move(opts.faults)),
      pool_(opts.threads) {
  CSTF_CHECK(dims_.size() >= 2, "serving needs a model of order >= 2");
  CSTF_CHECK(model.factors.size() == dims_.size(),
             "model needs one factor per mode");
  CSTF_CHECK(lambda_.size() == rank_ && rank_ >= 1,
             "model lambda must have one finite weight per rank component");
  for (const double l : lambda_) {
    CSTF_CHECK(std::isfinite(l), "model lambda must be finite for serving");
  }
  for (ModeId m = 0; m < order(); ++m) {
    CSTF_CHECK(model.factors[m].rows() == dims_[m] &&
                   model.factors[m].cols() == rank_,
               "model factor shape does not match dims/rank");
  }
  CSTF_CHECK(numShards_ >= 1, "serving needs >= 1 shard");

  // Hot-shard promotion: fold each mode's hinted heavy-row weights onto the
  // shard that owns the row; shards loaded past hotShardFactor x the mean
  // get one extra replica (capped by the node count).
  const std::size_t baseReplicas =
      std::min(std::max<std::size_t>(1, opts.numReplicas), numNodes_);
  std::vector<std::uint64_t> load(numShards_, 0);
  std::uint64_t totalLoad = 0;
  for (ModeId m = 0;
       m < order() && static_cast<std::size_t>(m) < opts.loadHints.size();
       ++m) {
    for (const auto& [row, weight] : opts.loadHints[m]) {
      if (row >= dims_[m]) continue;
      load[row % numShards_] += weight;
      totalLoad += weight;
    }
  }
  replicas_.assign(numShards_, baseReplicas);
  if (opts.hotShardFactor > 0.0 && totalLoad > 0) {
    const double mean =
        static_cast<double>(totalLoad) / static_cast<double>(numShards_);
    for (std::size_t s = 0; s < numShards_; ++s) {
      if (static_cast<double>(load[s]) >= opts.hotShardFactor * mean) {
        replicas_[s] = std::min(numNodes_, baseReplicas + 1);
        if (replicas_[s] > baseReplicas) ++hotShards_;
      }
    }
  }

  nodeDead_ = std::make_unique<std::atomic<bool>[]>(numNodes_);
  for (std::size_t n = 0; n < numNodes_; ++n) {
    nodeDead_[n].store(false, std::memory_order_relaxed);
  }

  // Distribute rows: shard s owns global rows {s, s+S, s+2S, ...} of every
  // mode. One shard takes the factor matrix itself; otherwise each source
  // matrix is released as soon as its rows are copied out, so at most one
  // mode is ever held twice.
  slices_.resize(order() * numShards_);
  for (ModeId m = 0; m < order(); ++m) {
    la::Matrix& src = model.factors[m];
    for (std::size_t s = 0; s < numShards_; ++s) {
      ShardMode& sm = slices_[m * numShards_ + s];
      if (numShards_ == 1) {
        sm.rows = std::move(src);
      } else {
        const std::size_t localRows =
            dims_[m] > s ? (dims_[m] - s - 1) / numShards_ + 1 : 0;
        sm.rows = la::Matrix(localRows, rank_);
        for (std::size_t local = 0; local < localRows; ++local) {
          const double* in = src.row(local * numShards_ + s);
          std::copy(in, in + rank_, sm.rows.row(local));
        }
      }
      // Fold lambda into mode 0: predictions become a plain product of
      // factor rows, and mode-0 top-k candidates carry their true
      // magnitude.
      const std::size_t localRows = sm.rows.rows();
      sm.norm.resize(localRows);
      for (std::size_t local = 0; local < localRows; ++local) {
        double* row = sm.rows.row(local);
        double sq = 0.0;
        for (std::size_t r = 0; r < rank_; ++r) {
          if (m == 0) row[r] = lambda_[r] * row[r];
          sq += row[r] * row[r];
        }
        sm.norm[local] = std::sqrt(sq);
      }
      // Norm descending, global index (monotone in local) ascending on
      // ties.
      sm.visit.resize(localRows);
      std::iota(sm.visit.begin(), sm.visit.end(), Index{0});
      std::sort(sm.visit.begin(), sm.visit.end(), [&sm](Index a, Index b) {
        return sm.norm[a] > sm.norm[b] || (sm.norm[a] == sm.norm[b] && a < b);
      });
    }
    src = la::Matrix();
  }

  bindLiveInstruments(opts.liveMetrics);
}

void Engine::bindLiveInstruments(metrics::Registry* reg) {
  if (reg == nullptr) return;
  live_.replicasTotal = &reg->gauge("serve_replicas_total");
  live_.nodesDead = &reg->gauge("serve_nodes_dead");
  live_.failoverTotal = &reg->counter("serve_failover_total");
  live_.shardLostTotal = &reg->counter("serve_shard_lost_total");
  live_.shardQueriesTotal.resize(numShards_);
  for (std::size_t s = 0; s < numShards_; ++s) {
    live_.shardQueriesTotal[s] = &reg->counter(
        "serve_shard_queries_total", {{"shard", std::to_string(s)}});
  }
  reg->gauge("serve_shards").set(static_cast<double>(numShards_));
  live_.replicasTotal->set(static_cast<double>(
      std::accumulate(replicas_.begin(), replicas_.end(), std::size_t{0})));
  live_.nodesDead->set(0.0);
}

bool Engine::nodeAlive(int node) const {
  CSTF_CHECK(node >= 0 && static_cast<std::size_t>(node) < numNodes_,
             "node id out of range");
  return !nodeDead_[node].load(std::memory_order_relaxed);
}

void Engine::killNode(int node) const {
  CSTF_CHECK(node >= 0 && static_cast<std::size_t>(node) < numNodes_,
             "node id out of range");
  if (nodeDead_[node].exchange(true, std::memory_order_relaxed)) return;
  const std::size_t dead =
      deadNodes_.fetch_add(1, std::memory_order_relaxed) + 1;
  nodesKilled_.fetch_add(1, std::memory_order_relaxed);
  std::size_t copiesLost = 0;
  for (std::size_t s = 0; s < numShards_; ++s) {
    for (std::size_t c = 0; c < replicas_[s]; ++c) {
      if (nodeOfCopy(s, c) == node) ++copiesLost;
    }
  }
  if (live_.shardLostTotal != nullptr) live_.shardLostTotal->add(copiesLost);
  if (live_.nodesDead != nullptr) live_.nodesDead->set(double(dead));
}

void Engine::reviveNode(int node) const {
  CSTF_CHECK(node >= 0 && static_cast<std::size_t>(node) < numNodes_,
             "node id out of range");
  if (!nodeDead_[node].exchange(false, std::memory_order_relaxed)) return;
  const std::size_t dead =
      deadNodes_.fetch_sub(1, std::memory_order_relaxed) - 1;
  if (live_.nodesDead != nullptr) live_.nodesDead->set(double(dead));
}

void Engine::noteBatchBoundary(std::uint64_t batchesDispatched) const {
  if (faults_.schedule.empty()) return;
  const int victim = faults_.scheduledLossFor(batchesDispatched,
                                              static_cast<int>(numNodes_));
  if (victim >= 0) killNode(victim);
}

void Engine::requireReplicas(const Index* idx, ModeId skip) const {
  if (deadNodes_.load(std::memory_order_relaxed) == 0) return;
  for (ModeId m = 0; m < order(); ++m) {
    if (m == skip) continue;
    // Copies share the row data; what a dead node takes down is its
    // copies' availability, so a fetch just needs one alive replica.
    const std::size_t s = idx[m] % numShards_;
    bool alive = false;
    for (std::size_t c = 0; c < replicas_[s] && !alive; ++c) {
      alive = !nodeDead_[nodeOfCopy(s, c)].load(std::memory_order_relaxed);
    }
    if (alive) continue;
    shedUnavailable_.fetch_add(1, std::memory_order_relaxed);
    throw ShedError(strprintf(
        "shard %zu unavailable: all %zu replicas down (mode %d row %llu)", s,
        replicas_[s], int(m) + 1, static_cast<unsigned long long>(idx[m])));
  }
}

void Engine::validateQuery(const std::vector<Index>& indices) const {
  CSTF_CHECK(indices.size() == dims_.size(),
             "query needs one index per mode");
  for (ModeId m = 0; m < order(); ++m) {
    CSTF_CHECK(indices[m] < dims_[m],
               strprintf("query index out of range for mode %d", int(m) + 1));
  }
}

double Engine::predictOne(const Index* idx) const {
  const ModeId n = order();
  requireReplicas(idx, n);
  const double* rows[kMaxOrder];
  for (ModeId m = 0; m < n; ++m) rows[m] = rowOf(m, idx[m]);
  // Same accumulation order as tensor::denseReconstruction (lambda and the
  // mode-0 entry are pre-multiplied), so results match bit for bit.
  double cell = 0.0;
  for (std::size_t r = 0; r < rank_; ++r) {
    double prod = rows[0][r];
    for (ModeId m = 1; m < n; ++m) prod *= rows[m][r];
    cell += prod;
  }
  return cell;
}

double Engine::predict(const std::vector<Index>& indices) const {
  validateQuery(indices);
  return predictOne(indices.data());
}

std::vector<double> Engine::predictBatch(
    const std::vector<std::vector<Index>>& queries) const {
  std::vector<double> out(queries.size());
  constexpr std::size_t kBlock = 64;
  auto runBlock = [&](std::size_t b) {
    const std::size_t begin = b * kBlock;
    const std::size_t end = std::min(queries.size(), begin + kBlock);
    for (std::size_t q = begin; q < end; ++q) {
      validateQuery(queries[q]);
      out[q] = predictOne(queries[q].data());
    }
  };
  const std::size_t nBlocks = (queries.size() + kBlock - 1) / kBlock;
  if (nBlocks >= 2 && pool_.threadCount() > 1) {
    pool_.parallelFor(nBlocks, runBlock);
  } else {
    for (std::size_t b = 0; b < nBlocks; ++b) runBlock(b);
  }
  return out;
}

std::optional<std::vector<TopKEntry>> Engine::scanCopy(
    std::size_t s, int node, ModeId mode, const std::vector<double>& w,
    double wNorm, std::size_t k, const TopKOptions& opts,
    std::atomic<double>& sharedFloor, TopKStats& st) const {
  const ShardMode& sm = slice(mode, s);
  const std::size_t localRows = sm.rows.rows();
  // A shard holding fewer than k rows may contribute all of them to the
  // global top-k, so its heap keeps everything and never raises the shared
  // floor; only a heap of k candidates bounds the global k-th best.
  const std::size_t cap = std::min(k, localRows);
  std::vector<TopKEntry> heap;  // top of the heap = worst kept entry
  heap.reserve(cap);
  double floor = sharedFloor.load(std::memory_order_relaxed);
  for (std::size_t p = 0; p < localRows; ++p) {
    if ((p & 15u) == 0) {
      // Poll the serving node: a mid-scan death aborts this scan and the
      // caller retries on another replica (partial stats stay counted —
      // the work really happened).
      if (nodeDead_[node].load(std::memory_order_relaxed)) return std::nullopt;
      floor = std::max(floor, sharedFloor.load(std::memory_order_relaxed));
    }
    const Index local = sm.visit[p];
    // A row whose bound falls strictly below the floor cannot enter the
    // top-k (equality may still tie in), and rows are visited in norm
    // order, so every later row is bounded lower too.
    if (opts.prune && sm.norm[local] * wNorm < floor) {
      st.rowsPruned += localRows - p;
      break;
    }
    ++st.rowsScanned;
    const double* row = sm.rows.row(local);
    double score = 0.0;
    for (std::size_t r = 0; r < rank_; ++r) score += w[r] * row[r];
    const TopKEntry e{static_cast<Index>(local * numShards_ + s), score};
    if (heap.size() < cap) {
      heap.push_back(e);
      std::push_heap(heap.begin(), heap.end(), topKBetter);
    } else if (topKBetter(e, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), topKBetter);
      heap.back() = e;
      std::push_heap(heap.begin(), heap.end(), topKBetter);
    } else {
      continue;  // heap unchanged; floor cannot have risen
    }
    if (heap.size() == k) {
      const double worst = heap.front().score;
      floor = std::max(floor, worst);
      raiseFloor(sharedFloor, worst);
    }
  }
  return heap;
}

std::vector<TopKEntry> Engine::shardTopK(
    std::size_t s, ModeId mode, const std::vector<double>& w, double wNorm,
    std::size_t k, const TopKOptions& opts, std::atomic<double>& sharedFloor,
    TopKStats& st) const {
  if (slice(mode, s).rows.rows() == 0) return {};
  bool deviated = false;
  int attempt = 0;
  for (int round = 0; round < maxFailoverRounds_; ++round) {
    for (std::size_t c = 0; c < replicas_[s]; ++c) {
      const int node = nodeOfCopy(s, c);
      if (nodeDead_[node].load(std::memory_order_relaxed)) {
        deviated = true;
        continue;
      }
      if (deviated) {
        failovers_.fetch_add(1, std::memory_order_relaxed);
        if (live_.failoverTotal != nullptr) live_.failoverTotal->add();
        if (backoffMicros_ > 0 && attempt > 0) {
          const std::uint64_t shift = std::min(attempt - 1, 3);
          std::this_thread::sleep_for(
              std::chrono::microseconds(backoffMicros_ << shift));
        }
      }
      ++attempt;
      auto out = scanCopy(s, node, mode, w, wNorm, k, opts, sharedFloor, st);
      if (out.has_value()) {
        shardQueries_.fetch_add(1, std::memory_order_relaxed);
        if (!live_.shardQueriesTotal.empty()) {
          live_.shardQueriesTotal[s]->add();
        }
        return std::move(*out);
      }
      deviated = true;
    }
  }
  shedUnavailable_.fetch_add(1, std::memory_order_relaxed);
  throw ShedError(strprintf("shard %zu unavailable: all %zu replicas down",
                            s, replicas_[s]));
}

TopKResult Engine::topK(ModeId mode, const std::vector<Index>& fixed,
                        std::size_t k, const TopKOptions& opts) const {
  CSTF_CHECK(mode < order(), "top-k mode out of range");
  CSTF_CHECK(fixed.size() == dims_.size(),
             "top-k needs one fixed index per mode (free mode ignored)");
  CSTF_CHECK(k >= 1, "top-k needs k >= 1");
  for (ModeId m = 0; m < order(); ++m) {
    if (m == mode) continue;
    CSTF_CHECK(fixed[m] < dims_[m],
               strprintf("fixed index out of range for mode %d", int(m) + 1));
  }

  // Query vector: Hadamard product of the fixed modes' rows in ascending
  // mode order (lambda rides in exactly once, via folded mode 0 — either
  // as a candidate row or as part of w).
  requireReplicas(fixed.data(), mode);
  std::vector<double> w(rank_);
  bool first = true;
  for (ModeId m = 0; m < order(); ++m) {
    if (m == mode) continue;
    const double* row = rowOf(m, fixed[m]);
    if (first) {
      std::copy(row, row + rank_, w.begin());
      first = false;
    } else {
      for (std::size_t r = 0; r < rank_; ++r) w[r] *= row[r];
    }
  }
  double wNormSq = 0.0;
  for (const double v : w) wNormSq += v * v;
  const double wNorm = std::sqrt(wNormSq);

  std::atomic<double> sharedFloor{-std::numeric_limits<double>::infinity()};
  std::vector<std::vector<TopKEntry>> kept(numShards_);
  std::vector<TopKStats> stats(numShards_);
  // Scatter: one scan per shard; the pool rethrows the first ShedError
  // after all shards finish, so a lost shard fails the query loudly rather
  // than returning a silently incomplete merge.
  pool_.parallelFor(numShards_, [&](std::size_t s) {
    kept[s] = shardTopK(s, mode, w, wNorm, k, opts, sharedFloor, stats[s]);
  });

  // Gather: each shard's kept set holds every one of its rows that is in
  // the global top-k, so merging and truncating to min(k, rows) is exact.
  TopKResult res;
  for (std::size_t s = 0; s < numShards_; ++s) {
    res.entries.insert(res.entries.end(), kept[s].begin(), kept[s].end());
    res.stats.rowsScanned += stats[s].rowsScanned;
    res.stats.rowsPruned += stats[s].rowsPruned;
  }
  std::sort(res.entries.begin(), res.entries.end(), topKBetter);
  if (res.entries.size() > k) res.entries.resize(k);
  return res;
}

EngineStats Engine::stats() const {
  EngineStats st;
  st.shards = numShards_;
  st.nodes = numNodes_;
  st.totalReplicas =
      std::accumulate(replicas_.begin(), replicas_.end(), std::size_t{0});
  st.hotShards = hotShards_;
  st.deadNodes = deadNodes_.load(std::memory_order_relaxed);
  st.shardQueries = shardQueries_.load(std::memory_order_relaxed);
  st.failovers = failovers_.load(std::memory_order_relaxed);
  st.shedUnavailable = shedUnavailable_.load(std::memory_order_relaxed);
  st.nodesKilled = nodesKilled_.load(std::memory_order_relaxed);
  return st;
}

}  // namespace cstf::serve
