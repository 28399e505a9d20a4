// Read-side query engine over a trained CP model.
//
// CP factors answer two query shapes that recommendation workloads need
// (HaTen2/SALS line of work — "serve the completed tensor"):
//
//  * point reconstruction  x(i_1..i_N) = sum_r lambda_r prod_m A_m(i_m, r)
//  * top-k completion      fix every mode but one, rank that mode's rows
//
// Layout: the model is split row-wise into S shards — row i of every mode
// lives on shard i mod S at local position i div S — and copy c of shard s
// lives on simulated node (s + c) mod N (chained declustering: no two
// shards share a full replica set, and one node death costs at most one
// copy of any shard). Shards owning a disproportionate share of the
// frequency census's heavy rows get one extra replica. An unsharded engine
// is the case S = 1, one replica, one node: the factor matrices are moved
// in and lambda is folded into mode 0 in place, so serving holds a single
// copy of the model.
//
// Lambda rides in mode 0 (one multiply per entry), so predictions are
// bit-identical to tensor::denseReconstruction's evaluation order. Each
// shard keeps per-row L2 norms and a norm-descending visit order per mode.
// A top-k query builds w, the Hadamard product of the fixed modes' rows,
// and scans every shard's rows with Cauchy-Schwarz pruning: score(i) =
// <A(i,:), w> <= ||A(i,:)|| * ||w||, so once a floor on the k-th best score
// is known, the first row whose bound falls below it ends that shard's
// scan. Shards share the floor through an atomic, and only a full k-heap
// may raise it, so the merged result is exact: the entries a brute-force
// scan ranks, independent of shard count, thread count and pruning.
// Shards scan in parallel on the engine's pool; one shard scans inline.
//
// Failure model: killNode() (or a sparkle::FaultPlan applied at batch
// boundaries via noteBatchBoundary) marks a node dead. Scans poll their
// node's liveness as they go; a mid-scan death aborts the scan, which
// retries on the next alive replica after a bounded backoff. The data is
// immutable, so a retried scan returns exactly what the aborted one would
// have. Only when every replica of a shard is down does the query shed
// with a typed ShedError; it is counted, never lost, never wrong.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/metrics_registry.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "la/matrix.hpp"
#include "serve/model.hpp"
#include "sparkle/cluster.hpp"

namespace cstf::cstf_core {
struct SkewPlan;
}

namespace cstf::serve {

struct TopKEntry {
  Index index = 0;
  double score = 0.0;

  friend bool operator==(const TopKEntry& a, const TopKEntry& b) {
    return a.index == b.index && a.score == b.score;
  }
};

struct TopKOptions {
  /// Norm-bound pruning; off gives the brute-force scan (same results).
  bool prune = true;
};

struct TopKStats {
  /// Rows whose dot product was actually computed.
  std::uint64_t rowsScanned = 0;
  /// Rows skipped by the norm bound.
  std::uint64_t rowsPruned = 0;
};

struct TopKResult {
  /// Best first: (score descending, index ascending).
  std::vector<TopKEntry> entries;
  TopKStats stats;
};

/// Total order on top-k candidates: higher score wins, ties go to the
/// lower index. The shard heaps and the gather merge both sort by it.
inline bool topKBetter(const TopKEntry& a, const TopKEntry& b) {
  return a.score > b.score || (a.score == b.score && a.index < b.index);
}

/// Per-mode (row, estimated request weight) heavy hitters driving
/// hot-shard replication; outer index is the mode.
using LoadHints = std::vector<std::vector<std::pair<Index, std::uint64_t>>>;

/// Flatten a skew census into serving load hints: each mode's heavy keys
/// become that mode's heavy rows (a row requested often is exactly a key
/// that appears often).
LoadHints servingLoadHints(const cstf_core::SkewPlan& plan);

struct EngineOptions {
  /// Row-wise shards (row i of every mode lives on shard i mod numShards).
  std::size_t numShards = 1;
  /// Base copies per shard; 1 = unreplicated. Capped at numNodes.
  std::size_t numReplicas = 1;
  /// Nodes in the serving fabric; 0 places one shard per node.
  std::size_t numNodes = 0;
  /// A shard whose hinted load reaches hotShardFactor times the mean shard
  /// load gets one extra replica; <= 0 disables promotion.
  double hotShardFactor = 2.0;
  /// Heavy-row weights (see servingLoadHints); empty = no promotion.
  LoadHints loadHints;
  /// Deterministic node loss applied at batch boundaries: stage =
  /// dispatched batch index (the serving-tier reuse of the shuffle
  /// engine's FaultPlan). Only scheduled events fire here; rate-driven
  /// loss stays a shuffle-engine behaviour.
  sparkle::FaultPlan faults;
  /// Base wall-clock backoff before retrying a scan on another replica;
  /// doubles per retry (capped at 8x).
  std::uint64_t backoffMicros = 50;
  /// Full passes over a shard's replica chain before shedding.
  int maxFailoverRounds = 2;
  /// Pool width for shard scans and batched predictions; 0 sizes to the
  /// hardware.
  std::size_t threads = 0;
  /// Instrument sink; nullptr disables live metrics.
  metrics::Registry* liveMetrics = &metrics::globalRegistry();
};

/// Point-in-time snapshot for reports and tests.
struct EngineStats {
  std::size_t shards = 0;
  std::size_t nodes = 0;
  std::size_t totalReplicas = 0;
  /// Shards promoted to an extra replica by the load hints.
  std::size_t hotShards = 0;
  std::size_t deadNodes = 0;
  /// Per-shard scans that completed (including after failover).
  std::uint64_t shardQueries = 0;
  /// Scan attempts served off the first-choice replica.
  std::uint64_t failovers = 0;
  /// Scans shed because every replica of their shard was down.
  std::uint64_t shedUnavailable = 0;
  std::uint64_t nodesKilled = 0;
};

class Engine {
 public:
  /// Unsharded engine; `threads == 0` sizes the pool to the hardware. All
  /// query methods are const and safe to call concurrently.
  explicit Engine(CpModel model, std::size_t threads = 0);
  Engine(CpModel model, EngineOptions opts);

  ModeId order() const { return static_cast<ModeId>(dims_.size()); }
  std::size_t rank() const { return rank_; }
  const std::vector<Index>& dims() const { return dims_; }
  const std::vector<double>& lambda() const { return lambda_; }
  double finalFit() const { return finalFit_; }

  std::size_t numShards() const { return numShards_; }
  std::size_t numNodes() const { return numNodes_; }
  std::size_t replicasOf(std::size_t shard) const {
    return replicas_[shard];
  }
  /// Chained declustering placement: copy c of shard s -> node (s+c) mod N.
  int nodeOfCopy(std::size_t shard, std::size_t copy) const {
    return static_cast<int>((shard + copy) % numNodes_);
  }
  bool nodeAlive(int node) const;

  /// Fault injection: the fabric is logically const to queries, so kills
  /// are too (noteBatchBoundary fires them from the dispatch path).
  void killNode(int node) const;
  void reviveNode(int node) const;

  /// Reconstruct one cell; `indices` holds one index per mode.
  double predict(const std::vector<Index>& indices) const;

  /// Reconstruct a batch of cells; processed in blocks (parallel across
  /// the pool for large batches) with results in input order, identical to
  /// per-query predict().
  std::vector<double> predictBatch(
      const std::vector<std::vector<Index>>& queries) const;

  /// Top-k completion along `mode`: `fixed` holds one index per mode (the
  /// entry at `mode` is ignored); returns the k rows of that mode with the
  /// highest reconstructed values. Throws ShedError when a required shard
  /// has no replica alive. Stats count real work across shards and
  /// retries.
  TopKResult topK(ModeId mode, const std::vector<Index>& fixed,
                  std::size_t k, const TopKOptions& opts = {}) const;

  /// Called by the Batcher after dispatching batch `batchesDispatched`
  /// (1-based): applies the fault plan's scheduled kills for that batch.
  void noteBatchBoundary(std::uint64_t batchesDispatched) const;

  EngineStats stats() const;

 private:
  /// One mode's slice of one shard: the owned rows (lambda folded into
  /// mode 0), their norms, and a norm-descending visit order over local
  /// positions (global index = local * S + shard).
  struct ShardMode {
    la::Matrix rows;
    std::vector<double> norm;
    std::vector<Index> visit;
  };

  void validateQuery(const std::vector<Index>& indices) const;
  const ShardMode& slice(ModeId mode, std::size_t s) const {
    return slices_[mode * numShards_ + s];
  }
  /// Throws ShedError when the shard holding row idx[m] of some mode
  /// m != skip has no replica alive; returns at once while every node is
  /// up.
  void requireReplicas(const Index* idx, ModeId skip) const;
  /// Row i of `mode`: shard i mod S, local position i div S. Point
  /// predictions make this the hot path, so the unsharded engine skips the
  /// division.
  const double* rowOf(ModeId mode, Index i) const {
    if (numShards_ == 1) return slice(mode, 0).rows.row(i);
    return slice(mode, i % numShards_).rows.row(i / numShards_);
  }
  double predictOne(const Index* idx) const;
  std::vector<TopKEntry> shardTopK(std::size_t s, ModeId mode,
                                   const std::vector<double>& w, double wNorm,
                                   std::size_t k, const TopKOptions& opts,
                                   std::atomic<double>& sharedFloor,
                                   TopKStats& st) const;
  std::optional<std::vector<TopKEntry>> scanCopy(
      std::size_t s, int node, ModeId mode, const std::vector<double>& w,
      double wNorm, std::size_t k, const TopKOptions& opts,
      std::atomic<double>& sharedFloor, TopKStats& st) const;
  void bindLiveInstruments(metrics::Registry* reg);

  std::size_t rank_ = 0;
  std::vector<Index> dims_;
  std::vector<double> lambda_;
  double finalFit_ = 0.0;
  std::size_t numShards_ = 1;
  std::size_t numNodes_ = 1;
  std::vector<std::size_t> replicas_;
  std::size_t hotShards_ = 0;
  std::uint64_t backoffMicros_ = 0;
  int maxFailoverRounds_ = 1;
  sparkle::FaultPlan faults_;
  /// Shard s's slice of mode m lives at m * numShards_ + s.
  std::vector<ShardMode> slices_;
  /// Liveness per node; mutable because fault injection happens on the
  /// (const) query path.
  std::unique_ptr<std::atomic<bool>[]> nodeDead_;
  /// How many nodeDead_ flags are set: while none are, queries skip the
  /// replica walk.
  mutable std::atomic<std::size_t> deadNodes_{0};
  mutable std::atomic<std::uint64_t> shardQueries_{0};
  mutable std::atomic<std::uint64_t> failovers_{0};
  mutable std::atomic<std::uint64_t> shedUnavailable_{0};
  mutable std::atomic<std::uint64_t> nodesKilled_{0};
  mutable ThreadPool pool_;

  struct LiveInstruments {
    metrics::Gauge* replicasTotal = nullptr;
    metrics::Gauge* nodesDead = nullptr;
    metrics::Counter* failoverTotal = nullptr;
    metrics::Counter* shardLostTotal = nullptr;
    std::vector<metrics::Counter*> shardQueriesTotal;
  };
  LiveInstruments live_;
};

}  // namespace cstf::serve
