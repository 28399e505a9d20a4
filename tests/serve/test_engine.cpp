// Query engine: point predictions bit-identical to the dense
// reconstruction oracle, batched == point, and top-k exact against a
// brute-force oracle — with pruning on or off, at any thread count, shard
// count and replication level, and every sharded layout bit-identical to
// the unsharded engine. Then the shard fabric: chained-declustering
// placement, census-driven hot-shard replication, replica failover after
// node loss, typed shedding when a shard has no replica left, and
// FaultPlan-driven deterministic kills at batch boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/metrics_registry.hpp"
#include "common/rng.hpp"
#include "serve/engine.hpp"
#include "tensor/reference_ops.hpp"

namespace cstf::serve {
namespace {

CpModel randomModel(std::vector<Index> dims, std::size_t rank,
                    std::uint64_t seed) {
  CpModel m;
  m.rank = rank;
  m.dims = std::move(dims);
  Pcg32 rng(seed);
  m.lambda.resize(rank);
  for (auto& l : m.lambda) l = rng.nextDouble(0.5, 2.0);
  for (const Index d : m.dims) {
    la::Matrix f(d, rank);
    for (std::size_t i = 0; i < f.rows(); ++i) {
      for (std::size_t r = 0; r < rank; ++r) f(i, r) = rng.nextGaussian();
    }
    m.factors.push_back(std::move(f));
  }
  return m;
}

/// Reference top-k: score every row of `mode` exactly the way the engine
/// does (lambda folded into mode 0, query vector built mode-ascending),
/// then sort by (score desc, index asc).
std::vector<TopKEntry> bruteForceTopK(const CpModel& model, ModeId mode,
                                      const std::vector<Index>& fixed,
                                      std::size_t k) {
  const std::size_t rank = model.rank;
  const ModeId order = static_cast<ModeId>(model.dims.size());
  auto foldedRow = [&](ModeId m, Index i, std::size_t r) {
    const double v = model.factors[m](i, r);
    return m == 0 ? model.lambda[r] * v : v;
  };
  std::vector<double> w(rank);
  bool first = true;
  for (ModeId m = 0; m < order; ++m) {
    if (m == mode) continue;
    for (std::size_t r = 0; r < rank; ++r) {
      w[r] = first ? foldedRow(m, fixed[m], r)
                   : w[r] * foldedRow(m, fixed[m], r);
    }
    first = false;
  }
  std::vector<TopKEntry> all(model.dims[mode]);
  for (Index i = 0; i < model.dims[mode]; ++i) {
    double s = 0.0;
    for (std::size_t r = 0; r < rank; ++r) s += w[r] * foldedRow(mode, i, r);
    all[i] = {i, s};
  }
  std::sort(all.begin(), all.end(), topKBetter);
  all.resize(std::min(k, all.size()));
  return all;
}

EngineOptions shardOpts(std::size_t shards, std::size_t replicas,
                        std::size_t threads = 2) {
  EngineOptions o;
  o.numShards = shards;
  o.numReplicas = replicas;
  o.backoffMicros = 0;
  o.threads = threads;
  o.liveMetrics = nullptr;
  return o;
}

/// Random (mode, fixed) probes with k in {1, 5, more than any mode's rows},
/// pruned and unpruned: every answer must equal the brute-force oracle
/// exactly — same indices, same scores, same order.
void expectOracle(const Engine& engine, const CpModel& model,
                  std::uint64_t seed) {
  Pcg32 rng(seed);
  const auto& dims = model.dims;
  for (ModeId mode = 0; mode < engine.order(); ++mode) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                                std::size_t{1000}}) {
      std::vector<Index> fixed(dims.size());
      for (ModeId m = 0; m < engine.order(); ++m) {
        fixed[m] = rng.nextBounded(dims[m]);
      }
      const std::vector<TopKEntry> want =
          bruteForceTopK(model, mode, fixed, k);
      for (const bool prune : {true, false}) {
        TopKOptions opts;
        opts.prune = prune;
        ASSERT_EQ(engine.topK(mode, fixed, k, opts).entries, want)
            << "mode " << int(mode) << " k " << k << " prune " << prune;
      }
    }
  }
}

TEST(Engine, PredictIsBitIdenticalToDenseReconstruction) {
  const CpModel model = randomModel({4, 3, 5}, 3, 17);
  const Engine engine(model, 1);
  const std::vector<double> dense =
      tensor::denseReconstruction(model.dims, model.factors, model.lambda);
  std::size_t cell = 0;
  for (Index i = 0; i < 4; ++i) {
    for (Index j = 0; j < 3; ++j) {
      for (Index k = 0; k < 5; ++k) {
        EXPECT_EQ(engine.predict({i, j, k}), dense[cell])
            << "(" << i << "," << j << "," << k << ")";
        ++cell;
      }
    }
  }
}

TEST(Engine, PredictBitIdenticalOnOrder4) {
  const CpModel model = randomModel({3, 4, 2, 5}, 4, 23);
  const Engine engine(model, 1);
  const std::vector<double> dense =
      tensor::denseReconstruction(model.dims, model.factors, model.lambda);
  std::size_t cell = 0;
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 4; ++j) {
      for (Index k = 0; k < 2; ++k) {
        for (Index l = 0; l < 5; ++l) {
          EXPECT_EQ(engine.predict({i, j, k, l}), dense[cell]);
          ++cell;
        }
      }
    }
  }
}

TEST(Engine, PredictBatchMatchesPointQueries) {
  const CpModel model = randomModel({40, 30, 20}, 4, 5);
  const Engine engine(model, 4);
  Pcg32 rng(99);
  std::vector<std::vector<Index>> queries(500);
  for (auto& q : queries) {
    q = {rng.nextBounded(40), rng.nextBounded(30), rng.nextBounded(20)};
  }
  const std::vector<double> batch = engine.predictBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch[i], engine.predict(queries[i])) << "query " << i;
  }
}

TEST(Engine, TopKMatchesBruteForceOnEveryMode) {
  const CpModel model = randomModel({60, 45, 30}, 5, 31);
  const Engine engine(model, 2);
  const std::vector<Index> fixed = {7, 11, 3};
  for (ModeId mode = 0; mode < 3; ++mode) {
    for (const std::size_t k : {std::size_t(1), std::size_t(5),
                                std::size_t(17)}) {
      const auto expect = bruteForceTopK(model, mode, fixed, k);
      const TopKResult got = engine.topK(mode, fixed, k);
      ASSERT_EQ(got.entries.size(), expect.size())
          << "mode " << int(mode) << " k " << k;
      for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(got.entries[i].index, expect[i].index)
            << "mode " << int(mode) << " k " << k << " pos " << i;
        EXPECT_EQ(got.entries[i].score, expect[i].score)
            << "mode " << int(mode) << " k " << k << " pos " << i;
      }
    }
  }
}

TEST(Engine, PruningNeverChangesTheAnswer) {
  const CpModel model = randomModel({512, 40, 24}, 6, 71);
  const Engine engine(model, 4);
  Pcg32 rng(8);
  TopKOptions pruned;
  pruned.prune = true;
  TopKOptions brute;
  brute.prune = false;
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<Index> fixed = {0, rng.nextBounded(40),
                                      rng.nextBounded(24)};
    const TopKResult a = engine.topK(0, fixed, 10, pruned);
    const TopKResult b = engine.topK(0, fixed, 10, brute);
    EXPECT_EQ(a.entries, b.entries) << "trial " << trial;
    // Brute force touches every row; pruning must never scan more.
    EXPECT_EQ(b.stats.rowsScanned, 512u);
    EXPECT_EQ(b.stats.rowsPruned, 0u);
    EXPECT_EQ(a.stats.rowsScanned + a.stats.rowsPruned, 512u);
    EXPECT_LE(a.stats.rowsScanned, b.stats.rowsScanned);
  }
}

TEST(Engine, PruningActuallyPrunesOnSkewedModels) {
  // Mode-0 rows with fast-decaying magnitude: the norm bound should cut
  // off most of the scan once the heap is full.
  CpModel model = randomModel({2000, 30, 30}, 4, 3);
  for (std::size_t i = 0; i < 2000; ++i) {
    const double scale = 1.0 / (1.0 + double(i));
    for (std::size_t r = 0; r < 4; ++r) model.factors[0](i, r) *= scale;
  }
  const Engine engine(model, 4);
  const TopKResult r = engine.topK(0, {0, 5, 9}, 10);
  EXPECT_EQ(r.entries.size(), 10u);
  EXPECT_GT(r.stats.rowsPruned, 1000u)
      << "scanned " << r.stats.rowsScanned;
  const auto expect = bruteForceTopK(model, 0, {0, 5, 9}, 10);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(r.entries[i].index, expect[i].index) << "pos " << i;
    EXPECT_EQ(r.entries[i].score, expect[i].score) << "pos " << i;
  }
}

TEST(Engine, EveryShardLayoutMatchesBruteForce) {
  // A 50-row model, and one with fewer rows than the largest shard count
  // (empty shards must still merge exactly).
  for (const CpModel& model :
       {randomModel({50, 20, 20}, 3, 42), randomModel({5, 4, 3}, 2, 7)}) {
    const std::vector<double> dense =
        tensor::denseReconstruction(model.dims, model.factors, model.lambda);
    for (const std::size_t shards : {1, 2, 3, 7}) {
      for (const std::size_t replicas : {1, 2}) {
        for (const std::size_t threads : {1, 2}) {
          const Engine engine(CpModel(model),
                              shardOpts(shards, replicas, threads));
          EXPECT_EQ(engine.numShards(), shards);
          SCOPED_TRACE(testing::Message()
                       << "dims[0] " << model.dims[0] << " shards " << shards
                       << " replicas " << replicas << " threads " << threads);
          expectOracle(engine, model, 100 + shards * 10 + replicas);
          // Point predictions gather rows across shards bit-identically.
          std::size_t cell = 0;
          for (Index i = 0; i < model.dims[0]; ++i) {
            for (Index j = 0; j < model.dims[1]; ++j) {
              for (Index l = 0; l < model.dims[2]; ++l) {
                ASSERT_EQ(engine.predict({i, j, l}), dense[cell++]);
              }
            }
          }
        }
      }
    }
  }
}

TEST(Engine, ResultIndependentOfThreadCount) {
  // The shards of one query are scanned on the pool and share one floor;
  // how many threads race on it must not change the answer.
  const CpModel model = randomModel({300, 25, 25}, 4, 13);
  const Engine one(model, 1);
  const Engine many(model, 8);
  const Engine shardedOne(CpModel(model), shardOpts(5, 1, 1));
  const Engine shardedMany(CpModel(model), shardOpts(5, 1, 8));
  for (ModeId mode = 0; mode < 3; ++mode) {
    const TopKResult a = one.topK(mode, {1, 2, 3}, 12);
    EXPECT_EQ(a.entries, many.topK(mode, {1, 2, 3}, 12).entries)
        << "mode " << int(mode);
    EXPECT_EQ(a.entries, shardedOne.topK(mode, {1, 2, 3}, 12).entries)
        << "mode " << int(mode);
    EXPECT_EQ(a.entries, shardedMany.topK(mode, {1, 2, 3}, 12).entries)
        << "mode " << int(mode);
  }
}

TEST(Engine, KLargerThanTheModeReturnsEveryRowSorted) {
  const CpModel model = randomModel({9, 8, 7}, 2, 41);
  const Engine engine(model, 2);
  const TopKResult r = engine.topK(0, {0, 4, 5}, 100);
  ASSERT_EQ(r.entries.size(), 9u);
  for (std::size_t i = 1; i < r.entries.size(); ++i) {
    EXPECT_GE(r.entries[i - 1].score, r.entries[i].score);
  }
}

TEST(Engine, ValidatesQueriesAndModels) {
  const CpModel model = randomModel({6, 5, 4}, 2, 1);
  const Engine engine(model, 1);
  EXPECT_THROW(engine.predict({0, 0}), Error);        // wrong arity
  EXPECT_THROW(engine.predict({6, 0, 0}), Error);     // out of range
  EXPECT_THROW(engine.topK(3, {0, 0, 0}, 5), Error);  // bad mode
  EXPECT_THROW(engine.topK(0, {0, 5, 0}, 5), Error);  // fixed out of range
  EXPECT_THROW(engine.topK(0, {0, 0, 0}, 0), Error);  // k == 0

  CpModel bad = randomModel({6, 5, 4}, 2, 1);
  bad.lambda[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Engine(bad, 1), Error);
  CpModel shortLambda = randomModel({6, 5, 4}, 2, 1);
  shortLambda.lambda.pop_back();
  EXPECT_THROW(Engine(shortLambda, 1), Error);
  EXPECT_THROW(Engine(CpModel(model), shardOpts(0, 1)), Error);
}

TEST(Engine, ExposesModelMetadata) {
  CpModel model = randomModel({6, 5, 4}, 2, 1);
  model.finalFit = 0.25;
  const Engine engine(model, 1);
  EXPECT_EQ(engine.order(), 3);
  EXPECT_EQ(engine.rank(), 2u);
  EXPECT_EQ(engine.dims(), (std::vector<Index>{6, 5, 4}));
  EXPECT_EQ(engine.lambda(), model.lambda);
  EXPECT_EQ(engine.finalFit(), 0.25);
}

/// Every (mode, fixed, k) probe of a sharded engine must come back
/// bit-identical to the unsharded one: same indices, same scores, same
/// order, with pruning on or off.
void expectParity(const Engine& single, const Engine& sharded,
                  std::uint64_t seed) {
  Pcg32 rng(seed);
  const auto& dims = single.dims();
  for (ModeId mode = 0; mode < single.order(); ++mode) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                                std::size_t{1000}}) {
      std::vector<Index> fixed(dims.size());
      for (ModeId m = 0; m < single.order(); ++m) {
        fixed[m] = rng.nextBounded(dims[m]);
      }
      const TopKResult a = single.topK(mode, fixed, k);
      const TopKResult b = sharded.topK(mode, fixed, k);
      ASSERT_EQ(a.entries, b.entries)
          << "mode " << int(mode) << " k " << k;
      TopKOptions noPrune;
      noPrune.prune = false;
      ASSERT_EQ(sharded.topK(mode, fixed, k, noPrune).entries, a.entries);
    }
  }
}

TEST(ShardedEngine, ScatterGatherMatchesSingleEngineBitForBit) {
  const CpModel model = randomModel({50, 20, 20}, 3, 42);
  const Engine single(CpModel(model), 2);
  ASSERT_EQ(single.numShards(), 1u);
  for (const std::size_t shards : {1, 2, 3, 7}) {
    for (const std::size_t replicas : {1, 2}) {
      const Engine sharded(CpModel(model), shardOpts(shards, replicas));
      EXPECT_EQ(sharded.numShards(), shards);
      expectParity(single, sharded, 100 + shards * 10 + replicas);
    }
  }
}

TEST(ShardedEngine, MoreShardsThanRowsStillMatches) {
  const CpModel model = randomModel({5, 4, 3}, 2, 7);
  const Engine single(CpModel(model), 1);
  const Engine sharded(CpModel(model), shardOpts(7, 2));
  expectParity(single, sharded, 9);
}

TEST(ShardedEngine, PredictMatchesSingleEngineBitForBit) {
  const CpModel model = randomModel({30, 10, 12}, 4, 11);
  const Engine single(CpModel(model), 1);
  const Engine sharded(CpModel(model), shardOpts(3, 1));
  Pcg32 rng(5);
  for (int i = 0; i < 50; ++i) {
    const std::vector<Index> q = {rng.nextBounded(30), rng.nextBounded(10),
                                  rng.nextBounded(12)};
    EXPECT_EQ(single.predict(q), sharded.predict(q));
  }
}

TEST(ShardedEngine, ChainedDeclusteringPlacesCopiesOnDistinctNodes) {
  const CpModel model = randomModel({40, 16, 16}, 2, 3);
  const Engine e(CpModel(model), shardOpts(4, 2));
  EXPECT_EQ(e.numNodes(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(e.nodeOfCopy(s, 0), int(s));
    EXPECT_EQ(e.nodeOfCopy(s, 1), int((s + 1) % 4));
  }
}

TEST(ShardedEngine, NodeLossFailsOverToReplicaWithIdenticalResults) {
  const CpModel model = randomModel({50, 20, 20}, 3, 21);
  metrics::Registry reg;
  EngineOptions o = shardOpts(4, 2);
  o.liveMetrics = &reg;
  const Engine sharded(CpModel(model), o);

  sharded.killNode(1);
  EXPECT_FALSE(sharded.nodeAlive(1));
  // Shard 1 lost its primary, shard 0 lost its chained second copy; every
  // query still answers exactly off the surviving replicas.
  expectOracle(sharded, model, 77);
  const EngineStats st = sharded.stats();
  EXPECT_GE(st.failovers, 1u);
  EXPECT_EQ(st.shedUnavailable, 0u);
  EXPECT_EQ(st.deadNodes, 1u);
  EXPECT_GE(reg.counter("serve_failover_total").value(), 1u);
  EXPECT_EQ(reg.gauge("serve_shards").value(), 4.0);
  EXPECT_EQ(reg.gauge("serve_nodes_dead").value(), 1.0);
}

TEST(ShardedEngine, UnreplicatedShardLossShedsWithTypedError) {
  // Two shards, and the unsharded engine: one shard on one node.
  const CpModel model = randomModel({50, 20, 20}, 3, 33);
  for (const std::size_t shards : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "shards " << shards);
    const Engine sharded(CpModel(model), shardOpts(shards, 1));
    sharded.killNode(0);
    const std::vector<Index> fixed = {0, 1, 1};
    EXPECT_THROW(sharded.topK(0, fixed, 5), ShedError);
    EXPECT_GE(sharded.stats().shedUnavailable, 1u);
    // Revival restores exact service.
    sharded.reviveNode(0);
    EXPECT_EQ(sharded.topK(0, fixed, 5).entries,
              bruteForceTopK(model, 0, fixed, 5));
  }
}

TEST(ShardedEngine, CensusHotRowsPromoteTheirShardToAnExtraReplica) {
  const CpModel model = randomModel({40, 16, 16}, 2, 13);
  EngineOptions o = shardOpts(4, 1);
  o.hotShardFactor = 2.0;
  // Mode-0 heavy hitters all land on shard 0 (rows = 0 mod 4); the other
  // shards see only background weight.
  o.loadHints.resize(3);
  o.loadHints[0] = {{0, 1000}, {4, 800}, {8, 600}};
  o.loadHints[1] = {{1, 50}, {2, 40}, {3, 30}};
  const Engine e(CpModel(model), o);
  EXPECT_EQ(e.replicasOf(0), 2u);
  EXPECT_EQ(e.replicasOf(1), 1u);
  EXPECT_EQ(e.replicasOf(2), 1u);
  EXPECT_EQ(e.replicasOf(3), 1u);
  const EngineStats st = e.stats();
  EXPECT_EQ(st.hotShards, 1u);
  EXPECT_EQ(st.totalReplicas, 5u);
  // The promoted shard now survives its primary's death.
  e.killNode(0);
  const std::vector<Index> fixed = {0, 1, 1};
  EXPECT_EQ(e.topK(1, fixed, 5).entries, bruteForceTopK(model, 1, fixed, 5));
}

TEST(ShardedEngine, FaultPlanKillsDeterministicallyAtBatchBoundaries) {
  const CpModel model = randomModel({50, 20, 20}, 3, 55);
  EngineOptions o = shardOpts(4, 2);
  o.faults.schedule = {{3, 1}};  // after batch 3, node 1 dies
  const Engine sharded(CpModel(model), o);

  for (std::uint64_t batch = 1; batch <= 5; ++batch) {
    sharded.noteBatchBoundary(batch);
    EXPECT_EQ(sharded.nodeAlive(1), batch < 3) << "batch " << batch;
  }
  EXPECT_EQ(sharded.stats().nodesKilled, 1u);
  // Replicated shards keep answering exactly after the planned loss.
  expectOracle(sharded, model, 99);
}

}  // namespace
}  // namespace cstf::serve
