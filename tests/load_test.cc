// The closed-loop load-generation subsystem: generator statistics, seeded
// end-to-end determinism, and namespace consistency after churn.
#include "load/load_engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "load/workload.h"
#include "pvfs/cluster.h"

namespace pvfsib::load {
namespace {

// Small but real run: every op kind, list + contig I/O, two iods, churn.
LoadConfig small_config(u64 seed = 7) {
  LoadConfig lc;
  lc.seed = seed;
  lc.population = 6;
  lc.file_bytes = 64 * kKiB;
  lc.io_min_bytes = 4 * kKiB;
  lc.io_max_bytes = 16 * kKiB;
  lc.ramp = Duration::ms(2.0);
  lc.measure = Duration::ms(20.0);
  lc.start_jitter = Duration::ms(1.0);
  lc.interval = Duration::ms(5.0);
  return lc;
}

pvfs::Cluster make_cluster(u32 clients) {
  return pvfs::Cluster(ModelConfig::paper_defaults(),
                       pvfs::Cluster::Topology{}.clients(clients).iods(2));
}

// --- generators ---------------------------------------------------------

TEST(ZipfGenerator, DeterministicGivenSeed) {
  ZipfGenerator z(100, 0.99);
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(z.sample(a), z.sample(b));
}

TEST(ZipfGenerator, SkewsTowardLowRanks) {
  ZipfGenerator z(100, 0.99);
  Rng rng(1);
  std::vector<u32> hits(100, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++hits[z.sample(rng)];
  // Rank 0 carries ~1/H_100 ~ 19% of the mass at theta=0.99; uniform would
  // be 1%. It must dominate rank 50 by a wide margin.
  EXPECT_GT(hits[0], n / 10);
  EXPECT_GT(hits[0], hits[50] * 5);
  // Every rank is reachable in a long enough run.
  u32 zero_ranks = 0;
  for (u32 h : hits) zero_ranks += h == 0 ? 1 : 0;
  EXPECT_EQ(zero_ranks, 0u);
}

TEST(ZipfGenerator, ThetaZeroIsUniform) {
  ZipfGenerator z(10, 0.0);
  Rng rng(3);
  std::vector<u32> hits(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++hits[z.sample(rng)];
  for (u32 h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / n, 0.1, 0.01);
  }
}

TEST(OpMixSampler, TracksConfiguredWeights) {
  OpMix mix;  // 40/25/15/10/10
  OpMixSampler sampler(mix);
  Rng rng(5);
  std::vector<u32> hits(kOpKinds, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++hits[static_cast<u32>(sampler.sample(rng))];
  EXPECT_NEAR(hits[static_cast<u32>(OpKind::kRead)] / double(n), 0.40, 0.01);
  EXPECT_NEAR(hits[static_cast<u32>(OpKind::kWrite)] / double(n), 0.25, 0.01);
  EXPECT_NEAR(hits[static_cast<u32>(OpKind::kOpen)] / double(n), 0.15, 0.01);
  EXPECT_NEAR(hits[static_cast<u32>(OpKind::kStat)] / double(n), 0.10, 0.01);
  EXPECT_NEAR(hits[static_cast<u32>(OpKind::kChurn)] / double(n), 0.10, 0.01);
}

TEST(OpMixSampler, ZeroWeightNeverSampled) {
  OpMix mix;
  mix.churn = 0.0;
  mix.write = 0.0;
  OpMixSampler sampler(mix);
  Rng rng(9);
  for (int i = 0; i < 50000; ++i) {
    const OpKind k = sampler.sample(rng);
    EXPECT_NE(k, OpKind::kChurn);
    EXPECT_NE(k, OpKind::kWrite);
  }
}

TEST(JainFairness, KnownValues) {
  EXPECT_DOUBLE_EQ(jain_fairness({10, 10, 10, 10}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({1, 0, 0, 0}), 0.25);
  EXPECT_EQ(jain_fairness({0, 0}), 0.0);
  EXPECT_EQ(jain_fairness({}), 0.0);
}

// --- end-to-end runs ----------------------------------------------------

TEST(LoadEngine, SummarySanity) {
  pvfs::Cluster cluster = make_cluster(4);
  LoadEngine engine(cluster, small_config());
  const LoadSummary s = engine.run();

  EXPECT_TRUE(s.ok);
  EXPECT_EQ(s.clients, 4u);
  EXPECT_GT(s.ops, 0u);
  EXPECT_GT(s.data_ops, 0u);
  EXPECT_GT(s.meta_ops, 0u);
  EXPECT_GT(s.bytes, 0u);
  EXPECT_EQ(s.ops, s.data_ops + s.meta_ops);
  EXPECT_EQ(s.latency.count(), s.ops);
  EXPECT_EQ(s.data_latency.count() + s.meta_latency.count(), s.ops);
  EXPECT_GT(s.ops_per_s, 0.0);
  EXPECT_GT(s.mib_per_s, 0.0);
  EXPECT_GT(s.fairness, 0.5);  // closed loop: no client starves
  EXPECT_LE(s.fairness, 1.0);
  ASSERT_EQ(s.per_client_ops.size(), 4u);
  u64 total = 0;
  for (u64 c : s.per_client_ops) total += c;
  EXPECT_EQ(total, s.ops);
  // Tail ordering.
  EXPECT_LE(s.latency.quantile(0.50), s.latency.quantile(0.99));
  EXPECT_LE(s.latency.quantile(0.99), s.latency.quantile(0.999));
  // Interval windows cover ramp + measure and saw traffic.
  ASSERT_FALSE(s.intervals.empty());
  u64 interval_ops = 0, interval_reqs = 0;
  for (const auto& w : s.intervals) {
    EXPECT_LT(w.start_ms, w.end_ms);
    interval_ops += w.ops;
    interval_reqs += w.pvfs_requests;
  }
  EXPECT_GT(interval_ops, 0u);
  EXPECT_GT(interval_reqs, 0u);
}

TEST(LoadEngine, SeededRunsAreBitIdentical) {
  // Two fresh clusters, same topology, same seed: the whole measurement
  // plane (counts, every quantile, per-client shares, per-window counters)
  // must serialize identically.
  pvfs::Cluster c1 = make_cluster(3);
  pvfs::Cluster c2 = make_cluster(3);
  LoadEngine e1(c1, small_config(123));
  LoadEngine e2(c2, small_config(123));
  const std::string f1 = e1.run().fingerprint();
  const std::string f2 = e2.run().fingerprint();
  EXPECT_EQ(f1, f2);
  EXPECT_FALSE(f1.empty());
}

TEST(LoadEngine, DifferentSeedsDiverge) {
  pvfs::Cluster c1 = make_cluster(3);
  pvfs::Cluster c2 = make_cluster(3);
  LoadEngine e1(c1, small_config(1));
  LoadEngine e2(c2, small_config(2));
  EXPECT_NE(e1.run().fingerprint(), e2.run().fingerprint());
}

TEST(LoadEngine, InertFaultPlaneLeavesReplicatedRunsUnchanged) {
  // A fault plane that injects nothing must not change a run. Factor-2
  // reads that race writes to the same stripes are the case that matters:
  // a write acked between the iod serving a read and the read's finish
  // must not make the serving replica look like it lost that write.
  LoadConfig lc;
  lc.population = 2;
  lc.mix = OpMix{0.5, 0.5, 0.0, 0.0, 0.0};
  lc.ramp = Duration::ms(5.0);
  lc.measure = Duration::ms(30.0);
  const auto run = [&lc](bool inert_plane, i64* detected) {
    ModelConfig cfg = ModelConfig::paper_defaults();
    cfg.replication.factor = 2;
    if (inert_plane) {
      // A degrade by 1.0 turns the plane on and slows nothing.
      cfg.fault.disk_degrade.push_back({/*iod=*/0, /*factor=*/1.0});
    }
    pvfs::Cluster cluster(cfg,
                          pvfs::Cluster::Topology{}.clients(8).iods(4));
    LoadEngine engine(cluster, lc);
    const std::string f = engine.run().fingerprint();
    *detected = cluster.stats().get(stat::kPvfsCorruptionsDetected);
    return f;
  };
  for (u64 seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    lc.seed = seed;
    i64 detected_off = 0;
    i64 detected_on = 0;
    const std::string off = run(false, &detected_off);
    const std::string on = run(true, &detected_on);
    EXPECT_EQ(off, on);
    EXPECT_EQ(detected_off, 0);
    EXPECT_EQ(detected_on, 0);
  }
}

TEST(LoadEngine, ChurnNamespaceConsistency) {
  LoadConfig lc = small_config(31);
  lc.mix.churn = 0.4;  // plenty of create/remove traffic
  pvfs::Cluster cluster = make_cluster(4);
  LoadEngine engine(cluster, lc);
  const LoadSummary s = engine.run();
  EXPECT_TRUE(s.ok);

  pvfs::Client& probe = cluster.client(0);
  // Every churn file created and not removed must still open.
  EXPECT_FALSE(engine.live_churn_files().empty());
  for (const std::string& name : engine.live_churn_files()) {
    EXPECT_TRUE(probe.open(name).is_ok()) << name;
  }
  // Every acked remove must have actually removed the name.
  EXPECT_FALSE(engine.removed_churn_files().empty());
  for (const std::string& name : engine.removed_churn_files()) {
    EXPECT_FALSE(probe.open(name).is_ok()) << name;
  }
  // The shared population survives churn untouched.
  for (const std::string& name : engine.population_files()) {
    EXPECT_TRUE(probe.open(name).is_ok()) << name;
  }
}

}  // namespace
}  // namespace pvfsib::load
