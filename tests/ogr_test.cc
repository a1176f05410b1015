#include "core/ogr.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pvfsib::core {
namespace {

class OgrTest : public ::testing::Test {
 protected:
  OgrTest() : hca_("c0", as_, RegParams{}, stats_), cache_(hca_) {}

  GroupRegistrar make(OgrConfig cfg = {}) {
    return GroupRegistrar(cache_, OsParams{}, cfg, stats_);
  }

  // Rows of a subarray: `rows` buffers of `row_bytes`, strided by
  // `stride_bytes` within one big allocation.
  MemSegmentList subarray_rows(u64 rows, u64 row_bytes, u64 stride_bytes) {
    const u64 base = as_.alloc(rows * stride_bytes);
    MemSegmentList segs;
    for (u64 r = 0; r < rows; ++r) {
      segs.push_back({base + r * stride_bytes, row_bytes});
    }
    return segs;
  }

  vmem::AddressSpace as_;
  Stats stats_;
  ib::Hca hca_;
  ib::MrCache cache_;
};

TEST_F(OgrTest, SubarrayRowsCollapseToOneGroup) {
  // 2048x2048 int array split 2x2: 1024 rows of 4 KiB strided 8 KiB.
  const MemSegmentList segs = subarray_rows(1024, 4 * kKiB, 8 * kKiB);
  GroupRegistrar ogr = make();
  // Hole between rows is 1 page; absorbing costs (0.77+0.23) us/page versus
  // 8.52 us for another op pair, so all rows group into one region.
  EXPECT_EQ(ogr.plan_groups(segs).size(), 1u);

  OgrOutcome out = ogr.acquire(segs);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.registrations, 1u);
  EXPECT_EQ(out.os_queries, 0u);
  EXPECT_EQ(out.sges.size(), segs.size());
  // SGEs preserve caller order and all carry the same group key.
  for (size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(out.sges[i].addr, segs[i].addr);
    EXPECT_EQ(out.sges[i].length, segs[i].length);
    EXPECT_EQ(out.sges[i].lkey, out.sges[0].lkey);
  }
  ogr.release(out);
}

TEST_F(OgrTest, LargeHolesSplitGroups) {
  // Two clusters of rows separated by a huge mapped gap: grouping keeps
  // them apart because pinning the gap costs more than a second op.
  MemSegmentList a = subarray_rows(4, kPageSize, 2 * kPageSize);
  const u64 gap = as_.alloc(64 * kMiB);  // mapped but unwanted
  (void)gap;
  MemSegmentList b = subarray_rows(4, kPageSize, 2 * kPageSize);
  MemSegmentList all = a;
  all.insert(all.end(), b.begin(), b.end());

  GroupRegistrar ogr = make();
  EXPECT_EQ(ogr.plan_groups(all).size(), 2u);
  OgrOutcome out = ogr.acquire(all);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.registrations, 2u);
  ogr.release(out);
}

TEST_F(OgrTest, UnmappedHoleTriggersOsQueryFallback) {
  // Many small buffers with unmapped holes between them: the optimistic
  // group registration fails, the registrar queries the OS and registers
  // exactly the mapped extents (Table 4's "OGR+Q" case).
  MemSegmentList segs;
  for (int i = 0; i < 64; ++i) {
    const u64 a = as_.alloc(kPageSize);
    segs.push_back({a, kPageSize});
    if (i % 4 == 3) as_.skip(kPageSize);  // unmapped hole every 4 buffers
  }
  GroupRegistrar ogr = make();
  OgrOutcome out = ogr.acquire(segs);
  ASSERT_TRUE(out.ok());
  EXPECT_GE(out.failed_attempts, 1u);
  EXPECT_GE(out.os_queries, 1u);
  // 16 mapped extents (one per cluster of 4 pages).
  EXPECT_EQ(out.registrations, 16u);
  // Every buffer still resolves to a covering MR.
  EXPECT_TRUE(hca_.validate_sges(out.sges).is_ok());
  ogr.release(out);
}

TEST_F(OgrTest, FewBuffersFallBackIndividually) {
  MemSegmentList segs;
  for (int i = 0; i < 3; ++i) {
    segs.push_back({as_.alloc(kPageSize), kPageSize});
    as_.skip(kPageSize);
  }
  GroupRegistrar ogr = make();
  OgrOutcome out = ogr.acquire(segs);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.os_queries, 0u);  // cheap path: registered as given
  EXPECT_EQ(out.registrations, 3u);
  ogr.release(out);
}

TEST_F(OgrTest, IndividualStrategyRegistersEachBuffer) {
  const MemSegmentList segs = subarray_rows(100, 4 * kKiB, 8 * kKiB);
  GroupRegistrar ogr = make();
  OgrOutcome out = ogr.acquire(segs, RegStrategy::kIndividual);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.registrations, 100u);
  // Cost is roughly the paper's 1020us-per-100-4kB-buffers figure (without
  // deregistration, which happens on cache eviction).
  EXPECT_GT(out.cost.as_us(), 500.0);
  ogr.release(out);
}

TEST_F(OgrTest, WholeRangeStrategyFailsOnUnmappedHoles) {
  MemSegmentList segs;
  segs.push_back({as_.alloc(kPageSize), kPageSize});
  as_.skip(4 * kPageSize);
  segs.push_back({as_.alloc(kPageSize), kPageSize});
  GroupRegistrar ogr = make();
  OgrOutcome out = ogr.acquire(segs, RegStrategy::kWholeRange);
  EXPECT_FALSE(out.ok());  // the naive scheme's documented flaw
  EXPECT_EQ(out.status.code(), ErrorCode::kPermissionDenied);
}

TEST_F(OgrTest, WarmCacheCostsNothing) {
  const MemSegmentList segs = subarray_rows(256, 4 * kKiB, 8 * kKiB);
  GroupRegistrar ogr = make();
  OgrOutcome cold = ogr.acquire(segs);
  ASSERT_TRUE(cold.ok());
  ogr.release(cold);
  OgrOutcome warm = ogr.acquire(segs);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.cost, Duration::zero());
  EXPECT_EQ(warm.registrations, 0u);
  EXPECT_EQ(warm.cache_hits, 1u);  // one group, one hit
  ogr.release(warm);
}

TEST_F(OgrTest, OgrBeatsIndividualOnCost) {
  const MemSegmentList segs = subarray_rows(2048, 2 * kKiB, 4 * kKiB);
  GroupRegistrar ogr = make();
  OgrOutcome grouped = ogr.acquire(segs);
  ASSERT_TRUE(grouped.ok());
  ogr.release(grouped);
  cache_.flush();
  OgrOutcome individual = ogr.acquire(segs, RegStrategy::kIndividual);
  ASSERT_TRUE(individual.ok());
  ogr.release(individual);
  // The paper's headline: grouping cuts registration cost dramatically.
  EXPECT_LT(grouped.cost.as_us() * 5, individual.cost.as_us());
}

TEST_F(OgrTest, ProcfsQueryCostsMore) {
  MemSegmentList segs;
  for (int i = 0; i < 32; ++i) {
    segs.push_back({as_.alloc(kPageSize), kPageSize});
    as_.skip(kPageSize);
  }
  OgrConfig fast;
  GroupRegistrar a = make(fast);
  OgrOutcome fast_out = a.acquire(segs);
  ASSERT_TRUE(fast_out.ok());
  a.release(fast_out);
  cache_.flush();
  OgrConfig slow;
  slow.query = HoleQuery::kProcfs;
  GroupRegistrar b = make(slow);
  OgrOutcome slow_out = b.acquire(segs);
  ASSERT_TRUE(slow_out.ok());
  b.release(slow_out);
  EXPECT_GT(slow_out.cost, fast_out.cost);
  // mincore walks a per-page bitmap: cheap on this small span, and always
  // cheaper than reading /proc.
  cache_.flush();
  OgrConfig mc;
  mc.query = HoleQuery::kMincore;
  GroupRegistrar m = make(mc);
  OgrOutcome mc_out = m.acquire(segs);
  ASSERT_TRUE(mc_out.ok());
  m.release(mc_out);
  EXPECT_LT(mc_out.cost, slow_out.cost);
  // Its per-page cost overtakes the kernel syscall on large spans.
  const OsParams os;
  EXPECT_GT(os.mincore_cost(pages_for(64 * kMiB)),
            os.holequery_cost(1000));
}

TEST_F(OgrTest, DeclaredAllocationPinsOneRegion) {
  // The application tells the library its buffers come from one array
  // (Section 4.2.1): a single registration, no grouping or optimism.
  const MemSegmentList segs = subarray_rows(512, 4 * kKiB, 8 * kKiB);
  const Extent alloc{page_floor(segs.front().addr), 512 * 8 * kKiB};
  GroupRegistrar ogr = make();
  OgrOutcome out = ogr.acquire_declared(segs, alloc);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.registrations, 1u);
  EXPECT_EQ(out.failed_attempts, 0u);
  for (size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(out.sges[i].addr, segs[i].addr);
    EXPECT_EQ(out.sges[i].lkey, out.sges[0].lkey);
  }
  EXPECT_TRUE(hca_.validate_sges(out.sges).is_ok());
  ogr.release(out);
}

TEST_F(OgrTest, DeclaredAllocationRejectsOutsideSegments) {
  const MemSegmentList segs = subarray_rows(4, kPageSize, 2 * kPageSize);
  // Declared region too small: last row is outside.
  const Extent alloc{segs.front().addr, 3 * 2 * kPageSize};
  GroupRegistrar ogr = make();
  OgrOutcome out = ogr.acquire_declared(segs, alloc);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status.code(), ErrorCode::kInvalidArgument);
}

TEST_F(OgrTest, DeclaredAllocationFailsOnUnmappedRegion) {
  MemSegmentList segs;
  segs.push_back({as_.alloc(kPageSize), kPageSize});
  as_.skip(2 * kPageSize);
  segs.push_back({as_.alloc(kPageSize), kPageSize});
  const Extent alloc = bounding_span(
      {Extent{segs[0].addr, segs[0].length},
       Extent{segs[1].addr, segs[1].length}});
  GroupRegistrar ogr = make();
  OgrOutcome out = ogr.acquire_declared(segs, alloc);
  // The declared allocation covers an unmapped hole: the lie is caught.
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status.code(), ErrorCode::kPermissionDenied);
}

TEST_F(OgrTest, EmptyInputRejected) {
  GroupRegistrar ogr = make();
  EXPECT_FALSE(ogr.acquire({}).ok());
}

// Property: for random buffer layouts (mapped and unmapped holes), acquire
// either fails cleanly or yields SGEs that validate, in input order.
TEST_F(OgrTest, RandomLayoutsAlwaysResolve) {
  Rng rng(77);
  for (int iter = 0; iter < 30; ++iter) {
    MemSegmentList segs;
    const int n = static_cast<int>(rng.range(1, 64));
    for (int i = 0; i < n; ++i) {
      const u64 len = rng.range(64, 4 * kPageSize);
      const u64 a = as_.alloc(len);
      segs.push_back({a, len});
      if (rng.chance(0.3)) as_.skip(rng.range(1, 8) * kPageSize);
    }
    // Shuffle to a non-sorted request order.
    for (size_t i = segs.size(); i > 1; --i) {
      std::swap(segs[i - 1], segs[rng.below(i)]);
    }
    GroupRegistrar ogr = make();
    OgrOutcome out = ogr.acquire(segs);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out.sges.size(), segs.size());
    for (size_t i = 0; i < segs.size(); ++i) {
      EXPECT_EQ(out.sges[i].addr, segs[i].addr);
      EXPECT_EQ(out.sges[i].length, segs[i].length);
    }
    EXPECT_TRUE(hca_.validate_sges(out.sges).is_ok());
    ogr.release(out);
    cache_.flush();
  }
}

}  // namespace
}  // namespace pvfsib::core
