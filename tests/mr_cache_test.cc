#include "ib/mr_cache.h"

#include <gtest/gtest.h>

namespace pvfsib::ib {
namespace {

class MrCacheTest : public ::testing::Test {
 protected:
  MrCacheTest() : hca_("n0", as_, params(), stats_), cache_(hca_) {}

  static RegParams params() {
    RegParams p;
    p.cache_max_entries = 4;
    p.cache_max_bytes = 1 * kMiB;
    return p;
  }

  vmem::AddressSpace as_;
  Stats stats_;
  Hca hca_;
  MrCache cache_;
};

TEST_F(MrCacheTest, MissRegistersThenHits) {
  const u64 a = as_.alloc(8 * kPageSize);
  MrCache::Lookup first = cache_.acquire(a, 4 * kPageSize);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.hit);
  EXPECT_GT(first.cost, Duration::zero());

  MrCache::Lookup second = cache_.acquire(a, 4 * kPageSize);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(second.cost, Duration::zero());
  EXPECT_EQ(second.key, first.key);
  EXPECT_EQ(stats_.get(stat::kMrCacheHit), 1);
  EXPECT_EQ(stats_.get(stat::kMrCacheMiss), 1);
}

TEST_F(MrCacheTest, SubRangeHits) {
  const u64 a = as_.alloc(8 * kPageSize);
  MrCache::Lookup big = cache_.acquire(a, 8 * kPageSize);
  ASSERT_TRUE(big.ok());
  // Any range inside the cached MR is a hit on the same key.
  MrCache::Lookup sub = cache_.acquire(a + kPageSize + 17, 100);
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(sub.hit);
  EXPECT_EQ(sub.key, big.key);
}

TEST_F(MrCacheTest, DisjointRangesGetSeparateEntries) {
  const u64 a = as_.alloc(2 * kPageSize);
  as_.skip(64 * kPageSize);
  const u64 b = as_.alloc(2 * kPageSize);
  MrCache::Lookup la = cache_.acquire(a, kPageSize);
  MrCache::Lookup lb = cache_.acquire(b, kPageSize);
  ASSERT_TRUE(la.ok());
  ASSERT_TRUE(lb.ok());
  EXPECT_NE(la.key, lb.key);
  EXPECT_EQ(cache_.entries(), 2u);
}

TEST_F(MrCacheTest, FailurePropagatesWithCost) {
  const u64 a = as_.alloc(kPageSize);
  as_.skip(kPageSize);
  as_.alloc(kPageSize);
  MrCache::Lookup lk = cache_.acquire(a, 3 * kPageSize);
  EXPECT_FALSE(lk.ok());
  EXPECT_EQ(lk.status.code(), ErrorCode::kPermissionDenied);
  EXPECT_GT(lk.cost, Duration::zero());
  EXPECT_EQ(cache_.entries(), 0u);
}

TEST_F(MrCacheTest, LruEvictionOnEntryCount) {
  std::vector<u64> addrs;
  for (int i = 0; i < 6; ++i) {
    addrs.push_back(as_.alloc(kPageSize));
    as_.skip(16 * kPageSize);  // keep ranges non-mergeable
  }
  for (int i = 0; i < 6; ++i) {
    MrCache::Lookup lk = cache_.acquire(addrs[i], kPageSize);
    ASSERT_TRUE(lk.ok());
    cache_.release(lk.key);
  }
  // Capacity 4: the two oldest were evicted and deregistered.
  EXPECT_EQ(cache_.entries(), 4u);
  EXPECT_EQ(stats_.get(stat::kMrCacheEvict), 2);
  EXPECT_EQ(stats_.get(stat::kMrDeregister), 2);
  // Oldest entry misses again (registration thrashing).
  MrCache::Lookup again = cache_.acquire(addrs[0], kPageSize);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.hit);
}

TEST_F(MrCacheTest, PinnedEntriesAreNotEvicted) {
  std::vector<MrCache::Lookup> held;
  for (int i = 0; i < 6; ++i) {
    const u64 a = as_.alloc(kPageSize);
    as_.skip(16 * kPageSize);
    MrCache::Lookup lk = cache_.acquire(a, kPageSize);
    ASSERT_TRUE(lk.ok());
    held.push_back(lk);  // never released
  }
  // Soft limit: all six stay because every entry is referenced.
  EXPECT_EQ(cache_.entries(), 6u);
  EXPECT_EQ(stats_.get(stat::kMrCacheEvict), 0);
}

TEST_F(MrCacheTest, FlushDeregistersZeroRefEntries) {
  const u64 a = as_.alloc(4 * kPageSize);
  MrCache::Lookup lk = cache_.acquire(a, 2 * kPageSize);
  ASSERT_TRUE(lk.ok());
  // Still referenced: flush keeps it.
  EXPECT_EQ(cache_.flush(), Duration::zero());
  EXPECT_EQ(cache_.entries(), 1u);
  cache_.release(lk.key);
  const Duration cost = cache_.flush();
  EXPECT_GT(cost, Duration::zero());
  EXPECT_EQ(cache_.entries(), 0u);
  EXPECT_EQ(hca_.regions_live(), 0u);
}

TEST_F(MrCacheTest, AdoptExternalRegistration) {
  const u64 a = as_.alloc(4 * kPageSize);
  RegAttempt reg = hca_.register_memory(a, 4 * kPageSize);
  ASSERT_TRUE(reg.ok());
  cache_.adopt(reg.key);
  MrCache::Lookup lk = cache_.acquire(a + 8, 100);
  ASSERT_TRUE(lk.ok());
  EXPECT_TRUE(lk.hit);
  EXPECT_EQ(lk.key, reg.key);
}

TEST_F(MrCacheTest, ByteCapacityEviction) {
  // 1 MiB byte capacity = 256 pages; a 200-page entry plus a 100-page entry
  // exceeds it and evicts the first.
  const u64 a = as_.alloc(200 * kPageSize);
  as_.skip(8 * kPageSize);
  const u64 b = as_.alloc(100 * kPageSize);
  MrCache::Lookup la = cache_.acquire(a, 200 * kPageSize);
  ASSERT_TRUE(la.ok());
  cache_.release(la.key);
  MrCache::Lookup lb = cache_.acquire(b, 100 * kPageSize);
  ASSERT_TRUE(lb.ok());
  EXPECT_EQ(cache_.entries(), 1u);
  EXPECT_LE(cache_.pinned_bytes(), 1 * kMiB);
}

}  // namespace
}  // namespace pvfsib::ib
