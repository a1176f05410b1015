#include "disk/disk.h"

#include <gtest/gtest.h>

#include <list>
#include <map>

#include "common/rng.h"
#include "disk/page_cache.h"

namespace pvfsib::disk {
namespace {

TEST(Disk, SequentialAccessPaysNoSeek) {
  Stats stats;
  Disk d(DiskParams{}, &stats);
  d.read(0, kMiB);
  EXPECT_EQ(stats.get(stat::kDiskSeek), 0);
  d.read(kMiB, kMiB);  // head is already there
  EXPECT_EQ(stats.get(stat::kDiskSeek), 0);
  d.read(10 * kMiB, kMiB);  // jump
  EXPECT_EQ(stats.get(stat::kDiskSeek), 1);
  EXPECT_EQ(stats.get(stat::kDiskReadBytes), 3 * static_cast<i64>(kMiB));
}

TEST(Disk, SeekCostGrowsWithDistance) {
  DiskParams p;
  Stats stats;
  Disk d(p, &stats);
  d.read(0, kPageSize);
  const Duration near = d.read(2 * kMiB, kPageSize);
  Disk d2(p, &stats);
  d2.read(0, kPageSize);
  const Duration far = d2.read(20 * kGiB, kPageSize);
  EXPECT_LT(near, far);
}

TEST(Disk, LargeSequentialHitsAsymptote) {
  Disk d(DiskParams{}, nullptr);
  const u64 n = 256 * kMiB;
  const Duration t = d.write(0, n);
  EXPECT_NEAR(bandwidth_mib(n, t), 25.0, 1.5);  // Table 3 uncached write
  Disk d2(DiskParams{}, nullptr);
  const Duration tr = d2.read(0, n);
  EXPECT_NEAR(bandwidth_mib(n, tr), 20.0, 1.5);  // Table 3 uncached read
}

TEST(Disk, SmallAccessesAreMuchSlower) {
  Disk d(DiskParams{}, nullptr);
  const Duration t = d.read(0, 4 * kKiB);
  EXPECT_LT(bandwidth_mib(4 * kKiB, t), 5.0);
}

TEST(PageCache, InsertAndQuery) {
  DiskParams p;
  PageCache c(p);
  EXPECT_TRUE(c.insert(0, 4, 2, false).empty());
  EXPECT_TRUE(c.cached({0, 4}));
  EXPECT_TRUE(c.cached({0, 5}));
  EXPECT_FALSE(c.cached({0, 6}));
  EXPECT_FALSE(c.cached({1, 4}));  // different file

  const ExtentList r =
      c.cached_ranges(0, {3 * kPageSize, 4 * kPageSize});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], (Extent{4 * kPageSize, 2 * kPageSize}));
}

TEST(PageCache, CachedRangesClipsToWindow) {
  PageCache c(DiskParams{});
  c.insert(0, 0, 10, false);
  const ExtentList r = c.cached_ranges(0, {100, 50});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], (Extent{100, 50}));
}

TEST(PageCache, DirtyFlush) {
  PageCache c(DiskParams{});
  c.insert(0, 0, 2, true);
  c.insert(0, 2, 2, false);
  c.insert(0, 8, 1, true);
  const ExtentList dirty = c.flush_dirty(0);
  ASSERT_EQ(dirty.size(), 2u);
  EXPECT_EQ(dirty[0], (Extent{0, 2 * kPageSize}));
  EXPECT_EQ(dirty[1], (Extent{8 * kPageSize, kPageSize}));
  // Second flush finds nothing.
  EXPECT_TRUE(c.flush_dirty(0).empty());
}

TEST(PageCache, RewriteMarksDirtyAgain) {
  PageCache c(DiskParams{});
  c.insert(0, 0, 1, true);
  c.flush_dirty(0);
  c.insert(0, 0, 1, true);
  EXPECT_EQ(c.flush_dirty(0).size(), 1u);
}

TEST(PageCache, LruEvictionReturnsDirtyVictims) {
  DiskParams p;
  p.cache_capacity = 4 * kPageSize;
  PageCache c(p);
  c.insert(0, 0, 2, true);
  c.insert(0, 2, 2, false);
  // Inserting 2 more evicts the 2 oldest (dirty) pages.
  const std::vector<PageKey> evicted = c.insert(0, 4, 2, false);
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[0], (PageKey{0, 0}));
  EXPECT_EQ(evicted[1], (PageKey{0, 1}));
  EXPECT_FALSE(c.cached({0, 0}));
  EXPECT_TRUE(c.cached({0, 4}));
}

TEST(PageCache, TouchKeepsHotPagesResident) {
  DiskParams p;
  p.cache_capacity = 4 * kPageSize;
  PageCache c(p);
  c.insert(0, 0, 4, false);
  c.insert(0, 0, 1, false);  // touch page 0 -> most recent
  c.insert(0, 100, 1, false);
  EXPECT_TRUE(c.cached({0, 0}));
  EXPECT_FALSE(c.cached({0, 1}));  // was LRU
}

TEST(PageCache, DropFileDiscardsAndReportsDirty) {
  PageCache c(DiskParams{});
  c.insert(0, 0, 3, true);
  c.insert(1, 0, 3, false);
  const std::vector<PageKey> dirty = c.drop(0);
  EXPECT_EQ(dirty.size(), 3u);
  EXPECT_FALSE(c.cached({0, 0}));
  EXPECT_TRUE(c.cached({1, 0}));
  EXPECT_EQ(c.pages_cached(), 3u);
  c.drop_all();
  EXPECT_EQ(c.pages_cached(), 0u);
}

TEST(PageCache, EvictedDirtyPageIsNotFlushedAgain) {
  DiskParams p;
  p.cache_capacity = 2 * kPageSize;
  PageCache c(p);
  c.insert(0, 0, 1, true);
  c.insert(1, 0, 2, false);  // evicts file 0's dirty page (written back)
  EXPECT_TRUE(c.flush_dirty(0).empty());
  c.insert(0, 0, 1, false);  // re-read clean
  EXPECT_TRUE(c.flush_dirty(0).empty());
}

// The dirty-page index against a reference that keeps the dirty bit on every
// cached page and scans them all: random inserts, flushes and drops over a
// small cache must report the same dirty pages, in the same order.
TEST(PageCacheProperty, DirtyIndexMatchesFullScan) {
  struct Reference {
    u64 capacity;
    std::map<PageKey, bool> dirty;  // every cached page
    std::list<PageKey> lru;         // front = most recent

    std::vector<PageKey> insert(u32 f, u64 first, u64 n, bool d) {
      std::vector<PageKey> evicted;
      for (u64 pg = first; pg < first + n; ++pg) {
        const PageKey k{f, pg};
        if (auto it = dirty.find(k); it != dirty.end()) {
          it->second = it->second || d;
          lru.remove(k);
          lru.push_front(k);
          continue;
        }
        while (dirty.size() >= capacity && !lru.empty()) {
          const PageKey v = lru.back();
          if (dirty[v]) evicted.push_back(v);
          dirty.erase(v);
          lru.pop_back();
        }
        lru.push_front(k);
        dirty[k] = d;
      }
      return evicted;
    }
    ExtentList flush(u32 f) {
      ExtentList out;
      for (auto& [k, d] : dirty) {
        if (k.file == f && d) {
          out.push_back({k.page * kPageSize, kPageSize});
          d = false;
        }
      }
      return coalesce(out);
    }
    std::vector<PageKey> drop(u32 f) {
      std::vector<PageKey> out;
      for (auto it = dirty.begin(); it != dirty.end();) {
        if (it->first.file != f) {
          ++it;
          continue;
        }
        if (it->second) out.push_back(it->first);
        lru.remove(it->first);
        it = dirty.erase(it);
      }
      return out;
    }
  };

  Rng rng(2026);
  for (int trial = 0; trial < 20; ++trial) {
    DiskParams p;
    p.cache_capacity = rng.range(4, 40) * kPageSize;
    PageCache c(p);
    Reference ref{p.cache_capacity / kPageSize, {}, {}};
    for (int op = 0; op < 400; ++op) {
      const u32 f = static_cast<u32>(rng.below(3));
      const double pick = rng.uniform01();
      if (pick < 0.7) {
        const u64 first = rng.below(48);
        const u64 n = rng.range(1, 8);
        const bool d = rng.chance(0.5);
        ASSERT_EQ(c.insert(f, first, n, d), ref.insert(f, first, n, d));
      } else if (pick < 0.9) {
        ASSERT_EQ(c.flush_dirty(f), ref.flush(f));
      } else if (pick < 0.98) {
        ASSERT_EQ(c.drop(f), ref.drop(f));
      } else {
        std::vector<PageKey> all;
        for (u32 g = 0; g < 3; ++g) {
          const std::vector<PageKey> part = ref.drop(g);
          all.insert(all.end(), part.begin(), part.end());
        }
        ASSERT_EQ(c.drop_all(), all);
      }
      ASSERT_EQ(c.pages_cached(), ref.dirty.size());
    }
  }
}

}  // namespace
}  // namespace pvfsib::disk
