#include "disk/disk.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <list>
#include <map>
#include <ostream>
#include <string>

#include "common/rng.h"
#include "disk/page_cache.h"

namespace pvfsib::disk {

// Readable PageKeys in failure messages (found by argument-dependent lookup).
void PrintTo(const PageKey& k, std::ostream* os) {
  *os << "{file " << k.file << ", page " << k.page << "}";
}

namespace {

TEST(Disk, SequentialAccessPaysNoSeek) {
  Stats stats;
  Disk d(DiskParams{}, stats);
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
  Disk d(p, stats);
  d.read(0, kPageSize);
  const Duration near = d.read(2 * kMiB, kPageSize);
  Disk d2(p, stats);
  d2.read(0, kPageSize);
  const Duration far = d2.read(20 * kGiB, kPageSize);
  EXPECT_LT(near, far);
}

TEST(Disk, LargeSequentialHitsAsymptote) {
  Stats stats;
  Disk d(DiskParams{}, stats);
  const u64 n = 256 * kMiB;
  const Duration t = d.write(0, n);
  EXPECT_NEAR(bandwidth_mib(n, t), 25.0, 1.5);  // Table 3 uncached write
  Disk d2(DiskParams{}, stats);
  const Duration tr = d2.read(0, n);
  EXPECT_NEAR(bandwidth_mib(n, tr), 20.0, 1.5);  // Table 3 uncached read
}

TEST(Disk, SmallAccessesAreMuchSlower) {
  Stats stats;
  Disk d(DiskParams{}, stats);
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

// The page cache against a reference built from node containers: every
// cached page in a map with its dirty bit, the LRU as a list, and every
// query answered by a full scan. Random inserts (some larger than the whole
// cache, so a call evicts pages it inserted itself), flushes, drops and
// re-inserts over pages up to 2^20 of several files must report the same
// evictions, dirty pages and cached ranges, in the same order, after every
// op. Replay a failing schedule with PVFS_PROPERTY_SEED=<seed>.
TEST(PageCacheProperty, DirtyIndexMatchesFullScan) {
  struct Reference {
    u64 capacity;
    std::map<PageKey, bool> pages;  // every cached page -> dirty
    std::list<PageKey> lru;         // front = most recent

    std::vector<PageKey> insert(u32 f, u64 first, u64 n, bool d) {
      std::vector<PageKey> evicted;
      for (u64 pg = first; pg < first + n; ++pg) {
        const PageKey k{f, pg};
        if (auto it = pages.find(k); it != pages.end()) {
          it->second = it->second || d;
          lru.remove(k);
          lru.push_front(k);
          continue;
        }
        while (pages.size() >= capacity && !lru.empty()) {
          const PageKey v = lru.back();
          if (pages[v]) evicted.push_back(v);
          pages.erase(v);
          lru.pop_back();
        }
        lru.push_front(k);
        pages[k] = d;
      }
      return evicted;
    }
    ExtentList flush(u32 f) {
      ExtentList out;
      for (auto& [k, d] : pages) {
        if (k.file == f && d) {
          out.push_back({k.page * kPageSize, kPageSize});
          d = false;
        }
      }
      return coalesce(out);
    }
    std::vector<PageKey> drop(u32 f) {
      std::vector<PageKey> out;
      for (auto it = pages.begin(); it != pages.end();) {
        if (it->first.file != f) {
          ++it;
          continue;
        }
        if (it->second) out.push_back(it->first);
        lru.remove(it->first);
        it = pages.erase(it);
      }
      return out;
    }
    ExtentList cached_ranges(u32 f, const Extent& w) const {
      ExtentList out;
      for (const auto& [k, d] : pages) {
        const Extent page{k.page * kPageSize, kPageSize};
        if (k.file != f || !page.overlaps(w)) continue;
        const u64 lo = std::max(w.offset, page.offset);
        out.push_back({lo, std::min(w.end(), page.end()) - lo});
      }
      return coalesce(out);
    }
  };

  u64 seed = 2026;
  if (const char* env = std::getenv("PVFS_PROPERTY_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  SCOPED_TRACE("PVFS_PROPERTY_SEED=" + std::to_string(seed));
  Rng rng(seed);

  // Files 0, 1, 2 and 4 take inserts; 3 and 5 are only ever queried.
  constexpr u32 kInserted[] = {0, 1, 2, 4};
  constexpr u32 kFileIds = 6;
  constexpr u64 kTopPage = u64{1} << 20;
  constexpr u64 kMaxCapacity = 40;
  constexpr u64 kMaxInsert = kMaxCapacity + 8;
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    DiskParams p;
    p.cache_capacity = rng.range(4, kMaxCapacity) * kPageSize;
    PageCache c(p);
    Reference ref{p.cache_capacity / kPageSize, {}, {}};
    // Hot regions: the file's start, a little way in, and in every fourth
    // trial the top, where an insert reaches page 2^20 - 1 (rarely, as each
    // visit after a drop grows a 4 MiB page table that drop then scans).
    const bool high = trial % 4 == 3;
    const u64 bases[] = {0, rng.range(64, 4096), kTopPage - 47 - kMaxInsert};
    auto near_base = [&] {
      return bases[high && rng.chance(0.1) ? 2 : rng.below(2)] +
             rng.below(48);
    };
    auto insert = [&](u32 f) {
      const u64 first = near_base();
      const u64 n = rng.chance(0.1) ? rng.range(ref.capacity + 1, kMaxInsert)
                                    : rng.range(1, 8);
      const bool d = rng.chance(0.5);
      ASSERT_EQ(c.insert(f, first, n, d), ref.insert(f, first, n, d));
    };

    for (int op = 0; op < 400; ++op) {
      const u32 f = kInserted[rng.below(4)];
      const double pick = rng.uniform01();
      if (pick < 0.7) {
        ASSERT_NO_FATAL_FAILURE(insert(f));
      } else if (pick < 0.9) {
        ASSERT_EQ(c.flush_dirty(f), ref.flush(f));
      } else if (pick < 0.98) {
        ASSERT_EQ(c.drop(f), ref.drop(f));
        ASSERT_NO_FATAL_FAILURE(insert(f));
      } else {
        std::vector<PageKey> all;
        for (u32 g = 0; g < kFileIds; ++g) {
          const std::vector<PageKey> part = ref.drop(g);
          all.insert(all.end(), part.begin(), part.end());
        }
        ASSERT_EQ(c.drop_all(), all);
        ASSERT_NO_FATAL_FAILURE(insert(f));
      }

      ASSERT_EQ(c.pages_cached(), ref.pages.size());
      for (const auto& [k, d] : ref.pages) ASSERT_TRUE(c.cached(k));
      for (int probe = 0; probe < 4; ++probe) {
        const PageKey k{static_cast<u32>(rng.below(kFileIds)), near_base()};
        ASSERT_EQ(c.cached(k), ref.pages.contains(k));
      }
      // Unaligned windows, on files never inserted too, and some starting
      // past the highest page any insert reaches.
      for (int q = 0; q < 3; ++q) {
        const u32 g = static_cast<u32>(rng.below(kFileIds));
        const u64 page = rng.chance(0.1) ? kTopPage + rng.below(64)
                                         : near_base();
        const Extent w{page * kPageSize + rng.below(kPageSize),
                       rng.range(1, 20 * kPageSize)};
        ASSERT_EQ(c.cached_ranges(g, w), ref.cached_ranges(g, w));
      }
    }
  }
}

}  // namespace
}  // namespace pvfsib::disk
