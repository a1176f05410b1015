#include "disk/local_fs.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pvfsib::disk {
namespace {

std::vector<std::byte> pattern(u64 n, u8 seed = 1) {
  std::vector<std::byte> v(n);
  for (u64 i = 0; i < n; ++i) v[i] = std::byte{static_cast<u8>(seed + i * 7)};
  return v;
}

class LocalFsTest : public ::testing::Test {
 protected:
  LocalFsTest() : fs_("iod0", DiskParams{}, FsParams{}, stats_) {}
  Stats stats_;
  LocalFs fs_;
};

TEST_F(LocalFsTest, CreateOpenExists) {
  ASSERT_TRUE(fs_.create("/data/f0").is_ok());
  EXPECT_TRUE(fs_.exists("/data/f0"));
  EXPECT_FALSE(fs_.exists("/data/f1"));
  EXPECT_FALSE(fs_.create("/data/f0").is_ok());  // duplicate
  Result<u32> fd = fs_.open("/data/f0");
  ASSERT_TRUE(fd.is_ok());
  EXPECT_FALSE(fs_.open("/data/nope").is_ok());
}

TEST_F(LocalFsTest, WriteThenReadRoundTrips) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  const auto data = pattern(10000);
  Timed<u64> w = f.pwrite(100, data);
  EXPECT_EQ(w.value, 10000u);
  EXPECT_EQ(f.size(), 10100u);
  std::vector<std::byte> back(10000);
  Timed<u64> r = f.pread(100, back);
  EXPECT_EQ(r.value, 10000u);
  EXPECT_EQ(back, data);
}

TEST_F(LocalFsTest, ShortReadAtEof) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  f.pwrite(0, pattern(100));
  std::vector<std::byte> buf(200);
  EXPECT_EQ(f.pread(0, buf).value, 100u);
  EXPECT_EQ(f.pread(100, buf).value, 0u);
  EXPECT_EQ(f.pread(500, buf).value, 0u);
}

TEST_F(LocalFsTest, SparseGapReadsZero) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  f.pwrite(10000, pattern(10));
  std::vector<std::byte> buf(100);
  EXPECT_EQ(f.pread(0, buf).value, 100u);
  for (auto b : buf) EXPECT_EQ(b, std::byte{0});
}

TEST_F(LocalFsTest, CachedReadIsFastUncachedSlow) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  const u64 n = 4 * kMiB;
  f.pwrite(0, pattern(n));
  std::vector<std::byte> buf(n);
  // Pages are cached (dirty) right after the write: read is cache-speed.
  const Duration warm = f.pread(0, buf).cost;
  EXPECT_NEAR(bandwidth_mib(n, warm), 1391.0, 150.0);
  // Flush + drop: read now comes from media at uncached speed.
  fs_.drop_caches();
  const Duration cold = f.pread(0, buf).cost;
  EXPECT_LT(bandwidth_mib(n, cold), 25.0);
  // And it is cached again afterwards.
  const Duration rewarm = f.pread(0, buf).cost;
  EXPECT_NEAR(bandwidth_mib(n, rewarm), 1391.0, 150.0);
}

TEST_F(LocalFsTest, WriteBackOnlyOnFsync) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  const u64 n = 8 * kMiB;
  // Cached write is fast (Table 3: 303 MB/s).
  const Duration w = f.pwrite(0, pattern(n)).cost;
  EXPECT_NEAR(bandwidth_mib(n, w), 303.0, 30.0);
  // fsync pays the media write (~25 MB/s).
  const Duration s = f.fsync();
  EXPECT_NEAR(bandwidth_mib(n, s), 25.0, 3.0);
  // Second fsync is free: nothing dirty.
  EXPECT_LT(f.fsync().as_us(), 25.0);  // just the syscall, nothing dirty
}

TEST_F(LocalFsTest, DirectIoBypassesCache) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  const u64 n = 4 * kMiB;
  const Duration w = f.pwrite(0, pattern(n), {.direct = true}).cost;
  EXPECT_LT(bandwidth_mib(n, w), 27.0);
  // Nothing to sync.
  EXPECT_LT(f.fsync().as_us(), 25.0);  // just the syscall, nothing dirty
  std::vector<std::byte> buf(n);
  const Duration r = f.pread(0, buf, {.direct = true}).cost;
  EXPECT_LT(bandwidth_mib(n, r), 22.0);
}

TEST_F(LocalFsTest, SeekSyscallChargedOnNonSequentialAccess) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  f.pwrite(0, pattern(64 * kKiB));
  EXPECT_EQ(stats_.get(stat::kFsLseek), 0);  // first write at position 0
  std::vector<std::byte> buf(100);
  f.pread(0, buf);  // pos was 64K, now seeks to 0
  EXPECT_EQ(stats_.get(stat::kFsLseek), 1);
  f.pread(100, buf);  // sequential: no seek
  EXPECT_EQ(stats_.get(stat::kFsLseek), 1);
  f.pread(10000, buf);
  EXPECT_EQ(stats_.get(stat::kFsLseek), 2);
}

TEST_F(LocalFsTest, AccessCountsTracked) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  for (int i = 0; i < 5; ++i) f.pwrite(i * 1000, pattern(100));
  std::vector<std::byte> buf(100);
  for (int i = 0; i < 3; ++i) f.pread(i * 1000, buf);
  EXPECT_EQ(stats_.get(stat::kDiskWrite), 5);
  EXPECT_EQ(stats_.get(stat::kDiskRead), 3);
}

TEST_F(LocalFsTest, RangeLocks) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  auto a = f.lock_range({100, 100});
  ASSERT_TRUE(a.is_ok());
  EXPECT_GT(a.value().cost.as_us(), 0.0);
  EXPECT_TRUE(f.range_locked({150, 10}));
  EXPECT_FALSE(f.range_locked({200, 10}));
  // Overlapping lock conflicts; disjoint one succeeds.
  EXPECT_FALSE(f.lock_range({150, 100}).is_ok());
  auto b = f.lock_range({200, 50});
  ASSERT_TRUE(b.is_ok());
  // Releasing the first makes its range available again.
  EXPECT_GT(f.unlock_range(a.value().id).as_us(), 0.0);
  EXPECT_FALSE(f.range_locked({100, 100}));
  EXPECT_TRUE(f.lock_range({100, 100}).is_ok());
  EXPECT_FALSE(f.lock_range({0, 0}).is_ok());  // empty range rejected
}

TEST_F(LocalFsTest, PurgeReleasesDataAndCache) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  f.pwrite(0, pattern(64 * kKiB));
  ASSERT_GT(fs_.cache().pages_cached(), 0u);
  f.purge();
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(fs_.cache().pages_cached(), 0u);
  std::vector<std::byte> buf(100);
  EXPECT_EQ(f.pread(0, buf).value, 0u);
}

TEST_F(LocalFsTest, PurgeFreesThePathForANewFile) {
  const u32 fd = fs_.create("/pvfs/h7").value();
  fs_.file(fd).pwrite(0, pattern(100));
  fs_.file(fd).purge();
  EXPECT_FALSE(fs_.exists("/pvfs/h7"));
  EXPECT_FALSE(fs_.open("/pvfs/h7").is_ok());
  // A new file takes the next fd (and platter position); the purged one
  // keeps its own.
  Result<u32> again = fs_.create("/pvfs/h7");
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value(), fd + 1);
  EXPECT_EQ(fs_.open("/pvfs/h7").value(), fd + 1);
  EXPECT_EQ(fs_.file(fd + 1).size(), 0u);
  // Purging the old file again leaves the new one's name alone.
  fs_.file(fd).purge();
  EXPECT_TRUE(fs_.exists("/pvfs/h7"));
}

// Stamps are lazy and only a corruption forces a hash: a stamped block a
// corruption touched fails verify until its bytes are restored or it is
// restamped; unstamped blocks are trusted; purge drops the table.
TEST_F(LocalFsTest, BlockChecksumsCatchCorruptionBehindAStamp) {
  LocalFile& f = fs_.file(fs_.create("f").value());
  f.pwrite(0, pattern(40 * kKiB));  // blocks 0-2, the last one short
  f.corrupt({100, 1}, std::byte{0x01});
  EXPECT_TRUE(f.verify({{0, 40 * kKiB}}));  // nothing stamped yet

  f.stamp({{0, 40 * kKiB}});
  EXPECT_TRUE(f.verify({{0, 40 * kKiB}}));
  f.corrupt({100, 1}, std::byte{0x01});
  EXPECT_FALSE(f.verify({{0, 10}}));
  EXPECT_TRUE(f.verify({{16 * kKiB, 16 * kKiB}}));  // other blocks intact
  f.corrupt({100, 1}, std::byte{0x01});             // restored
  EXPECT_TRUE(f.verify({{0, 40 * kKiB}}));

  // A corruption spanning blocks, then a restamp of the first block only.
  f.corrupt({16 * kKiB - 2, 4}, std::byte{0x80});
  EXPECT_FALSE(f.verify({{0, 1}}));
  EXPECT_FALSE(f.verify({{16 * kKiB, 1}}));
  f.stamp({{5, 1}});
  EXPECT_TRUE(f.verify({{0, 1}}));
  EXPECT_FALSE(f.verify({{0, 40 * kKiB}}));
  // Corruption past EOF is clipped away.
  f.corrupt({40 * kKiB, 100}, std::byte{0xff});
  EXPECT_EQ(f.size(), 40 * kKiB);

  f.purge();
  f.pwrite(0, pattern(40 * kKiB));
  f.corrupt({16 * kKiB, 1}, std::byte{0x01});
  EXPECT_TRUE(f.verify({{0, 40 * kKiB}}));  // the old stamps went too
}

// Two file systems built the same way: a page cache small enough to evict,
// and a file of [0, 40 KiB) and [200 KiB, 230 KiB) with a hole between,
// fsynced, then partly re-read into the cache.
void make_sparse_file(LocalFs& fs) {
  LocalFile& f = fs.file(fs.create("f").value());
  f.pwrite(0, pattern(40 * kKiB, 3));
  f.pwrite(200 * kKiB, pattern(30 * kKiB, 4));  // EOF at 230 KiB
  f.fsync();
  std::vector<std::byte> buf(12 * kKiB);
  f.pread(4 * kKiB, buf);  // part of the file cached
}

DiskParams small_cache() {
  DiskParams dp;
  dp.cache_capacity = 24 * kPageSize;
  return dp;
}

// read_modify_write charges exactly what pread(window) followed by
// pwrite(window) charges for each window of a round in turn, and leaves
// the same bytes, while only the patched pieces are copied. Checked on two
// identical file systems for one round whose windows lie inside the file,
// over a hole and across EOF (so the last one grows the file), with and
// without O_DIRECT. The 128 KiB of patches reach
// ByteMover::kParallelMinBytes.
TEST(LocalFsRmw, MatchesPreadThenPwrite) {
  for (const bool direct : {false, true}) {
    SCOPED_TRACE(direct ? "direct" : "cached");
    Stats sa;
    Stats sb;
    LocalFs a("a", small_cache(), FsParams{}, sa);
    LocalFs b("b", small_cache(), FsParams{}, sb);
    make_sparse_file(a);
    make_sparse_file(b);
    LocalFile& fa = a.file(0);
    LocalFile& fb = b.file(0);
    const IoOpts io{.direct = direct};
    const Extent windows[] = {
        {3 * kKiB + 100, 34 * kKiB},  // inside the file
        {60 * kKiB, 100 * kKiB},      // over the hole
        {220 * kKiB + 7, 40 * kKiB},  // across EOF
    };
    // 16 KiB pieces at these window offsets, from one packed stream.
    constexpr u64 kPiece = 16 * kKiB;
    const std::vector<u64> piece_at[] = {
        {0, 18 * kKiB}, {0, 28 * kKiB, 56 * kKiB, 84 * kKiB}, {0, 24 * kKiB}};
    const std::vector<std::byte> stream = pattern(8 * kPiece, 9);
    std::vector<LocalFile::Patch> patches;
    for (size_t i = 0; i < std::size(windows); ++i) {
      for (const u64 at : piece_at[i]) {
        patches.push_back(
            {windows[i].offset + at,
             std::span(stream).subspan(patches.size() * kPiece, kPiece)});
      }
    }
    ASSERT_EQ(patches.size() * kPiece, ByteMover::kParallelMinBytes);

    Duration want = Duration::zero();
    for (const Extent& w : windows) {
      std::vector<std::byte> buf(w.length);
      Timed<u64> rd = fa.pread(w.offset, buf, io);
      std::fill(buf.begin() + rd.value, buf.end(), std::byte{0});
      for (const LocalFile::Patch& p : patches) {
        if (w.contains(Extent{p.offset, p.bytes.size()})) {
          std::ranges::copy(p.bytes, buf.begin() + (p.offset - w.offset));
        }
      }
      want += rd.cost + fa.pwrite(w.offset, buf, io).cost;
    }

    EXPECT_EQ(fb.read_modify_write(windows, patches, io), want);
    EXPECT_EQ(sb.counters(), sa.counters());
    EXPECT_EQ(fb.size(), 260 * kKiB + 7);
    EXPECT_EQ(fb.size(), fa.size());
    EXPECT_TRUE(std::ranges::equal(fb.contents(), fa.contents()));
    EXPECT_GT(sa.get("fs.lseek"), 0);
    EXPECT_EQ(b.cache().flush_dirty(0), a.cache().flush_dirty(0));
  }
}

// read_view charges each access exactly as one pread does, and its view
// holds the bytes that pread copies out, short at EOF. Checked on two
// identical file systems for accesses inside the file, over a hole, across
// EOF and overlapping another access's file range, with and without
// O_DIRECT: the views, read in order with zeros past EOF, give the stream
// that one pread per access gives.
TEST(LocalFsReadView, MatchesOnePreadPerAccess) {
  for (const bool direct : {false, true}) {
    SCOPED_TRACE(direct ? "direct" : "cached");
    Stats sa;
    Stats sb;
    LocalFs a("a", small_cache(), FsParams{}, sa);
    LocalFs b("b", small_cache(), FsParams{}, sb);
    make_sparse_file(a);
    make_sparse_file(b);
    LocalFile& fa = a.file(0);
    LocalFile& fb = b.file(0);
    const IoOpts io{.direct = direct};
    const ExtentList accesses = {
        {3 * kKiB + 100, 30 * kKiB},  // inside the file
        {60 * kKiB, 100 * kKiB},      // over the hole
        {220 * kKiB + 7, 40 * kKiB},  // across EOF
        {10 * kKiB, 8 * kKiB},        // overlaps the first access
    };
    const u64 total = total_length(accesses);

    std::vector<std::byte> want(total, std::byte{0x5a});
    Timed<u64> want_rd{0, Duration::zero()};
    u64 at = 0;
    for (const Extent& x : accesses) {
      const std::span<std::byte> piece = std::span(want).subspan(at, x.length);
      const Timed<u64> rd = fa.pread(x.offset, piece, io);
      std::fill(piece.begin() + rd.value, piece.end(), std::byte{0});
      want_rd.value += rd.value;
      want_rd.cost += rd.cost;
      at += x.length;
    }

    std::vector<std::byte> got;
    Timed<u64> rd{0, Duration::zero()};
    for (const Extent& x : accesses) {
      const Timed<std::span<const std::byte>> v =
          fb.read_view(x.offset, x.length, io);
      EXPECT_LE(v.value.size(), x.length);
      if (!v.value.empty()) {
        EXPECT_EQ(v.value.data(), fb.contents().data() + x.offset);
      }
      rd.value += v.value.size();
      rd.cost += v.cost;
      got.insert(got.end(), v.value.begin(), v.value.end());
      got.resize(got.size() + x.length - v.value.size(), std::byte{0});
    }
    EXPECT_EQ(rd.value, want_rd.value);
    EXPECT_EQ(rd.cost, want_rd.cost);
    EXPECT_EQ(sb.counters(), sa.counters());
    EXPECT_EQ(got, want);
    const Extent all{0, 1 * kMiB};
    EXPECT_EQ(b.cache().cached_ranges(0, all), a.cache().cached_ranges(0, all));
    EXPECT_EQ(b.cache().pages_cached(), a.cache().pages_cached());
    // Same LRU order: a read that evicts again costs the same on both.
    std::vector<std::byte> buf(230 * kKiB);
    EXPECT_EQ(fb.pread(0, buf, io).cost, fa.pread(0, buf, io).cost);
    EXPECT_EQ(b.cache().cached_ranges(0, all), a.cache().cached_ranges(0, all));
  }
}

TEST_F(LocalFsTest, PartialCacheHitMixesCosts) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  const u64 n = 2 * kMiB;
  f.pwrite(0, pattern(n));
  f.fsync();
  fs_.cache().drop_all();
  // Warm the first half only.
  std::vector<std::byte> half(n / 2);
  f.pread(0, half);
  const i64 miss_before = stats_.get(stat::kCacheMissBytes);
  // Full read: half hits, half misses.
  std::vector<std::byte> full(n);
  f.pread(0, full);
  const i64 missed = stats_.get(stat::kCacheMissBytes) - miss_before;
  EXPECT_EQ(missed, static_cast<i64>(n / 2));
}

// Property: arbitrary interleavings of writes and reads always round-trip
// (the file behaves like a byte array), regardless of cache state.
TEST_F(LocalFsTest, RandomAccessConsistency) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  Rng rng(5);
  std::vector<std::byte> shadow(256 * kKiB, std::byte{0});
  for (int i = 0; i < 200; ++i) {
    const u64 off = rng.below(shadow.size() - 4096);
    const u64 len = rng.range(1, 4096);
    if (rng.chance(0.5)) {
      const auto data = pattern(len, static_cast<u8>(i));
      f.pwrite(off, data);
      std::copy(data.begin(), data.end(), shadow.begin() + off);
    } else if (rng.chance(0.1)) {
      fs_.drop_caches();
    } else {
      std::vector<std::byte> buf(len);
      const u64 got = f.pread(off, buf).value;
      for (u64 j = 0; j < got; ++j) {
        ASSERT_EQ(buf[j], shadow[off + j]) << "off=" << off << " j=" << j;
      }
    }
  }
}

}  // namespace
}  // namespace pvfsib::disk
