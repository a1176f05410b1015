#include "core/ads.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pvfsib::core {
namespace {

class AdsTest : public ::testing::Test {
 protected:
  ActiveDataSieving make(AdsConfig cfg = {}) {
    return ActiveDataSieving(DiskParams{}, FsParams{}, MemParams{}, cfg,
                             stats_);
  }

  // N accesses of `len` bytes strided by `stride`.
  static ExtentList strided(u64 n, u64 len, u64 stride, u64 base = 0) {
    ExtentList l;
    for (u64 i = 0; i < n; ++i) l.push_back({base + i * stride, len});
    return l;
  }

  Stats stats_;
};

TEST_F(AdsTest, ModelTermsMatchFormulas) {
  ActiveDataSieving ads = make();
  const DiskParams dp;
  const FsParams fp;
  const MemParams mp;
  const ExtentList acc = strided(10, 1024, 4096);

  // T_read = N*(O_r + O_seek) + sum S_i/B_r(S_i)
  const Duration expect_sep =
      (fp.read_overhead + fp.seek_overhead) * 10 +
      transfer_time(1024, dp.media_bw(1024, false)) * 10;
  EXPECT_EQ(ads.t_read_separate(acc).as_ns(), expect_sep.as_ns());

  // S_ds = span of the sorted accesses (fits one window).
  EXPECT_EQ(ads.sieved_bytes(acc), 9 * 4096 + 1024);

  const u64 s_ds = ads.sieved_bytes(acc);
  const Duration expect_dsr =
      fp.read_overhead + fp.seek_overhead +
      transfer_time(s_ds, dp.media_bw(s_ds, false));
  EXPECT_EQ(ads.t_read_sieved(s_ds, s_ds).as_ns(), expect_dsr.as_ns());

  // T_dsw = T_dsr + S_req/B_mem + O_lock + O_w + S_ds/B_w + O_unlock
  const Duration expect_dsw =
      expect_dsr + mp.copy_cost(10 * 1024) + fp.lock_overhead +
      fp.write_overhead + transfer_time(s_ds, dp.media_bw(s_ds, true)) +
      fp.unlock_overhead;
  EXPECT_EQ(ads.t_write_sieved(10 * 1024, s_ds, s_ds).as_ns(),
            expect_dsw.as_ns());
}

TEST_F(AdsTest, EofAwareWriteDecision) {
  ActiveDataSieving ads = make();
  // Appending writes past EOF: the RMW read is free, so sieving wins even
  // for piece sizes where an overwrite of existing data would not sieve.
  const ExtentList acc = strided(128, 2560, 10240);
  const AdsDecision overwrite = ads.decide(acc, /*write=*/true);
  const AdsDecision append = ads.decide(acc, /*write=*/true, /*size=*/0);
  EXPECT_FALSE(overwrite.sieve);
  EXPECT_TRUE(append.sieve);
  EXPECT_LT(append.t_sieve, overwrite.t_sieve);
}

TEST_F(AdsTest, SievedReadableBytesClipsAtEof) {
  ActiveDataSieving ads = make();
  const ExtentList acc = strided(4, 1024, 4096);  // span [0, 13312)
  EXPECT_EQ(ads.sieved_readable_bytes(acc, ~0ULL), ads.sieved_bytes(acc));
  EXPECT_EQ(ads.sieved_readable_bytes(acc, 0), 0u);
  EXPECT_EQ(ads.sieved_readable_bytes(acc, 5000), 5000u);
}

TEST_F(AdsTest, SmallDenseAccessesSieve) {
  ActiveDataSieving ads = make();
  // 128 accesses of 512 B, 1 in 4 density: classic sieving win.
  const AdsDecision d = ads.decide(strided(128, 512, 2048), /*write=*/false);
  EXPECT_TRUE(d.sieve);
  EXPECT_LT(d.t_sieve, d.t_separate);
  EXPECT_EQ(d.s_req, 128u * 512u);
  EXPECT_EQ(stats_.get(stat::kAdsSieved), 1);
}

TEST_F(AdsTest, LargeAccessesDoNotSieve) {
  ActiveDataSieving ads = make();
  // 16 accesses of 256 KiB with 1-in-4 density: reading 4x the data loses.
  const AdsDecision d =
      ads.decide(strided(16, 256 * kKiB, 1 * kMiB), /*write=*/false);
  EXPECT_FALSE(d.sieve);
  EXPECT_GE(d.t_sieve, d.t_separate);
  EXPECT_EQ(stats_.get(stat::kAdsSeparate), 1);
}

TEST_F(AdsTest, SparseAccessesDoNotSieve) {
  ActiveDataSieving ads = make();
  // Tiny wanted data spread over a huge span.
  const AdsDecision d = ads.decide(strided(8, 256, 1 * kMiB), false);
  EXPECT_FALSE(d.sieve);
}

TEST_F(AdsTest, ContiguousRunSievesAsOneAccessNoGain) {
  ActiveDataSieving ads = make();
  // A single access never sieves (pure overhead).
  const AdsDecision d = ads.decide({{0, 1 * kMiB}}, false);
  EXPECT_FALSE(d.sieve);
}

TEST_F(AdsTest, WriteDecisionChargesReadModifyWrite) {
  ActiveDataSieving ads = make();
  const ExtentList acc = strided(128, 512, 2048);
  const AdsDecision r = ads.decide(acc, /*write=*/false);
  const AdsDecision w = ads.decide(acc, /*write=*/true);
  // Same access list: the write-sieve cost includes the RMW cycle, so it
  // exceeds the read-sieve cost.
  EXPECT_GT(w.t_sieve, r.t_sieve);
  EXPECT_TRUE(w.sieve);  // still a win at this density
}

TEST_F(AdsTest, ForcedAlwaysSieves) {
  AdsConfig cfg;
  cfg.force = true;
  ActiveDataSieving ads = make(cfg);
  // Even the hopeless sparse case sieves when forced (the ablation knob).
  EXPECT_TRUE(ads.decide(strided(8, 256, 1 * kMiB), false).sieve);
}

TEST_F(AdsTest, PlanSingleWindow) {
  ActiveDataSieving ads = make();
  const ExtentList acc = strided(4, 1024, 4096, 100);
  const auto windows = ads.plan_windows(acc);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].span.offset, 100u);
  EXPECT_EQ(windows[0].span.length, 3 * 4096 + 1024);
  ASSERT_EQ(windows[0].pieces.size(), 4u);
  for (u32 i = 0; i < 4; ++i) {
    const auto& p = windows[0].pieces[i];
    EXPECT_EQ(p.access_index, i);
    EXPECT_EQ(p.window_off, i * 4096u);
    EXPECT_EQ(p.stream_off, i * 1024u);
    EXPECT_EQ(p.length, 1024u);
  }
}

TEST_F(AdsTest, PlanSplitsAtBufferBoundary) {
  AdsConfig cfg;
  cfg.sieve_buffer_size = 8 * kKiB;
  ActiveDataSieving ads = make(cfg);
  const ExtentList acc = strided(8, 1024, 4096);  // span 29 KiB
  const auto windows = ads.plan_windows(acc);
  ASSERT_GE(windows.size(), 4u);
  u64 covered = 0;
  for (const auto& w : windows) {
    EXPECT_LE(w.span.length, 8 * kKiB);
    for (const auto& p : w.pieces) {
      EXPECT_LE(p.window_off + p.length, w.span.length);
      covered += p.length;
    }
  }
  EXPECT_EQ(covered, 8 * 1024u);
}

TEST_F(AdsTest, PlanHandlesAccessLargerThanBuffer) {
  AdsConfig cfg;
  cfg.sieve_buffer_size = 4 * kKiB;
  ActiveDataSieving ads = make(cfg);
  const ExtentList acc{{0, 10 * kKiB}};
  const auto windows = ads.plan_windows(acc);
  ASSERT_EQ(windows.size(), 3u);
  u64 stream = 0;
  for (const auto& w : windows) {
    for (const auto& p : w.pieces) {
      EXPECT_EQ(p.access_index, 0u);
      EXPECT_EQ(p.stream_off, stream);
      stream += p.length;
    }
  }
  EXPECT_EQ(stream, 10 * kKiB);
}

TEST_F(AdsTest, PlanPreservesRequestOrderStreamOffsets) {
  ActiveDataSieving ads = make();
  // Accesses given out of file order: stream offsets follow request order.
  const ExtentList acc{{8192, 100}, {0, 50}, {4096, 25}};
  const auto windows = ads.plan_windows(acc);
  ASSERT_EQ(windows.size(), 1u);
  // Sorted by offset: {0,50}(stream 100), {4096,25}(stream 150),
  // {8192,100}(stream 0).
  const auto& ps = windows[0].pieces;
  ASSERT_EQ(ps.size(), 3u);
  EXPECT_EQ(ps[0].access_index, 1u);
  EXPECT_EQ(ps[0].stream_off, 100u);
  EXPECT_EQ(ps[1].access_index, 2u);
  EXPECT_EQ(ps[1].stream_off, 150u);
  EXPECT_EQ(ps[2].access_index, 0u);
  EXPECT_EQ(ps[2].stream_off, 0u);
}

// Property: windows cover every requested byte exactly once, spans fit the
// buffer, and stream offsets tile [0, S_req).
TEST_F(AdsTest, PlanWindowsPartitionProperty) {
  Rng rng(13);
  for (int iter = 0; iter < 100; ++iter) {
    AdsConfig cfg;
    cfg.sieve_buffer_size = (1 + rng.below(8)) * 4 * kKiB;
    ActiveDataSieving ads = make(cfg);
    ExtentList acc;
    u64 pos = rng.below(10000);
    const int n = static_cast<int>(rng.range(1, 50));
    for (int i = 0; i < n; ++i) {
      const u64 len = rng.range(1, 3 * 4096);
      acc.push_back({pos, len});
      pos += len + rng.below(8192);
    }
    const u64 s_req = total_length(acc);
    std::vector<bool> seen(s_req, false);
    for (const auto& w : ads.plan_windows(acc)) {
      EXPECT_LE(w.span.length, cfg.sieve_buffer_size);
      for (const auto& p : w.pieces) {
        // Piece lies inside the window and maps to the file correctly.
        EXPECT_LE(p.window_off + p.length, w.span.length);
        for (u64 b = 0; b < p.length; ++b) {
          ASSERT_LT(p.stream_off + b, s_req);
          ASSERT_FALSE(seen[p.stream_off + b]);
          seen[p.stream_off + b] = true;
        }
      }
    }
    for (u64 b = 0; b < s_req; ++b) ASSERT_TRUE(seen[b]);
  }
}

}  // namespace
}  // namespace pvfsib::core
