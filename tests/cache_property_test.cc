// Randomized cache-coherence property: with the client caching tier on,
// no read — cache hit or wire — may ever return bytes older than what
// version-aware read placement plus read-repair would serve. Three
// cache-enabled clients run phased rounds of disjoint-region writes,
// occasional remove/recreate of the shared file, and mirror-verified
// reads, while the schedule throws iod crash windows, at-rest bit flips,
// an optional background scrubber and a mid-run shard migration at the
// cluster; an optional write-back mode stages every round's writes and
// flushes them before the cross-client reads. A host-side byte mirror of
// every acked write is the oracle: any stale hit — a cached extent that
// survived a write notice, a version conflict, a remove, or an epoch
// bump — shows up as a byte mismatch.
// Replay a failing schedule with PVFS_PROPERTY_SEED=<seed>.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pvfs/cluster.h"

namespace pvfsib::pvfs {
namespace {

TEST(CacheProperty, RandomSchedulesNeverServeStaleBytes) {
  u64 seed = 2026;
  if (const char* env = std::getenv("PVFS_PROPERTY_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  SCOPED_TRACE("PVFS_PROPERTY_SEED=" + std::to_string(seed));
  Rng rng(seed);
  for (int iter = 0; iter < 3; ++iter) {
    const u32 iods = 2 + static_cast<u32>(rng.below(3));
    const u32 x = static_cast<u32>(rng.below(iods));  // the stripe's home
    const u32 y = (x + 1) % iods;                     // its chained backup
    const u64 n = rng.range(16 * kKiB, 64 * kKiB);
    const u32 shards = 1 + static_cast<u32>(rng.below(2));
    const bool write_back = rng.chance(0.3);
    const bool scrub = rng.chance(0.5);
    const bool migrate = rng.chance(0.6);
    const u32 mshard = static_cast<u32>(rng.below(shards));

    ModelConfig cfg = ModelConfig::paper_defaults();
    cfg.cache.enabled = true;
    cfg.cache.data_capacity = 256 * kKiB;
    cfg.cache.write_back = write_back;
    // Large enough that the explicit end-of-round flushes are the ones
    // that matter; the timer is exercised by cache_test.
    cfg.cache.staleness_bound = Duration::ms(50.0);
    cfg.pvfs.metadata_shards = shards;
    cfg.fault.seed = seed + static_cast<u64>(iter);
    cfg.fault.round_timeout = Duration::ms(2.0);
    cfg.fault.backoff_base = Duration::us(100.0);
    cfg.fault.backoff_cap = Duration::ms(2.0);
    cfg.fault.max_retries = 25;
    cfg.replication.factor = 2;
    cfg.replication.resync = true;
    cfg.replication.write_quorum = 1;
    // Short iod crash windows well inside the retry budget.
    const int crashes = static_cast<int>(rng.below(3));
    for (int k = 0; k < crashes; ++k) {
      cfg.fault.schedule.push_back(FaultEvent{
          FaultKind::kIodCrash,
          TimePoint::from_ns(
              static_cast<i64>(rng.range(5'000'000, 60'000'000))),
          static_cast<u32>(rng.below(iods)),
          Duration::us(static_cast<double>(rng.range(500, 4000)))});
    }
    // Bit flips at rest on one chain member: a cached hit of pre-flip
    // bytes is *correct* (the cache holds acked data); a wire read must
    // detect and fail over. Either way the mirror is the answer.
    const u32 victim = rng.chance(0.5) ? x : y;
    const int flips = 1 + static_cast<int>(rng.below(3));
    for (int k = 0; k < flips; ++k) {
      cfg.fault.schedule.push_back(FaultEvent{
          FaultKind::kBitFlip,
          TimePoint::from_ns(
              static_cast<i64>(rng.range(20'000'000, 60'000'000))),
          victim, Duration::zero()});
    }
    SCOPED_TRACE("iter " + std::to_string(iter) + ": " +
                 std::to_string(iods) + " iods, " + std::to_string(shards) +
                 " shards, n=" + std::to_string(n) +
                 (write_back ? ", write-back" : ", write-through") +
                 (scrub ? ", scrub" : "") +
                 (migrate ? ", migrate shard " + std::to_string(mshard) : "") +
                 ", " + std::to_string(crashes) + " crashes, " +
                 std::to_string(flips) + " flips on iod" +
                 std::to_string(victim));

    Cluster cluster(cfg, Cluster::Topology{}
                             .clients(3)
                             .iods(iods)
                             .metadata_shards(shards));
    if (scrub) {
      cluster.start_scrub(TimePoint::origin() + Duration::ms(200.0));
    }
    if (migrate) {
      const TimePoint mat = TimePoint::from_ns(
          static_cast<i64>(rng.range(8'000'000, 40'000'000)));
      cluster.engine().schedule_at(mat, [&cluster, mshard, mat] {
        cluster.migrate_shard(mshard, mat);
      });
    }
    Client* cl[3] = {&cluster.client(0), &cluster.client(1),
                     &cluster.client(2)};

    // The shared file and its host-side mirror of every acked byte.
    OpenFile files[3];
    files[0] = cl[0]->create("/cprop", 64 * kKiB, 1, x).value();
    std::vector<u8> mirror(n, 0);
    {
      Rng fillr(seed * 31 + static_cast<u64>(iter));
      const u64 a = cl[0]->memory().alloc(n);
      for (u64 i = 0; i < n; ++i) {
        mirror[i] = static_cast<u8>(fillr.next());
        cl[0]->memory().write_pod<u8>(a + i, mirror[i]);
      }
      ASSERT_TRUE(cl[0]->write(files[0], 0, a, n).ok());
      if (write_back) {
        ASSERT_TRUE(cl[0]->flush(files[0]).ok());
      }
    }
    files[1] = cl[1]->open("/cprop").value();
    files[2] = cl[2]->open("/cprop").value();

    const int rounds = 3 + static_cast<int>(rng.below(3));
    for (int r = 0; r < rounds; ++r) {
      SCOPED_TRACE("round " + std::to_string(r));
      // Occasionally the file is removed and recreated: every client's
      // cached attr and data must die with it — an open serving the old
      // handle, or a read serving the old bytes, fails the oracle (the
      // fresh file reads back as zeros until rewritten).
      if (rng.chance(0.25)) {
        const u32 who = static_cast<u32>(rng.below(3));
        ASSERT_TRUE(cl[who]->remove("/cprop").is_ok());
        files[0] = cl[0]->create("/cprop", 64 * kKiB, 1, x).value();
        Result<OpenFile> r1 = cl[1]->open("/cprop");
        Result<OpenFile> r2 = cl[2]->open("/cprop");
        ASSERT_TRUE(r1.is_ok() && r2.is_ok());
        files[1] = r1.value();
        files[2] = r2.value();
        ASSERT_EQ(files[1].meta.handle, files[0].meta.handle);
        ASSERT_EQ(files[2].meta.handle, files[0].meta.handle);
        std::fill(mirror.begin(), mirror.end(), 0);
      }
      // Phase A: each client overwrites a random slice of its own third
      // (disjoint across clients, so acked bytes commute with host order).
      const u64 band = n / 3;
      for (u32 k = 0; k < 3; ++k) {
        const u64 off =
            static_cast<u64>(k) * band + rng.below(band / 2);
        const u64 len = rng.range(1, band / 2);
        const u64 b = cl[k]->memory().alloc(len);
        for (u64 i = 0; i < len; ++i) {
          const u8 v = static_cast<u8>(mirror[off + i] ^ (0x11u * (r + 1)));
          cl[k]->memory().write_pod<u8>(b + i, v);
          mirror[off + i] = v;
        }
        IoResult w = cl[k]->write(files[k], off, b, len);
        ASSERT_TRUE(w.ok()) << "client " << k << ": "
                            << w.status.to_string();
      }
      // Write-back: make the staged bytes durable before anyone else
      // reads (within the staleness bound, cross-client lag is the
      // documented relaxation; after a flush there is none).
      if (write_back) {
        for (u32 k = 0; k < 3; ++k) {
          IoResult fl = cl[k]->flush(files[k]);
          ASSERT_TRUE(fl.ok()) << fl.status.to_string();
        }
      }
      // Phase B: quiesced cross-client reads of random extents, each
      // issued twice — the first populates (wire), the repeat is the hit
      // candidate. Hits and wire reads are both held to the mirror, so a
      // stale hit cannot hide; an open per client exercises the attr
      // cache the same way.
      for (u32 k = 0; k < 3; ++k) {
        ASSERT_EQ(cl[k]->open("/cprop").value().meta.handle,
                  files[k].meta.handle);
        const u64 off = rng.below(n - 1);
        const u64 len = rng.range(1, n - off);
        const u64 d = cl[k]->memory().alloc(len);
        for (int pass = 0; pass < 2; ++pass) {
          IoResult rd = cl[k]->read(files[k], off, d, len);
          ASSERT_TRUE(rd.ok()) << rd.status.to_string();
          for (u64 i = 0; i < len; ++i) {
            ASSERT_EQ(cl[k]->memory().read_pod<u8>(d + i), mirror[off + i])
                << "client " << k << " pass " << pass << " stale byte at "
                << (off + i);
          }
        }
      }
    }

    // Drain everything still scheduled (crash windows, flips, scrub
    // ticks, the migration), then one last full read from every client.
    cluster.run();
    for (u32 k = 0; k < 3; ++k) {
      const u64 d = cl[k]->memory().alloc(n);
      IoResult rd = cl[k]->read(files[k], 0, d, n);
      ASSERT_TRUE(rd.ok()) << rd.status.to_string();
      for (u64 i = 0; i < n; ++i) {
        ASSERT_EQ(cl[k]->memory().read_pod<u8>(d + i), mirror[i])
            << "client " << k << " final stale byte at " << i;
      }
    }
    // The property is about hits, so the schedule must actually produce
    // some — an all-miss run would verify nothing.
    EXPECT_GT(cluster.stats().get(stat::kPvfsCacheHits), 0);
  }
}

}  // namespace
}  // namespace pvfsib::pvfs
