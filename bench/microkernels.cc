// google-benchmark microkernels for the hot host-side paths of the stack:
// extent coalescing, list I/O partitioning, OGR group planning, datatype
// flattening, and ADS window planning. These run on the real CPU (no
// simulated time) — they are the costs a production client library would
// pay per operation. BM_ByteMover measures the simulator's own copy path,
// BM_StatsBump and BM_StatsSnapshotDiff its counter registry.
#include <benchmark/benchmark.h>

#include <chrono>

#include "common/byte_mover.h"
#include "common/stats.h"
#include "core/ads.h"
#include "core/listio.h"
#include "core/ogr.h"
#include "mpiio/datatype.h"
#include "workloads/subarray.h"

namespace pvfsib {
namespace {

void BM_ExtentCoalesce(benchmark::State& state) {
  const u64 n = static_cast<u64>(state.range(0));
  ExtentList list;
  for (u64 i = 0; i < n; ++i) list.push_back({i * 100, (i % 3) != 0 ? 100u : 50u});
  for (auto _ : state) {
    benchmark::DoNotOptimize(coalesce(list));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_ExtentCoalesce)->Range(64, 16384);

void BM_ListIoPartition(benchmark::State& state) {
  const u64 n = static_cast<u64>(state.range(0));
  core::ListIoRequest req;
  for (u64 i = 0; i < n; ++i) {
    req.mem.push_back({0x100000 + i * 8192, 4096});
    req.file.push_back({i * 16384, 4096});
  }
  const core::StripeMap map(64 * kKiB, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::partition(req, map));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_ListIoPartition)->Range(64, 8192);

void BM_OgrPlanGroups(benchmark::State& state) {
  const u64 rows = static_cast<u64>(state.range(0));
  vmem::AddressSpace as;
  Stats stats;
  ib::Hca hca("bench", as, RegParams{}, stats);
  ib::MrCache cache(hca);
  core::GroupRegistrar ogr(cache, OsParams{}, core::OgrConfig{}, stats);
  workloads::SubarrayLayout l;
  l.n = rows * 2;
  const u64 base = l.alloc_array(as);
  const core::MemSegmentList segs = l.subarray_rows(base, 0, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ogr.plan_groups(segs));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(segs.size()));
}
BENCHMARK(BM_OgrPlanGroups)->Range(64, 4096);

void BM_SubarrayFlatten(benchmark::State& state) {
  const u64 n = static_cast<u64>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mpiio::Datatype::subarray({n, n}, {n / 2, n / 2}, {0, n / 4}, 4));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n / 2));
}
BENCHMARK(BM_SubarrayFlatten)->Range(64, 4096);

void BM_AdsPlanWindows(benchmark::State& state) {
  const u64 n = static_cast<u64>(state.range(0));
  Stats stats;
  core::ActiveDataSieving ads(DiskParams{}, FsParams{}, MemParams{},
                              core::AdsConfig{}, stats);
  ExtentList acc;
  for (u64 i = 0; i < n; ++i) acc.push_back({i * 8192, 2048});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ads.plan_windows(acc));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_AdsPlanWindows)->Range(64, 8192);

void BM_AdsDecide(benchmark::State& state) {
  const u64 n = static_cast<u64>(state.range(0));
  Stats stats;
  core::ActiveDataSieving ads(DiskParams{}, FsParams{}, MemParams{},
                              core::AdsConfig{}, stats);
  ExtentList acc;
  for (u64 i = 0; i < n; ++i) acc.push_back({i * 8192, 2048});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ads.decide(acc, true));
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_AdsDecide)->Range(64, 8192);

// One round's copy batch: `piece`-byte pieces (0: one contiguous op)
// gathered into every other piece-sized slot of the destination, `total`
// bytes in all, through a ByteMover with 0 (inline), 1 or 3 workers. Each
// batch takes the next slice of a 16 MiB source and a 32 MiB destination
// pool, so, as in a simulation, its bytes are not in the caller's L1/L2.
// Only the copy() call is timed; before each one the caller busies itself
// for `gap_us`, the simulator's work between two rounds: a gap inside the
// workers' spin budget finds them awake, a longer one shows what waking
// them costs. Sets ByteMover::kParallelMinBytes and the spin budget.
void BM_ByteMover(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const u64 piece = static_cast<u64>(state.range(0));
  const u64 total = static_cast<u64>(state.range(1));
  ByteMover mover(static_cast<u32>(state.range(2)));
  const auto gap = std::chrono::microseconds(state.range(3));
  const u64 len = piece == 0 ? total : piece;
  const u64 slices = 16 * kMiB / total;
  std::vector<std::byte> src(slices * total, std::byte{0x5a});
  std::vector<std::byte> dst(2 * slices * total, std::byte{0});
  std::vector<std::vector<CopyOp>> batches(slices);
  for (u64 k = 0; k < slices; ++k) {
    for (u64 at = 0; at < total; at += len) {
      batches[k].push_back({dst.data() + 2 * (k * total + at),
                            src.data() + k * total + at,
                            std::min(len, total - at)});
    }
  }
  u64 next = 0;
  for (auto _ : state) {
    for (const auto until = Clock::now() + gap; Clock::now() < until;) {
    }
    const auto t0 = Clock::now();
    mover.copy(batches[next++ % slices]);
    const auto t1 = Clock::now();
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(total));
}
// Every run does 2000 batches: the untimed gap would make google-benchmark's
// own iteration count cost minutes.
BENCHMARK(BM_ByteMover)
    ->ArgNames({"piece", "total", "workers", "gap_us"})
    ->ArgsProduct({{1024, 3072},
                   {16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024,
                    1024 * 1024},
                   {0, 1, 3},
                   {0, 20, 100}})
    ->ArgsProduct({{0}, {4 * 1024 * 1024}, {0, 1, 3}, {0, 20, 100}})
    ->Iterations(2000)
    ->UseManualTime();

// The counters a tile-read run touches (the registry's size when a hot
// path bumps it), each set to a distinct value.
Stats tile_read_counters(i64 base) {
  Stats s;
  i64 v = base;
  for (const auto id :
       {stat::kAdsSeparate, stat::kCacheHitBytes, stat::kCacheMissBytes,
        stat::kDiskRead, stat::kDiskWrite, stat::kDiskWriteBytes,
        stat::kFsLseek, stat::kMrCacheHit, stat::kMrCacheMiss,
        stat::kMrRegister, stat::kMrRegisteredBytes, stat::kRdmaRead,
        stat::kRdmaWrite, stat::kSend, stat::kNetBytesControl,
        stat::kNetBytesData, stat::kOgrGroups, stat::kOgrPreregNs,
        stat::kPvfsReply, stat::kPvfsRequest}) {
    s.add(id, v++);
  }
  return s;
}

// The four bumps LocalFile::charge_read makes per file access, the hot
// path of a tile read (thousands of accesses per operation).
void BM_StatsBump(benchmark::State& state) {
  Stats stats = tile_read_counters(0);
  i64 hit_bytes = 4096;
  benchmark::DoNotOptimize(hit_bytes);
  for (auto _ : state) {
    stats.add(stat::kFsLseek);
    stats.add(stat::kDiskRead);
    stats.add(stat::kCacheHitBytes, hit_bytes);
    stats.add(stat::kCacheMissBytes, 0);
    benchmark::DoNotOptimize(stats);
  }
  benchmark::DoNotOptimize(stats.get(stat::kDiskRead));
}
BENCHMARK(BM_StatsBump);

// IntervalSeries::close_window's work: diff the live registry against the
// last snapshot, then copy it into the snapshot. The live registry
// alternates between two states, so every counter moves in every window.
void BM_StatsSnapshotDiff(benchmark::State& state) {
  const Stats even = tile_read_counters(state.range(0));
  const Stats odd = tile_read_counters(state.range(0) + 100);
  Stats last = odd;
  u64 window = 0;
  for (auto _ : state) {
    const Stats& live = window++ % 2 == 0 ? even : odd;
    Stats delta = live.diff(last);
    benchmark::DoNotOptimize(delta);
    last = live;
    benchmark::DoNotOptimize(last);
  }
}
BENCHMARK(BM_StatsSnapshotDiff)->Arg(1);

}  // namespace
}  // namespace pvfsib

BENCHMARK_MAIN();
