// google-benchmark microkernels for the hot host-side paths of the stack:
// extent coalescing, list I/O partitioning, OGR group planning, datatype
// flattening, and ADS window planning. These run on the real CPU (no
// simulated time) — they are the costs a production client library would
// pay per operation.
#include <benchmark/benchmark.h>

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

}  // namespace
}  // namespace pvfsib

BENCHMARK_MAIN();
