// Ablation: pin-down cache capacity and registration thrashing.
//
// Section 4.2: "the total number of buffers registered is limited. When the
// system hits this limitation, some registered buffers must be
// deregistered. This may lead to registration thrashing."
//
// A client cycles list I/O over W distinct 1 MiB working sets; once the
// cache capacity (entries) drops below W the hit rate collapses and every
// operation pays full registration again.
#include "bench_common.h"

#include "core/ogr.h"

namespace pvfsib::bench {
namespace {

void run() {
  header("Ablation: registration cache capacity (thrashing)",
         "16 working sets of 256 x 4 KiB rows, visited round-robin for 128 "
         "operations;\nper-op registration cost vs cache capacity");

  const u64 kSets = 16;
  const u64 kRows = 256;
  const int kOps = 128;

  Table t({"cache entries", "hit rate", "reg/op", "evictions",
           "reg cost/op (us)"});
  for (u64 capacity : {2, 4, 8, 12, 16, 32, 1024}) {
    ModelConfig cfg = ModelConfig::paper_defaults();
    cfg.reg.cache_max_entries = capacity;

    Stats stats;
    vmem::AddressSpace as;
    ib::Hca hca("client", as, cfg.reg, stats);
    ib::MrCache cache(hca);
    core::GroupRegistrar ogr(cache, cfg.os, core::OgrConfig{}, stats);

    // Each working set groups into ONE region under OGR, so capacity is in
    // units of working sets.
    std::vector<core::MemSegmentList> sets;
    for (u64 s = 0; s < kSets; ++s) {
      core::MemSegmentList segs;
      const u64 base = as.alloc(kRows * 8 * kKiB);
      for (u64 r = 0; r < kRows; ++r) {
        segs.push_back({base + r * 8 * kKiB, 4 * kKiB});
      }
      as.skip(64 * kPageSize);  // keep sets apart
      sets.push_back(std::move(segs));
    }

    Duration total_cost = Duration::zero();
    for (int op = 0; op < kOps; ++op) {
      core::OgrOutcome out = ogr.acquire(sets[op % kSets]);
      if (!out.ok()) {
        std::fprintf(stderr, "acquire: %s\n", out.status.to_string().c_str());
        return;
      }
      total_cost += out.cost;
      ogr.release(out);
    }
    const i64 hits = stats.get(stat::kMrCacheHit);
    const i64 misses = stats.get(stat::kMrCacheMiss);
    t.row({fmt_int(static_cast<i64>(capacity)),
           fmt(100.0 * static_cast<double>(hits) /
                   static_cast<double>(hits + misses),
               1) + "%",
           fmt(static_cast<double>(stats.get(stat::kMrRegister)) / kOps, 2),
           fmt_int(stats.get(stat::kMrCacheEvict)),
           fmt(total_cost.as_us() / kOps, 1)});
  }
  t.print();
}

}  // namespace
}  // namespace pvfsib::bench

int main() {
  pvfsib::bench::run();
  return 0;
}
