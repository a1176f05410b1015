// Ablation: the OGR grouping cost model (Section 4.3).
//
// OGR absorbs an inter-buffer hole into a group when pinning the hole's
// pages costs less than a second registration pair:
// (a_reg + a_dereg) * hole_pages <= b_reg + b_dereg. Two sweeps:
//   (1) fixed layout, scaled per-op overhead b: the planner shifts from
//       many small groups to one big region exactly where the model says;
//   (2) fixed parameters, swept hole size: groups split once holes exceed
//       the ~8.5-page break-even.
// Also compares total registration cost against the Individual and naive
// Whole-Range strategies on each layout.
#include "bench_common.h"

#include "core/ogr.h"

namespace pvfsib::bench {
namespace {

struct Layout {
  vmem::AddressSpace as;
  core::MemSegmentList segs;
};

// 512 buffers of 4 KiB separated by mapped holes of `hole_pages` pages.
std::unique_ptr<Layout> make_layout(u64 hole_pages) {
  auto l = std::make_unique<Layout>();
  const u64 n = 512;
  const u64 stride = kPageSize * (1 + hole_pages);
  const u64 base = l->as.alloc(n * stride);
  for (u64 i = 0; i < n; ++i) {
    l->segs.push_back({base + i * stride, 4 * kKiB});
  }
  return l;
}

Duration strategy_cost(Layout& l, const RegParams& rp,
                       core::RegStrategy strategy, u64* groups) {
  Stats stats;
  ib::Hca hca("c", l.as, rp, stats);
  ib::MrCache cache(hca);
  core::GroupRegistrar ogr(cache, OsParams{}, core::OgrConfig{}, stats);
  if (groups != nullptr) *groups = ogr.plan_groups(l.segs).size();
  core::OgrOutcome out = ogr.acquire(l.segs, strategy);
  if (!out.ok()) return Duration::max();
  ogr.release(out);
  return out.cost;
}

void run() {
  header("Ablation: OGR grouping economics",
         "512 x 4 KiB buffers; registration cost by strategy\n"
         "(break-even hole = (b_reg+b_dereg)/(a_reg+a_dereg) ~ 8.5 pages "
         "at the paper's constants)");

  std::printf("  -- sweep hole size (paper constants) --\n");
  Table t1({"hole (pages)", "OGR groups", "OGR cost (us)", "indiv (us)",
            "whole-range (us)"});
  for (u64 hole : {0, 1, 2, 4, 8, 9, 16, 64, 256}) {
    auto l = make_layout(hole);
    u64 groups = 0;
    const Duration ogr_cost =
        strategy_cost(*l, RegParams{}, core::RegStrategy::kOgr, &groups);
    auto l2 = make_layout(hole);
    const Duration indiv = strategy_cost(*l2, RegParams{},
                                         core::RegStrategy::kIndividual,
                                         nullptr);
    auto l3 = make_layout(hole);
    const Duration whole = strategy_cost(*l3, RegParams{},
                                         core::RegStrategy::kWholeRange,
                                         nullptr);
    t1.row({fmt_int(static_cast<i64>(hole)), fmt_int(static_cast<i64>(groups)),
            fmt(ogr_cost.as_us(), 0), fmt(indiv.as_us(), 0),
            fmt(whole.as_us(), 0)});
  }
  t1.print();

  std::printf("\n  -- sweep per-op overhead b (hole fixed at 8 pages) --\n");
  Table t2({"b scale", "break-even (pages)", "OGR groups", "OGR cost (us)"});
  for (double scale : {0.25, 0.5, 1.0, 2.0, 4.0, 16.0}) {
    RegParams rp;
    rp.reg_base = rp.reg_base * scale;
    rp.dereg_base = rp.dereg_base * scale;
    const double break_even =
        (rp.reg_base + rp.dereg_base).as_us() /
        (rp.reg_per_page + rp.dereg_per_page).as_us();
    auto l = make_layout(8);
    Stats stats;
    ib::Hca hca("c", l->as, rp, stats);
    ib::MrCache cache(hca);
    core::GroupRegistrar ogr(cache, OsParams{}, core::OgrConfig{}, stats);
    const u64 groups = ogr.plan_groups(l->segs).size();
    core::OgrOutcome out = ogr.acquire(l->segs);
    t2.row({fmt(scale, 2), fmt(break_even, 1),
            fmt_int(static_cast<i64>(groups)),
            out.ok() ? fmt(out.cost.as_us(), 0) : "fail"});
    if (out.ok()) ogr.release(out);
  }
  t2.print();
}

}  // namespace
}  // namespace pvfsib::bench

int main() {
  pvfsib::bench::run();
  return 0;
}
