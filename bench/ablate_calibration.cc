// Calibration sensitivity: the paper does not publish the per-access file
// system overhead (O_r/O_w) or the media bandwidth half-size; we calibrated
// them once so the ADS write crossover lands at the paper's N=2048. This
// bench shows how the crossover (the largest block-column N whose pieces
// the model still sieves) moves as each constant sweeps — demonstrating
// the conclusion is robust: the crossover is insensitive to the syscall
// cost over its whole plausible range (the media curve's half-size is the
// dominant lever, and stays within one octave for 2x missets).
#include "bench_common.h"

#include "core/ads.h"

namespace pvfsib::bench {
namespace {

// Largest N in {512..16384} whose block-column write round still sieves.
u64 write_crossover(const DiskParams& disk, const FsParams& fs) {
  Stats stats;
  core::ActiveDataSieving ads(disk, fs, MemParams{}, core::AdsConfig{}, stats);
  u64 last = 0;
  for (u64 n = 512; n <= 16384; n *= 2) {
    // One 128-pair round of the per-iod pattern: piece = n bytes, 1-in-4.
    ExtentList acc;
    for (u64 i = 0; i < 128; ++i) acc.push_back({i * 4 * n, n});
    if (ads.decide(acc, /*is_write=*/true).sieve) last = n;
  }
  return last;
}

void run() {
  header("Ablation: calibration sensitivity of the ADS crossover",
         "largest block-column N still sieved on write; the curves merge at "
         "the next size.\n(the paper's Figure 6 merges at N=2048, i.e. "
         "largest sieved N = 1024)");

  Table t1({"O_r/O_w (us)", "crossover N"});
  for (double o : {5.0, 10.0, 20.0, 40.0, 80.0}) {
    FsParams fs;
    fs.read_overhead = Duration::us(o);
    fs.write_overhead = Duration::us(o);
    t1.row({fmt(o, 0), fmt_int(static_cast<i64>(
                           write_crossover(DiskParams{}, fs)))});
  }
  t1.print();

  std::printf("\n");
  Table t2({"media half-size", "crossover N"});
  for (u64 h : {4 * kKiB, 8 * kKiB, 14 * kKiB, 28 * kKiB, 56 * kKiB}) {
    DiskParams disk;
    disk.media_half_size = h;
    t2.row({std::to_string(h / kKiB) + " KiB",
            fmt_int(static_cast<i64>(write_crossover(disk, FsParams{})))});
  }
  t2.print();
}

}  // namespace
}  // namespace pvfsib::bench

int main() {
  pvfsib::bench::run();
  return 0;
}
