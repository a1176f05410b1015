// Interactive-style explorer for the Active Data Sieving cost model: feed
// it access patterns (count, piece size, stride) and see the model's four
// terms and its verdict, exactly as the I/O daemon computes them. Useful
// for understanding *why* the server sieves one request and not another.
//
//   ./cost_model_explorer [N] [piece] [stride]     one pattern
//   ./cost_model_explorer                          a tour of patterns
#include <cstdio>
#include <cstdlib>

#include "core/ads.h"

using namespace pvfsib;

static void show(const core::ActiveDataSieving& ads, u64 n, u64 piece,
                 u64 stride, bool append) {
  ExtentList acc;
  for (u64 i = 0; i < n; ++i) acc.push_back({i * stride, piece});
  const u64 file_size = append ? 0 : ~0ULL;
  const core::AdsDecision d = ads.decide(acc, /*is_write=*/true, file_size);
  const core::AdsDecision dr = ads.decide(acc, /*is_write=*/false, ~0ULL);
  std::printf(
      "%5llu x %6llu B / stride %6llu%s | S_req %7.0f KiB  S_ds %7.0f KiB\n"
      "    write: T_sep %9.2f ms  T_dsw %9.2f ms  -> %s\n"
      "    read:  T_sep %9.2f ms  T_dsr %9.2f ms  -> %s\n",
      static_cast<unsigned long long>(n),
      static_cast<unsigned long long>(piece),
      static_cast<unsigned long long>(stride), append ? " (append)" : "",
      static_cast<double>(d.s_req) / 1024.0,
      static_cast<double>(d.s_ds) / 1024.0, d.t_separate.as_ms(),
      d.t_sieve.as_ms(), d.sieve ? "SIEVE" : "separate",
      dr.t_separate.as_ms(), dr.t_sieve.as_ms(),
      dr.sieve ? "SIEVE" : "separate");
}

int main(int argc, char** argv) {
  const ModelConfig cfg = ModelConfig::paper_defaults();
  Stats stats;
  core::ActiveDataSieving ads(cfg.disk, cfg.fs, cfg.mem, core::AdsConfig{},
                              stats);

  std::printf("ADS cost model (Table 1 parameters):\n"
              "  O_r/O_w %.1f us, O_seek %.1f us, O_lock %.1f us,\n"
              "  media %.0f/%.0f MB/s (half-size %llu KiB), memcpy %.0f MB/s\n\n",
              cfg.fs.read_overhead.as_us(), cfg.fs.seek_overhead.as_us(),
              cfg.fs.lock_overhead.as_us(), cfg.disk.media_write_bw,
              cfg.disk.media_read_bw,
              static_cast<unsigned long long>(cfg.disk.media_half_size / kKiB),
              cfg.mem.memcpy_bw);

  if (argc == 4) {
    show(ads, std::strtoull(argv[1], nullptr, 10),
         std::strtoull(argv[2], nullptr, 10),
         std::strtoull(argv[3], nullptr, 10), false);
    return 0;
  }

  std::printf("-- the Figure 6 sweep: 1-in-4 density, growing pieces --\n");
  for (u64 piece : {512, 1024, 2048, 4096, 8192}) {
    show(ads, 128, piece, piece * 4, false);
  }
  std::printf("\n-- density matters: 2 KiB pieces, growing holes --\n");
  for (u64 stride : {4096, 8192, 32768, 262144}) {
    show(ads, 128, 2048, stride, false);
  }
  std::printf("\n-- EOF awareness: the same append-pattern write sieves --\n");
  show(ads, 128, 2560, 10240, false);
  show(ads, 128, 2560, 10240, true);
  return 0;
}
