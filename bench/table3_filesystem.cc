// Table 3: local (ext3-model) file system performance with and without
// cache effects, bonnie-style sequential sweeps.
//
// Paper values: write 25 / 303 MB/s, read 20 / 1391 MB/s (without/with
// cache).
#include "bench_common.h"

#include "disk/local_fs.h"

namespace pvfsib::bench {
namespace {

void run() {
  header("Table 3: File system performance",
         "bonnie-style sequential read/write of a 256 MiB file\n"
         "(paper: uncached 25 / 20 MB/s, cached 303 / 1391 MB/s)");

  const ModelConfig cfg = ModelConfig::paper_defaults();
  Stats stats;
  disk::LocalFs fs("node", cfg.disk, cfg.fs, stats);
  const u32 fd = fs.create("/bonnie").value();
  disk::LocalFile& f = fs.file(fd);

  const u64 total = 256 * kMiB;
  const u64 chunk = 1 * kMiB;
  std::vector<std::byte> buf(chunk, std::byte{0x5a});

  // Sequential write through the cache, then the fsync that bonnie's
  // "per-char + block write" number effectively includes for files larger
  // than RAM.
  Duration w_cached = Duration::zero();
  for (u64 off = 0; off < total; off += chunk) {
    w_cached += f.pwrite(off, buf).cost;
  }
  const Duration w_sync = f.fsync();

  // Cached read: immediately after writing, everything is resident.
  Duration r_cached = Duration::zero();
  for (u64 off = 0; off < total; off += chunk) {
    r_cached += f.pread(off, buf).cost;
  }

  // Uncached read: drop caches first.
  fs.drop_caches();
  Duration r_cold = Duration::zero();
  for (u64 off = 0; off < total; off += chunk) {
    r_cold += f.pread(off, buf).cost;
  }

  // Uncached write: O_DIRECT-style pass.
  Duration w_cold = Duration::zero();
  for (u64 off = 0; off < total; off += chunk) {
    w_cold += f.pwrite(off, buf, {.direct = true}).cost;
  }

  Table t({"case", "write (MB/s)", "read (MB/s)", "paper write", "paper read"});
  t.row({"without cache", fmt(bandwidth_mib(total, w_cold), 0),
         fmt(bandwidth_mib(total, r_cold), 0), "25", "20"});
  t.row({"with cache", fmt(bandwidth_mib(total, w_cached), 0),
         fmt(bandwidth_mib(total, r_cached), 0), "303", "1391"});
  t.print();
  std::printf("\n  write-back of the cached pass (fsync): %s for 256 MiB "
              "(%s MB/s)\n",
              w_sync.to_string().c_str(),
              fmt(bandwidth_mib(total, w_sync), 0).c_str());
}

}  // namespace
}  // namespace pvfsib::bench

int main() {
  pvfsib::bench::run();
  return 0;
}
