// Figure 4: PVFS-level noncontiguous data transfer — 4 compute nodes and
// 4 I/O nodes; each process reads/writes 128 noncontiguous memory segments
// (segment size swept 128 B .. 8 KiB) with PVFS list I/O under three
// transfer designs: Pack/Unpack, RDMA Gather/Scatter, and the Hybrid scheme
// the paper adopts.
//
// Expected shape: Pack/Unpack wins while the total stays small, RDMA
// Gather/Scatter wins once it grows, Hybrid tracks the better of the two.
#include "bench_common.h"

namespace pvfsib::bench {
namespace {

RunOutcome run_case(u64 seg_bytes, core::XferScheme scheme, bool is_write) {
  pvfs::Cluster cluster(ModelConfig::paper_defaults(), 4, 4);
  const u64 segments = 128;
  const u64 share = segments * seg_bytes;

  std::vector<pvfs::OpenFile> files;
  std::vector<core::ListIoRequest> reqs;
  for (u32 r = 0; r < 4; ++r) {
    pvfs::Client& c = cluster.client(r);
    files.push_back(r == 0 ? c.create("/fig4").value()
                           : c.open("/fig4").value());
    core::ListIoRequest req;
    const u64 base = c.memory().alloc(segments * 2 * seg_bytes);
    for (u64 s = 0; s < segments; ++s) {
      req.mem.push_back({base + s * 2 * seg_bytes, seg_bytes});
    }
    req.file = {{r * share, share}};
    reqs.push_back(std::move(req));
  }
  if (!is_write) {
    // Preload so reads are served from the iod page caches (the paper's
    // network-stress configuration).
    for (u32 r = 0; r < 4; ++r) {
      pvfs::IoResult pre = cluster.client(r).write_list(files[r], reqs[r]);
      if (!pre.ok()) {
        std::fprintf(stderr, "fig4 preload: %s\n",
                     pre.status.to_string().c_str());
        return {};
      }
    }
  }

  // The case's scheme applies to the measured calls only; the preload runs
  // with the stock hybrid policy.
  const pvfs::IoOptions opts = pvfs::IoOptions{}.with_scheme(scheme);
  std::vector<pvfs::IoResult> results(4);
  int pending = 4;
  for (u32 r = 0; r < 4; ++r) {
    auto done = [&results, &pending, r](pvfs::IoResult res) {
      results[r] = res;
      --pending;
    };
    const TimePoint at = cluster.engine().now();
    const pvfs::IoDir dir = is_write ? pvfs::IoDir::kWrite : pvfs::IoDir::kRead;
    cluster.client(r)
        .submit({dir, files[r], reqs[r], opts, at})
        .on_complete(done);
  }
  cluster.engine().run_until([&] { return pending == 0; });
  return summarize(results);
}

void run() {
  header("Figure 4: PVFS noncontiguous transfer schemes",
         "4 clients x 4 iods, 128 segments per client, list I/O; aggregate "
         "MB/s\n(paper shape: pack wins small, gather wins large, hybrid "
         "tracks both)");

  for (bool is_write : {true, false}) {
    std::printf("  -- %s --\n", is_write ? "write" : "read");
    Table t({"seg size", "total/client", "pack/unpack", "gather/scatter",
             "hybrid"});
    for (u64 seg : {128, 256, 512, 1024, 2048, 4096, 8192}) {
      const u64 total = 128 * seg;
      t.row({std::to_string(seg) + " B",
             std::to_string(total / kKiB) + " KiB",
             fmt(run_case(seg, core::XferScheme::kPackUnpack, is_write).mbps,
                 0),
             fmt(run_case(seg, core::XferScheme::kRdmaGatherScatter,
                          is_write)
                     .mbps,
                 0),
             fmt(run_case(seg, core::XferScheme::kHybrid, is_write).mbps,
                 0)});
    }
    t.print();
    std::printf("\n");
  }
}

}  // namespace
}  // namespace pvfsib::bench

int main() {
  pvfsib::bench::run();
  return 0;
}
