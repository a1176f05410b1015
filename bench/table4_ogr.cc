// Table 4: impact of Optimistic Group Registration on PVFS list I/O write
// performance. A 2048x2048 int array distributed 2x2; each of 4 processes
// writes its subarray (1024 noncontiguous 4 KiB rows) contiguously to
// non-overlapping file offsets.
//
// Cases (as in the paper):
//   Ideal   all registrations already cached
//   Indiv.  one registration per row buffer
//   OGR     optimistic group registration (rows group into one region)
//   OGR+Q   1024 buffers from several arrays with 10 unmapped holes:
//           optimism fails, the OS hole query recovers (11 registrations)
//
// Plus an ablation the paper mentions in passing: OGR+Q using the slow
// /proc/$pid/maps query instead of the custom syscall.
#include "bench_common.h"

#include "workloads/subarray.h"

namespace pvfsib::bench {
namespace {

enum class Case { kIdeal, kIndividual, kOgr, kOgrQ, kAppHint };

struct CaseResult {
  double mbps_nosync = 0;
  double mbps_sync = 0;
  i64 registrations = 0;
  double reg_overhead_us = 0;
};

// Build each client's request. For kOgrQ* the buffers come from several
// allocations with unmapped holes between them.
core::ListIoRequest build_request(pvfs::Client& c, Case kase, u32 rank,
                                  Extent* hint = nullptr) {
  core::ListIoRequest req;
  if (kase == Case::kOgrQ) {
    const u64 buffers = 1024;
    const u64 buf_bytes = 4 * kKiB;
    for (u64 i = 0; i < buffers; ++i) {
      // 10 holes: every ~93 buffers the next buffer comes after an
      // *unmapped* page (a different malloc arena), which defeats the
      // optimistic registration; between buffers there is mapped
      // application data (they come "from several arrays").
      if (i > 0 && i % 94 == 0) c.memory().skip(kPageSize);
      req.mem.push_back({c.memory().alloc(buf_bytes), buf_bytes});
      c.memory().alloc(buf_bytes);  // interleaved non-I/O data (mapped)
    }
    req.file = {{rank * buffers * buf_bytes, buffers * buf_bytes}};
    return req;
  }
  workloads::SubarrayLayout l;
  l.n = 2048;
  const u64 base = l.alloc_array(c.memory());
  req.mem = l.subarray_rows(base, rank / 2, rank % 2);
  req.file = l.contiguous_file_extents(rank / 2, rank % 2);
  if (kase == Case::kAppHint && hint != nullptr) {
    // The application declares the whole array it malloc'd.
    *hint = Extent{base, l.array_bytes()};
  }
  return req;
}

CaseResult run_case(Case kase) {
  CaseResult out;
  for (bool sync : {false, true}) {
    pvfs::Cluster cluster(ModelConfig::paper_defaults(), 4, 4);
    std::vector<core::ListIoRequest> reqs;
    std::vector<pvfs::OpenFile> files;
    std::vector<Extent> hints(4);
    for (u32 r = 0; r < 4; ++r) {
      pvfs::Client& c = cluster.client(r);
      reqs.push_back(build_request(c, kase, r, &hints[r]));
      files.push_back(r == 0 ? c.create("/t4").value()
                             : c.open("/t4").value());
    }
    pvfs::IoOptions opts;
    opts.sync = sync;
    opts.policy.scheme = core::XferScheme::kRdmaGatherScatter;
    if (kase == Case::kIndividual) {
      opts.policy.reg_strategy = core::RegStrategy::kIndividual;
    }

    auto launch = [&] {
      std::vector<pvfs::IoResult> results(4);
      int pending = 4;
      for (u32 r = 0; r < 4; ++r) {
        pvfs::IoOptions o = opts;
        if (kase == Case::kAppHint) {
          o.allocation_hint_addr = hints[r].offset;
          o.allocation_hint_len = hints[r].length;
        }
        cluster.client(r)
            .submit({pvfs::IoDir::kWrite, files[r], reqs[r], o,
                     cluster.engine().now()})
            .on_complete([&results, &pending, r](pvfs::IoResult res) {
              results[r] = res;
              --pending;
            });
      }
      cluster.engine().run_until([&] { return pending == 0; });
      return summarize(results);
    };

    if (kase == Case::kIdeal) {
      launch();  // warm every registration cache
    }
    const Stats before = cluster.stats();
    RunOutcome run = launch();
    const Stats d = cluster.stats().diff(before);
    if (!sync) {
      out.mbps_nosync = run.mbps;
      // Per-process, as the paper reports them.
      out.registrations = d.get(stat::kMrRegister) / 4;
      out.reg_overhead_us =
          static_cast<double>(d.get(stat::kOgrPreregNs)) / 1e3 / 4.0;
    } else {
      out.mbps_sync = run.mbps;
    }
  }
  return out;
}

void run() {
  header("Table 4: Optimistic Group Registration impact",
         "4 processes each write a 4 MiB subarray (1024 x 4 KiB rows) "
         "contiguously; aggregate MB/s\n(paper: Ideal 1010/82, Indiv. "
         "424/73, OGR 950/~82, OGR+Q 879/~82; reg counts 0/1024/1/11)");

  Table t({"case", "no sync (MB/s)", "sync (MB/s)", "# reg", "overhead (us)"});
  const char* names[] = {"Ideal", "Indiv.", "OGR", "OGR+Q", "App-hint"};
  const Case cases[] = {Case::kIdeal, Case::kIndividual, Case::kOgr,
                        Case::kOgrQ, Case::kAppHint};
  for (int i = 0; i < 5; ++i) {
    const CaseResult r = run_case(cases[i]);
    t.row({names[i], fmt(r.mbps_nosync, 0), fmt(r.mbps_sync, 0),
           fmt_int(r.registrations), fmt(r.reg_overhead_us, 0)});
  }
  t.print();

  // Ablation: the OS hole-query mechanism (Section 4.3): the paper's custom
  // syscall vs reading /proc/$pid/maps.
  const OsParams os;
  std::printf(
      "\n  hole-query ablation: custom syscall ~%s for ~1000 extents vs "
      "/proc read %s\n",
      os.holequery_cost(1000).to_string().c_str(),
      os.procfs_query.to_string().c_str());
}

}  // namespace
}  // namespace pvfsib::bench

int main() {
  pvfsib::bench::run();
  return 0;
}
