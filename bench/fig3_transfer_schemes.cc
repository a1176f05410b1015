// Figure 3: bandwidth of noncontiguous transfer schemes when sending one
// process's 2-D subarray (block distribution over 4 processes) from a
// compute node to an I/O node.
//
// Series (as in the paper):
//   contiguous, no reg    upper bound: one registered contiguous buffer
//   multiple, no reg      one RDMA per row, warm registration cache
//   gather, one reg       RDMA gather + Optimistic Group Registration
//   gather, multiple reg  RDMA gather, every row registered individually
//   pack, no reg          pack into a pre-registered bounce buffer
//   pack, reg             pack into a freshly registered bounce buffer
//
// Expected shape: gather/one-reg tracks contiguous for large arrays; pack
// wins for small arrays; per-row registration collapses.
#include "bench_common.h"

#include "core/transfer.h"
#include "workloads/subarray.h"

namespace pvfsib::bench {
namespace {

struct Rig {
  explicit Rig(u64 bounce_bytes, u64 staging_bytes)
      : cfg(ModelConfig::paper_defaults()),
        client("client", client_as, cfg.reg, stats),
        server("server", server_as, cfg.reg, stats),
        cache(client),
        registrar(cache, cfg.os, core::OgrConfig{}, stats),
        fabric(cfg.net, stats, faults),
        xfer(fabric, cfg.mem) {
    ep.hca = &client;
    ep.registrar = &registrar;
    ep.bounce_size = bounce_bytes;
    ep.bounce_addr = client_as.alloc(bounce_bytes);
    ep.bounce_key = client.register_memory(ep.bounce_addr, bounce_bytes).key;
    staging.hca = &server;
    staging.size = staging_bytes;
    staging.addr = server_as.alloc(staging_bytes);
    staging.rkey = server.register_memory(staging.addr, staging_bytes).key;
  }

  ModelConfig cfg;
  Stats stats;
  fault::Injector faults{FaultConfig{}, stats};
  vmem::AddressSpace client_as, server_as;
  ib::Hca client, server;
  ib::MrCache cache;
  core::GroupRegistrar registrar;
  ib::Fabric fabric;
  core::NoncontigTransfer xfer;
  core::TransferEndpoint ep;
  core::StagingBuffer staging;
};

double run_case(u64 n, const core::TransferPolicy& policy, bool warm_cache,
                bool contiguous) {
  workloads::SubarrayLayout l;
  l.n = n;
  // The paper packs the whole subarray in one buffer; match that.
  Rig rig(l.sub_bytes(), l.sub_bytes());
  const u64 base = l.alloc_array(rig.client_as);
  core::MemSegmentList segs;
  if (contiguous) {
    segs = {{base, l.sub_bytes()}};
  } else {
    segs = l.subarray_rows(base, 0, 0);
  }
  if (warm_cache) {
    core::OgrOutcome warm = rig.registrar.acquire(segs, policy.reg_strategy);
    if (!warm.ok()) return 0.0;
    rig.registrar.release(warm);
    rig.client.nic().reset();
    rig.server.nic().reset();
  }
  core::TransferOutcome out = rig.xfer.push(rig.ep, segs, rig.staging,
                                            TimePoint::origin(), policy);
  if (!out.ok()) {
    std::fprintf(stderr, "fig3: %s\n", out.status.to_string().c_str());
    return 0.0;
  }
  return bandwidth_mib(out.bytes, out.complete - TimePoint::origin());
}

void run() {
  header("Figure 3: Bandwidth of noncontiguous transfer schemes",
         "one subarray (N/2 x N/2 ints of an N x N array) compute -> I/O "
         "node; MB/s\n(paper shape: gather/one-reg ~= contiguous at large N; "
         "pack best at small N;\nper-row registration collapses)");

  core::TransferPolicy contiguous_pol;
  contiguous_pol.scheme = core::XferScheme::kRdmaGatherScatter;

  core::TransferPolicy gather_ogr = contiguous_pol;  // OGR is the default
  core::TransferPolicy gather_indiv = contiguous_pol;
  gather_indiv.reg_strategy = core::RegStrategy::kIndividual;
  core::TransferPolicy multiple;
  multiple.scheme = core::XferScheme::kMultipleMessage;
  core::TransferPolicy pack_noreg;
  pack_noreg.scheme = core::XferScheme::kPackUnpack;
  core::TransferPolicy pack_reg = pack_noreg;
  pack_reg.pack_preregistered = false;

  Table t({"array N", "subarray", "contig,noreg", "multiple,noreg",
           "gather,one reg", "gather,multi reg", "pack,noreg", "pack,reg"});
  for (u64 n : {256, 512, 1024, 2048, 4096, 8192}) {
    workloads::SubarrayLayout l;
    l.n = n;
    std::string size = std::to_string(l.sub_bytes() / kKiB) + " KiB";
    t.row({fmt_int(static_cast<i64>(n)), size,
           fmt(run_case(n, contiguous_pol, true, true), 0),
           fmt(run_case(n, multiple, true, false), 0),
           fmt(run_case(n, gather_ogr, false, false), 0),
           fmt(run_case(n, gather_indiv, false, false), 0),
           fmt(run_case(n, pack_noreg, false, false), 0),
           fmt(run_case(n, pack_reg, false, false), 0)});
  }
  t.print();
}

}  // namespace
}  // namespace pvfsib::bench

int main() {
  pvfsib::bench::run();
  return 0;
}
