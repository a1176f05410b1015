// Ablation: why does noncontiguous data transmission suddenly matter?
//
// Section 3.2: "Performance issues in noncontiguous data transmission are
// often ignored in conventional networks because of their high overhead and
// low bandwidth ... however, in low overhead and high bandwidth networks
// such as InfiniBand, these overheads have a significant impact."
//
// This bench runs the Figure 3 subarray transfer under the paper's
// InfiniBand parameters and under a TCP/GigE-era configuration and reports
// the spread between the best and worst scheme: large on InfiniBand,
// small on TCP.
#include "bench_common.h"

#include "core/transfer.h"
#include "workloads/subarray.h"

namespace pvfsib::bench {
namespace {

struct Rig {
  Rig(const ModelConfig& cfg, u64 bounce, u64 staging_bytes)
      : client("client", client_as, cfg.reg, stats),
        server("server", server_as, cfg.reg, stats),
        cache(client),
        registrar(cache, cfg.os, core::OgrConfig{}, stats),
        fabric(cfg.net, stats, faults),
        xfer(fabric, cfg.mem) {
    ep.hca = &client;
    ep.registrar = &registrar;
    ep.bounce_size = bounce;
    ep.bounce_addr = client_as.alloc(bounce);
    ep.bounce_key = client.register_memory(ep.bounce_addr, bounce).key;
    staging.hca = &server;
    staging.size = staging_bytes;
    staging.addr = server_as.alloc(staging_bytes);
    staging.rkey = server.register_memory(staging.addr, staging_bytes).key;
  }
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

double run_scheme(const ModelConfig& cfg, u64 n, core::XferScheme scheme) {
  workloads::SubarrayLayout l;
  l.n = n;
  Rig rig(cfg, l.sub_bytes(), l.sub_bytes());
  const u64 base = l.alloc_array(rig.client_as);
  const core::MemSegmentList segs = l.subarray_rows(base, 0, 0);
  core::TransferPolicy pol;
  pol.scheme = scheme;
  core::TransferOutcome out =
      rig.xfer.push(rig.ep, segs, rig.staging, TimePoint::origin(), pol);
  if (!out.ok()) return 0.0;
  return bandwidth_mib(out.bytes, out.complete - TimePoint::origin());
}

void run_net(const char* name, const ModelConfig& cfg) {
  std::printf("  -- %s --\n", name);
  Table t({"array N", "multiple", "pack/unpack", "gather+OGR",
           "best/worst"});
  for (u64 n : {512, 1024, 2048, 4096}) {
    const double multi = run_scheme(cfg, n, core::XferScheme::kMultipleMessage);
    const double pack = run_scheme(cfg, n, core::XferScheme::kPackUnpack);
    const double gather =
        run_scheme(cfg, n, core::XferScheme::kRdmaGatherScatter);
    const double best = std::max({multi, pack, gather});
    const double worst = std::min({multi, pack, gather});
    t.row({fmt_int(static_cast<i64>(n)), fmt(multi, 0), fmt(pack, 0),
           fmt(gather, 0), fmt(best / worst, 2) + "x"});
  }
  t.print();
  std::printf("\n");
}

void run() {
  header("Ablation: transfer schemes vs. network generation",
         "same subarray transfer on the paper's InfiniBand vs a TCP/GigE-era "
         "network\n(claim: the scheme choice matters on InfiniBand, barely "
         "on conventional networks)");
  run_net("InfiniBand (paper testbed)", ModelConfig::paper_defaults());
  run_net("TCP / GigE era", ModelConfig::tcp_era());
}

}  // namespace
}  // namespace pvfsib::bench

int main() {
  pvfsib::bench::run();
  return 0;
}
