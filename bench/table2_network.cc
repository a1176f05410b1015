// Table 2: raw network performance of the simulated InfiniBand fabric —
// 4-byte one-way latency and large-message bandwidth for VAPI RDMA Write,
// VAPI RDMA Read, and the channel-semantics (MVAPICH) path.
//
// Paper values: write 6.0 us / 827 MB/s, read 12.4 us / 816 MB/s,
// MVAPICH 6.8 us / 822 MB/s.
#include "bench_common.h"

#include "ib/fabric.h"

namespace pvfsib::bench {
namespace {

void run() {
  header("Table 2: Network performance",
         "4-byte one-way latency and asymptotic bandwidth over the simulated "
         "fabric\n(paper: RDMA Write 6.0 us / 827 MB/s, RDMA Read 12.4 us / "
         "816 MB/s, MVAPICH 6.8 us / 822 MB/s)");

  const ModelConfig cfg = ModelConfig::paper_defaults();
  Stats stats;
  fault::Injector faults(FaultConfig{}, stats);
  vmem::AddressSpace as_a, as_b;
  ib::Hca a("a", as_a, cfg.reg, stats);
  ib::Hca b("b", as_b, cfg.reg, stats);
  ib::Fabric fabric(cfg.net, stats, faults);

  const u64 big = 64 * kMiB;
  const u64 addr_a = as_a.alloc(big);
  const u64 addr_b = as_b.alloc(big);
  const u32 key_a = a.register_memory(addr_a, big).key;
  const u32 key_b = b.register_memory(addr_b, big).key;

  auto latency_us = [&](auto&& op) {
    a.nic().reset();
    b.nic().reset();
    return (op(4) - TimePoint::origin()).as_us();
  };
  auto bandwidth = [&](auto&& op) {
    a.nic().reset();
    b.nic().reset();
    return bandwidth_mib(big, op(big) - TimePoint::origin());
  };

  auto rdma_write = [&](u64 n) {
    return fabric
        .rdma_write(a, {addr_a, n, key_a}, b, addr_b, key_b,
                    TimePoint::origin())
        .complete;
  };
  auto rdma_read = [&](u64 n) {
    return fabric
        .rdma_read(a, {addr_a, n, key_a}, b, addr_b, key_b,
                   TimePoint::origin())
        .complete;
  };
  auto send = [&](u64 n) {
    return fabric.send_control(a, b, n, TimePoint::origin(),
                               ib::ControlKind::kRequest);
  };

  Table t({"path", "latency (us)", "bandwidth (MB/s)", "paper lat", "paper bw"});
  t.row({"VAPI RDMA Write", fmt(latency_us(rdma_write)),
         fmt(bandwidth(rdma_write), 0), "6.0", "827"});
  t.row({"VAPI RDMA Read", fmt(latency_us(rdma_read)),
         fmt(bandwidth(rdma_read), 0), "12.4", "816"});
  t.row({"MVAPICH (send/recv)", fmt(latency_us(send)),
         fmt(bandwidth(send), 0), "6.8", "822"});
  t.print();
}

}  // namespace
}  // namespace pvfsib::bench

int main() {
  pvfsib::bench::run();
  return 0;
}
