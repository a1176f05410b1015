#include "ib/fabric.h"

#include "fault/injector.h"

namespace pvfsib::ib {

Fabric::Fabric(const NetParams& params, Stats& stats, fault::Injector& faults)
    : params_(params), stats_(stats), faults_(faults) {}

TimePoint Fabric::send_control(Hca& src, Hca& dst, u64 bytes, TimePoint ready,
                               ControlKind kind) {
  // Small messages ride the send/recv (channel) path.
  const Duration wire = transfer_time(bytes, params_.send_bw) +
                        faults_.perturb_transfer(ready, bytes, params_.send_bw);
  const TimePoint start =
      max(src.nic().earliest_start(ready), dst.nic().earliest_start(ready));
  src.nic().acquire(start, wire);
  dst.nic().acquire(start, wire);
  stats_.add(stat::kSend);
  stats_.add(kind == ControlKind::kInterClient ? stat::kNetBytesInterClient
                                               : stat::kNetBytesControl,
             static_cast<i64>(bytes));
  return start + wire + params_.send_latency;
}

Duration Fabric::fixed_overheads(Op op, std::span<const Sge> sges,
                                 u32 sges_per_wr) const {
  const u64 n_sges = sges.size();
  const u64 n_wrs = (n_sges + sges_per_wr - 1) / sges_per_wr;
  Duration cost = params_.per_wr_overhead * static_cast<i64>(n_wrs) +
                  params_.per_sge_overhead * static_cast<i64>(n_sges);
  // Misalignment penalty: once per WR containing any misaligned SGE.
  bool wr_misaligned = false;
  u64 in_wr = 0;
  for (const Sge& s : sges) {
    wr_misaligned = wr_misaligned || (s.addr % 8 != 0);
    if (++in_wr == sges_per_wr) {
      if (wr_misaligned) cost += params_.misalign_penalty;
      wr_misaligned = false;
      in_wr = 0;
    }
  }
  if (in_wr > 0 && wr_misaligned) cost += params_.misalign_penalty;
  // One-way latency, paid once per operation.
  cost += op == Op::kWrite ? params_.rdma_write_latency
                           : params_.rdma_read_latency;
  return cost;
}

TransferResult Fabric::rdma_common(Op op, Hca& local,
                                   std::span<const Sge> sges, Hca& remote,
                                   u64 raddr, u32 rkey, TimePoint ready,
                                   u32 sges_per_wr) {
  TransferResult out;
  out.status = local.validate_sges(sges);
  if (!out.status.is_ok()) return out;

  u64 total = 0;
  for (const Sge& s : sges) total += s.length;
  if (!remote.validate(rkey, raddr, total)) {
    out.status = permission_denied("remote range not covered by rkey MR");
    return out;
  }

  if (faults_.completion_error()) {
    // The WR was posted and errored on the HCA: no wire time is occupied,
    // and the consumer sees a retryable failure.
    out.status = unavailable("work request completed in error (injected)");
    out.complete = ready + fixed_overheads(op, sges, sges_per_wr);
    return out;
  }

  const double bw =
      op == Op::kWrite ? params_.rdma_write_bw : params_.rdma_read_bw;
  const Duration wire =
      transfer_time(total, bw) + faults_.perturb_transfer(ready, total, bw);
  const TimePoint start = max(local.nic().earliest_start(ready),
                              remote.nic().earliest_start(ready));
  local.nic().acquire(start, wire);
  remote.nic().acquire(start, wire);

  out.status = Status::ok();
  out.bytes = total;
  out.complete = start + wire + fixed_overheads(op, sges, sges_per_wr);
  stats_.add(op == Op::kWrite ? stat::kRdmaWrite : stat::kRdmaRead);
  stats_.add(stat::kNetBytesData, static_cast<i64>(total));
  return out;
}

TransferResult Fabric::rdma_write_gather(Hca& local, std::span<const Sge> sges,
                                         Hca& remote, u64 raddr, u32 rkey,
                                         TimePoint ready) {
  return rdma_common(Op::kWrite, local, sges, remote, raddr, rkey, ready,
                     params_.max_sge);
}

TransferResult Fabric::rdma_read_scatter(Hca& local, std::span<const Sge> sges,
                                         Hca& remote, u64 raddr, u32 rkey,
                                         TimePoint ready) {
  return rdma_common(Op::kRead, local, sges, remote, raddr, rkey, ready,
                     params_.max_sge);
}

TransferResult Fabric::rdma_write_per_buffer(Hca& local,
                                             std::span<const Sge> sges,
                                             Hca& remote, u64 raddr, u32 rkey,
                                             TimePoint ready) {
  return rdma_common(Op::kWrite, local, sges, remote, raddr, rkey, ready, 1);
}

TransferResult Fabric::rdma_read_per_buffer(Hca& local,
                                            std::span<const Sge> sges,
                                            Hca& remote, u64 raddr, u32 rkey,
                                            TimePoint ready) {
  return rdma_common(Op::kRead, local, sges, remote, raddr, rkey, ready, 1);
}

}  // namespace pvfsib::ib
