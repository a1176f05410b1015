// The switched InfiniBand fabric connecting the cluster's HCAs.
//
// Transfers are passive with respect to the event engine: a caller supplies
// the time it is ready to start and receives the completion time; both
// endpoint NICs are occupied for the wire time, which is how link-level
// contention under fan-in/fan-out arises. The fabric books a transfer and
// moves none of its payload: the caller lands the bytes, once, after the
// transfer succeeded (pvfs::Client for every PVFS round, MPI-IO for its
// exchange), through core::copy_stream.
//
// Timing model for a (possibly chunked) gather/scatter RDMA of B bytes with
// S SGEs split into W = ceil(S / max_sge) work requests:
//
//   cost = one-way latency                      (paid once per operation)
//        + W * per_wr_overhead                  (doorbell + descriptor)
//        + S * per_sge_overhead                 (descriptor fetch per SGE)
//        + misalign_penalty per WR with any non-8-byte-aligned SGE
//        + B / bandwidth                        (wire occupancy)
//
// Only the wire-occupancy term holds the NIC resources; the fixed overheads
// are initiator-side CPU/HCA work.
#pragma once

#include <span>

#include "common/config.h"
#include "common/stats.h"
#include "ib/verbs.h"
#include "sim/resource.h"

namespace pvfsib::fault {
class Injector;
}

namespace pvfsib::ib {

enum class ControlKind { kRequest, kReply, kInterClient };

struct TransferResult {
  Status status;
  TimePoint complete = TimePoint::origin();
  u64 bytes = 0;

  bool ok() const { return status.is_ok(); }
};

class Fabric {
 public:
  // `faults` perturbs transfers: retransmit cost, latency spikes,
  // completion errors.
  Fabric(const NetParams& params, Stats& stats, fault::Injector& faults);

  // Channel-semantics message (send/recv). Control messages carry protocol
  // headers; their payload is not modeled byte-for-byte, only timed.
  TimePoint send_control(Hca& src, Hca& dst, u64 bytes, TimePoint ready,
                         ControlKind kind);

  // RDMA Write with gather: local SGEs -> remote contiguous [raddr, ...).
  TransferResult rdma_write_gather(Hca& local, std::span<const Sge> sges,
                                   Hca& remote, u64 raddr, u32 rkey,
                                   TimePoint ready);

  // RDMA Read with scatter: remote contiguous [raddr, ...) -> local SGEs.
  TransferResult rdma_read_scatter(Hca& local, std::span<const Sge> sges,
                                   Hca& remote, u64 raddr, u32 rkey,
                                   TimePoint ready);

  // Multiple-Message scheme: one work request per SGE (no gathering), the
  // WRs pipelined on one QP so the one-way latency is paid once but the
  // per-WR startup accrues for every buffer.
  TransferResult rdma_write_per_buffer(Hca& local, std::span<const Sge> sges,
                                       Hca& remote, u64 raddr, u32 rkey,
                                       TimePoint ready);
  TransferResult rdma_read_per_buffer(Hca& local, std::span<const Sge> sges,
                                      Hca& remote, u64 raddr, u32 rkey,
                                      TimePoint ready);

  // Convenience single-SGE forms.
  TransferResult rdma_write(Hca& local, const Sge& sge, Hca& remote, u64 raddr,
                            u32 rkey, TimePoint ready) {
    return rdma_write_gather(local, {&sge, 1}, remote, raddr, rkey, ready);
  }
  TransferResult rdma_read(Hca& local, const Sge& sge, Hca& remote, u64 raddr,
                           u32 rkey, TimePoint ready) {
    return rdma_read_scatter(local, {&sge, 1}, remote, raddr, rkey, ready);
  }

  const NetParams& params() const { return params_; }

 private:
  enum class Op { kWrite, kRead };

  TransferResult rdma_common(Op op, Hca& local, std::span<const Sge> sges,
                             Hca& remote, u64 raddr, u32 rkey, TimePoint ready,
                             u32 sges_per_wr);
  Duration fixed_overheads(Op op, std::span<const Sge> sges,
                           u32 sges_per_wr) const;

  NetParams params_;
  Stats& stats_;
  fault::Injector& faults_;
};

}  // namespace pvfsib::ib
