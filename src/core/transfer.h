// Noncontiguous data transmission between a client's scattered list I/O
// buffers and a server's contiguous staging buffer (Section 4).
//
// Three schemes, plus the hybrid the paper finally adopts:
//
//   Multiple Message    one RDMA write/read per contiguous buffer
//   Pack/Unpack         memcpy through a bounce buffer, one big transfer
//                       (the bounce buffer may come from a pre-registered
//                       pool — the Fast-RDMA path — or be registered fresh)
//   RDMA Gather/Scatter one work request carrying up to 64 SGEs, buffers
//                       pinned via Optimistic Group Registration
//   Hybrid              Pack/Unpack when the stream fits the bounce buffer
//                       (64 kB, the PVFS stripe size), Gather/Scatter above
//
// push() books client memory -> server buffer (file writes); pull() books
// server buffer -> client memory (file reads). Pack/unpack chunks the
// stream through the bounce buffer; a stream larger than the server
// staging buffer is refused (the PVFS layer splits it into rounds).
//
// Like the fabric, this layer only books: push and pull run each scheme's
// registrations, copy charges and work requests and move no bytes.
// Pack/unpack charges its copies into and out of the bounce buffer but
// never makes them. Once a transfer has succeeded, its caller lands the
// stream once, through copy_stream or copy_segments, the landing rule.
#pragma once

#include <span>
#include <vector>

#include "common/byte_mover.h"
#include "common/config.h"
#include "common/sim_time.h"
#include "core/listio.h"
#include "core/ogr.h"
#include "ib/fabric.h"

namespace pvfsib::core {

enum class XferScheme {
  kMultipleMessage,
  kPackUnpack,
  kRdmaGatherScatter,
  kHybrid,
};

const char* to_string(XferScheme s);

struct TransferPolicy {
  XferScheme scheme = XferScheme::kHybrid;
  RegStrategy reg_strategy = RegStrategy::kOgr;
  // Pack bounce buffer comes from a pre-registered pool ("pack, no reg");
  // false registers/deregisters it around every transfer ("pack, reg").
  bool pack_preregistered = true;
};

// One side's fixed transfer resources: its HCA, registrar and a
// pre-registered bounce buffer (the Fast-RDMA buffer). kHybrid packs a
// stream that fits the bounce buffer in one window.
struct TransferEndpoint {
  ib::Hca* hca = nullptr;
  GroupRegistrar* registrar = nullptr;
  u64 bounce_addr = 0;
  u64 bounce_size = 0;
  u32 bounce_key = 0;
};

// The server side of a transfer: a contiguous registered staging buffer.
struct StagingBuffer {
  ib::Hca* hca = nullptr;
  u64 addr = 0;
  u64 size = 0;
  u32 rkey = 0;
};

// One piece of a byte stream read where it lies: `length` bytes, the first
// bytes.size() of them `bytes` and the rest zeros (a read past EOF).
struct StreamPiece {
  std::span<const std::byte> bytes;
  u64 length = 0;
};

// Copy `pieces` end to end, in stream order, over the segments `dst` of
// `as`, as one ByteMover batch built in `batch`; the segments' lengths sum
// to the pieces'. Every segment grows before any pointer into `as` is
// taken. Growing may move `as`, so a piece that points into `as` must be
// taken after `as` already covers `dst`. Where segments overlap the later
// piece wins, as ByteMover copies overlapping destinations in order.
void copy_stream(std::span<const StreamPiece> pieces, vmem::AddressSpace& as,
                 std::span<const MemSegment> dst, std::vector<CopyOp>& batch);

// Copy the stream laid over the segments `src` of `from` onto the segments
// `dst` of `to`, as one copy_stream call; `pieces` and `batch` are its
// scratch. `from` and `to` may be one address space: every destination
// grows before any source is viewed.
void copy_segments(const vmem::AddressSpace& from,
                   std::span<const MemSegment> src, vmem::AddressSpace& to,
                   std::span<const MemSegment> dst,
                   std::vector<StreamPiece>& pieces,
                   std::vector<CopyOp>& batch);

struct TransferOutcome {
  Status status;
  TimePoint complete = TimePoint::origin();
  u64 bytes = 0;
  Duration reg_cost = Duration::zero();
  Duration copy_cost = Duration::zero();

  bool ok() const { return status.is_ok(); }
};

class NoncontigTransfer {
 public:
  NoncontigTransfer(ib::Fabric& fabric, const MemParams& mem)
      : fabric_(fabric), mem_(mem) {}

  // Client segments -> server staging buffer, starting at buffer offset 0.
  TransferOutcome push(TransferEndpoint& client,
                       std::span<const MemSegment> segments,
                       StagingBuffer& server, TimePoint ready,
                       const TransferPolicy& policy);

  // Server staging buffer (offset 0, `bytes` long) -> client segments.
  TransferOutcome pull(TransferEndpoint& client,
                       std::span<const MemSegment> segments,
                       StagingBuffer& server, TimePoint ready,
                       const TransferPolicy& policy);

 private:
  enum class Dir { kPush, kPull };

  TransferOutcome run(Dir dir, TransferEndpoint& client,
                      std::span<const MemSegment> segments,
                      StagingBuffer& server, TimePoint ready,
                      const TransferPolicy& policy);

  TransferOutcome multiple_message(Dir dir, TransferEndpoint& client,
                                   std::span<const MemSegment> segments,
                                   StagingBuffer& server, TimePoint ready,
                                   const TransferPolicy& policy);
  TransferOutcome pack_unpack(Dir dir, TransferEndpoint& client,
                              std::span<const MemSegment> segments,
                              StagingBuffer& server, TimePoint ready,
                              const TransferPolicy& policy);
  TransferOutcome gather_scatter(Dir dir, TransferEndpoint& client,
                                 std::span<const MemSegment> segments,
                                 StagingBuffer& server, TimePoint ready,
                                 const TransferPolicy& policy);

  ib::Fabric& fabric_;
  MemParams mem_;
};

}  // namespace pvfsib::core
