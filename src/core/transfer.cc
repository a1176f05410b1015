#include "core/transfer.h"

#include <algorithm>
#include <array>
#include <cassert>

namespace pvfsib::core {

const char* to_string(XferScheme s) {
  switch (s) {
    case XferScheme::kMultipleMessage:
      return "multiple-message";
    case XferScheme::kPackUnpack:
      return "pack/unpack";
    case XferScheme::kRdmaGatherScatter:
      return "rdma-gather/scatter";
    case XferScheme::kHybrid:
      return "hybrid";
  }
  return "?";
}

namespace {

u64 stream_bytes(std::span<const MemSegment> segments) {
  u64 total = 0;
  for (const MemSegment& s : segments) total += s.length;
  return total;
}

// The source of the zeros copy_stream copies past a piece's bytes.
constexpr u64 kZeroBlock = 64 * kKiB;
const std::byte* zero_block() {
  static const std::array<std::byte, kZeroBlock> zeros{};
  return zeros.data();
}

}  // namespace

void copy_stream(std::span<const StreamPiece> pieces, vmem::AddressSpace& as,
                 std::span<const MemSegment> dst, std::vector<CopyOp>& batch) {
  for (const MemSegment& d : dst) as.writable_span(d.addr, d.length);
  batch.clear();
  size_t di = 0;
  u64 used = 0;  // bytes of dst[di] already laid
  // Lay `n` bytes from `src`, or `n` zeros when `src` is null.
  const auto lay = [&](const std::byte* src, u64 n) {
    while (n > 0) {
      assert(di < dst.size());
      u64 take = std::min(n, dst[di].length - used);
      if (src == nullptr) take = std::min(take, kZeroBlock);
      if (take > 0) {
        batch.push_back({as.data(dst[di].addr + used),
                         src == nullptr ? zero_block() : src, take});
      }
      if (src != nullptr) src += take;
      used += take;
      n -= take;
      if (used == dst[di].length) {
        ++di;
        used = 0;
      }
    }
  };
  for (const StreamPiece& p : pieces) {
    lay(p.bytes.data(), p.bytes.size());
    lay(nullptr, p.length - p.bytes.size());
  }
  ByteMover::shared().copy(batch);
}

void copy_segments(const vmem::AddressSpace& from,
                   std::span<const MemSegment> src, vmem::AddressSpace& to,
                   std::span<const MemSegment> dst,
                   std::vector<StreamPiece>& pieces,
                   std::vector<CopyOp>& batch) {
  // Grow the destination before taking the sources' pointers, in case both
  // sides share an address space.
  for (const MemSegment& d : dst) to.writable_span(d.addr, d.length);
  pieces.clear();
  for (const MemSegment& s : src) {
    pieces.push_back({from.readable_span(s.addr, s.length), s.length});
  }
  copy_stream(pieces, to, dst, batch);
}

TransferOutcome NoncontigTransfer::push(TransferEndpoint& client,
                                        std::span<const MemSegment> segments,
                                        StagingBuffer& server, TimePoint ready,
                                        const TransferPolicy& policy) {
  return run(Dir::kPush, client, segments, server, ready, policy);
}

TransferOutcome NoncontigTransfer::pull(TransferEndpoint& client,
                                        std::span<const MemSegment> segments,
                                        StagingBuffer& server, TimePoint ready,
                                        const TransferPolicy& policy) {
  return run(Dir::kPull, client, segments, server, ready, policy);
}

TransferOutcome NoncontigTransfer::run(Dir dir, TransferEndpoint& client,
                                       std::span<const MemSegment> segments,
                                       StagingBuffer& server, TimePoint ready,
                                       const TransferPolicy& policy) {
  TransferOutcome out;
  const u64 total = stream_bytes(segments);
  if (total == 0) {
    out.status = invalid_argument("empty transfer");
    return out;
  }
  if (total > server.size) {
    out.status = invalid_argument(
        "transfer exceeds server staging buffer; chunk at the PVFS layer");
    return out;
  }

  XferScheme scheme = policy.scheme;
  if (scheme == XferScheme::kHybrid) {
    scheme = total <= client.bounce_size ? XferScheme::kPackUnpack
                                         : XferScheme::kRdmaGatherScatter;
  }
  switch (scheme) {
    case XferScheme::kMultipleMessage:
      return multiple_message(dir, client, segments, server, ready, policy);
    case XferScheme::kPackUnpack:
      return pack_unpack(dir, client, segments, server, ready, policy);
    case XferScheme::kRdmaGatherScatter:
      return gather_scatter(dir, client, segments, server, ready, policy);
    case XferScheme::kHybrid:
      break;  // resolved above
  }
  out.status = internal_error("unreachable transfer scheme");
  return out;
}

TransferOutcome NoncontigTransfer::multiple_message(
    Dir dir, TransferEndpoint& client, std::span<const MemSegment> segments,
    StagingBuffer& server, TimePoint ready, const TransferPolicy& policy) {
  (void)policy;
  TransferOutcome out;
  // Each buffer is pinned on its own (the scheme's defining property); a
  // warm pin-down cache turns this into the paper's "multiple, no reg".
  OgrOutcome reg =
      client.registrar->acquire(segments, RegStrategy::kIndividual);
  out.reg_cost = reg.cost;
  if (!reg.ok()) {
    out.status = reg.status;
    out.complete = ready + reg.cost;
    return out;
  }
  const TimePoint posted = ready + reg.cost;
  ib::TransferResult tr =
      dir == Dir::kPush
          ? fabric_.rdma_write_per_buffer(*client.hca, reg.sges, *server.hca,
                                          server.addr, server.rkey, posted)
          : fabric_.rdma_read_per_buffer(*client.hca, reg.sges, *server.hca,
                                         server.addr, server.rkey, posted);
  client.registrar->release(reg);
  out.status = tr.status;
  out.bytes = tr.bytes;
  out.complete = tr.complete;
  return out;
}

TransferOutcome NoncontigTransfer::pack_unpack(
    Dir dir, TransferEndpoint& client, std::span<const MemSegment> segments,
    StagingBuffer& server, TimePoint ready, const TransferPolicy& policy) {
  TransferOutcome out;
  assert(client.bounce_size > 0 && "pack/unpack requires a bounce buffer");
  TimePoint now = ready;

  u32 bounce_key = client.bounce_key;
  u64 dereg_bytes = 0;
  if (!policy.pack_preregistered) {
    // "pack, reg": the temporary buffer is registered for this operation.
    ib::RegAttempt reg =
        client.hca->register_memory(client.bounce_addr, client.bounce_size);
    out.reg_cost += reg.cost;
    now += reg.cost;
    if (!reg.ok()) {
      out.status = reg.status;
      out.complete = now;
      return out;
    }
    bounce_key = reg.key;
    dereg_bytes = client.bounce_size;
  }

  // Stream the segments through the bounce buffer window by window. The
  // single bounce buffer serializes pack and wire phases (no pipelining).
  const u64 total = stream_bytes(segments);
  for (u64 stream_off = 0; stream_off < total;) {
    const u64 window = std::min(client.bounce_size, total - stream_off);
    const ib::Sge sge{client.bounce_addr, window, bounce_key};
    // The pack into the bounce buffer is charged before its write, the
    // unpack out of it after its fetch.
    const Duration copy = mem_.copy_cost(window);
    if (dir == Dir::kPush) {
      out.copy_cost += copy;
      now += copy;
    }
    ib::TransferResult tr =
        dir == Dir::kPush
            ? fabric_.rdma_write_gather(*client.hca, {&sge, 1}, *server.hca,
                                        server.addr + stream_off, server.rkey,
                                        now)
            : fabric_.rdma_read_scatter(*client.hca, {&sge, 1}, *server.hca,
                                        server.addr + stream_off, server.rkey,
                                        now);
    if (!tr.ok()) {
      out.status = tr.status;
      out.complete = max(tr.complete, now);
      return out;
    }
    now = tr.complete;
    if (dir == Dir::kPull) {
      out.copy_cost += copy;
      now += copy;
    }
    stream_off += window;
  }

  if (dereg_bytes > 0) {
    const Duration dereg = client.hca->deregister(bounce_key);
    out.reg_cost += dereg;
    now += dereg;
  }
  out.status = Status::ok();
  out.bytes = total;
  out.complete = now;
  return out;
}

TransferOutcome NoncontigTransfer::gather_scatter(
    Dir dir, TransferEndpoint& client, std::span<const MemSegment> segments,
    StagingBuffer& server, TimePoint ready, const TransferPolicy& policy) {
  TransferOutcome out;
  OgrOutcome reg = client.registrar->acquire(segments, policy.reg_strategy);
  out.reg_cost = reg.cost;
  if (!reg.ok()) {
    out.status = reg.status;
    out.complete = ready + reg.cost;
    return out;
  }
  TimePoint now = ready + reg.cost;

  // One gather/scatter op covers the whole stream (the fabric chunks into
  // max_sge work requests internally); no staging windows are needed since
  // the stream fits the server buffer (checked by run()).
  ib::TransferResult tr =
      dir == Dir::kPush
          ? fabric_.rdma_write_gather(*client.hca, reg.sges, *server.hca,
                                      server.addr, server.rkey, now)
          : fabric_.rdma_read_scatter(*client.hca, reg.sges, *server.hca,
                                      server.addr, server.rkey, now);
  client.registrar->release(reg);
  if (!tr.ok()) {
    out.status = tr.status;
    // The errored WR still completed at a point in time; callers that
    // retry must not observe a completion before they started.
    out.complete = max(tr.complete, now);
    return out;
  }
  out.status = Status::ok();
  out.bytes = tr.bytes;
  out.complete = tr.complete;
  return out;
}

}  // namespace pvfsib::core
