#include "core/transfer.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "fault/injector.h"

namespace pvfsib::core {
namespace {

class TransferTest : public ::testing::Test {
 protected:
  TransferTest()
      : client_hca_("client", client_as_, RegParams{}, stats_),
        server_hca_("server", server_as_, RegParams{}, stats_),
        cache_(client_hca_),
        registrar_(cache_, OsParams{}, OgrConfig{}, stats_),
        fabric_(NetParams{}, stats_, faults_),
        xfer_(fabric_, MemParams{}) {
    // Client bounce buffer (the Fast-RDMA buffer), pre-registered.
    ep_.hca = &client_hca_;
    ep_.registrar = &registrar_;
    ep_.bounce_size = 64 * kKiB;
    ep_.bounce_addr = client_as_.alloc(ep_.bounce_size);
    auto reg = client_hca_.register_memory(ep_.bounce_addr, ep_.bounce_size);
    EXPECT_TRUE(reg.ok());
    ep_.bounce_key = reg.key;
    // Server staging buffer.
    staging_.hca = &server_hca_;
    staging_.size = 16 * kMiB;
    staging_.addr = server_as_.alloc(staging_.size);
    auto sreg = server_hca_.register_memory(staging_.addr, staging_.size);
    EXPECT_TRUE(sreg.ok());
    staging_.rkey = sreg.key;
  }

  // Strided rows within one allocation, filled with a pattern.
  MemSegmentList make_rows(u64 rows, u64 row_bytes, u64 stride) {
    const u64 base = client_as_.alloc(rows * stride);
    MemSegmentList segs;
    for (u64 r = 0; r < rows; ++r) {
      const u64 addr = base + r * stride;
      segs.push_back({addr, row_bytes});
      for (u64 i = 0; i < row_bytes; ++i) {
        client_as_.write_pod<u8>(addr + i, static_cast<u8>(r * 31 + i));
      }
    }
    return segs;
  }

  // An `n`-byte stream's segments: random 1-4096-byte lengths with random
  // gaps of up to 15 bytes between them, in one fresh allocation.
  MemSegmentList fragment(Rng& rng, u64 n) {
    MemSegmentList segs;
    u64 end = 0;
    for (u64 left = n; left > 0;) {
      const u64 len = std::min<u64>(rng.range(1, 4096), left);
      segs.push_back({end, len});
      end += len + rng.range(0, 15);
      left -= len;
    }
    const u64 base = client_as_.alloc(end);
    for (MemSegment& s : segs) s.addr += base;
    return segs;
  }

  // Verify the server staging buffer holds the packed stream.
  void expect_stream_at_server(const MemSegmentList& segs) {
    u64 off = 0;
    for (const MemSegment& s : segs) {
      ASSERT_EQ(std::memcmp(server_as_.data(staging_.addr + off),
                            client_as_.data(s.addr), s.length),
                0);
      off += s.length;
    }
  }

  TransferPolicy policy(XferScheme s) {
    TransferPolicy p;
    p.scheme = s;
    return p;
  }

  vmem::AddressSpace client_as_, server_as_;
  Stats stats_;
  fault::Injector faults_{FaultConfig{}, stats_};
  ib::Hca client_hca_, server_hca_;
  ib::MrCache cache_;
  GroupRegistrar registrar_;
  ib::Fabric fabric_;
  NoncontigTransfer xfer_;
  TransferEndpoint ep_;
  StagingBuffer staging_;
};

TEST_F(TransferTest, PushCorrectnessAllSchemes) {
  for (XferScheme s :
       {XferScheme::kMultipleMessage, XferScheme::kPackUnpack,
        XferScheme::kRdmaGatherScatter, XferScheme::kHybrid}) {
    SCOPED_TRACE(to_string(s));
    const MemSegmentList segs = make_rows(37, 1000, 4096);
    // Every scheme pushes the same rows: clear what the last one landed.
    std::memset(server_as_.data(staging_.addr), 0, 37 * 1000);
    TransferOutcome out =
        xfer_.push(ep_, segs, staging_, TimePoint::origin(), policy(s));
    ASSERT_TRUE(out.ok()) << out.status.to_string();
    EXPECT_EQ(out.bytes, 37u * 1000u);
    expect_stream_at_server(segs);
  }
}

TEST_F(TransferTest, PullCorrectnessAllSchemes) {
  Rng rng(3);
  for (XferScheme s :
       {XferScheme::kMultipleMessage, XferScheme::kPackUnpack,
        XferScheme::kRdmaGatherScatter, XferScheme::kHybrid}) {
    SCOPED_TRACE(to_string(s));
    // Fill the staging buffer with fresh data.
    const u64 total = 37 * 1000;
    for (u64 i = 0; i < total; ++i) {
      server_as_.write_pod<u8>(staging_.addr + i,
                               static_cast<u8>(rng.next()));
    }
    MemSegmentList segs = make_rows(37, 1000, 4096);
    TransferOutcome out =
        xfer_.pull(ep_, segs, staging_, TimePoint::origin(), policy(s));
    ASSERT_TRUE(out.ok()) << out.status.to_string();
    u64 off = 0;
    for (const MemSegment& m : segs) {
      ASSERT_EQ(std::memcmp(client_as_.data(m.addr),
                            server_as_.data(staging_.addr + off), m.length),
                0);
      off += m.length;
    }
  }
}

// Property: every scheme carries the whole stream byte for byte, however
// the client side is fragmented. Each scheme pushes a fresh 96 KiB stream
// from random segments and pulls it back into fresh ones; the stream spans
// two bounce windows, so pack/unpack chunks and hybrid gathers.
TEST_F(TransferTest, RandomFragmentationPreservesStream) {
  Rng rng(99);
  const u64 n = 96 * kKiB;
  for (XferScheme s :
       {XferScheme::kMultipleMessage, XferScheme::kPackUnpack,
        XferScheme::kRdmaGatherScatter, XferScheme::kHybrid}) {
    SCOPED_TRACE(to_string(s));
    std::vector<std::byte> stream(n);
    for (std::byte& b : stream) b = static_cast<std::byte>(rng.next());

    const MemSegmentList from = fragment(rng, n);
    u64 off = 0;
    for (const MemSegment& m : from) {
      std::memcpy(client_as_.data(m.addr), stream.data() + off, m.length);
      off += m.length;
    }
    TransferOutcome push =
        xfer_.push(ep_, from, staging_, TimePoint::origin(), policy(s));
    ASSERT_TRUE(push.ok()) << push.status.to_string();
    EXPECT_EQ(push.bytes, n);
    EXPECT_EQ(std::memcmp(server_as_.data(staging_.addr), stream.data(), n),
              0);

    const MemSegmentList to = fragment(rng, n);
    TransferOutcome pull =
        xfer_.pull(ep_, to, staging_, TimePoint::origin(), policy(s));
    ASSERT_TRUE(pull.ok()) << pull.status.to_string();
    EXPECT_EQ(pull.bytes, n);
    std::vector<std::byte> back;
    for (const MemSegment& m : to) {
      const std::byte* p = client_as_.data(m.addr);
      back.insert(back.end(), p, p + m.length);
    }
    EXPECT_EQ(std::memcmp(back.data(), stream.data(), n), 0);
  }
}

TEST_F(TransferTest, PackUnpackChunksThroughSmallBounce) {
  // Stream far larger than the 64 KiB bounce buffer.
  const MemSegmentList segs = make_rows(512, 2048, 4096);  // 1 MiB
  TransferOutcome out = xfer_.push(ep_, segs, staging_, TimePoint::origin(),
                                   policy(XferScheme::kPackUnpack));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.bytes, 1 * kMiB);
  expect_stream_at_server(segs);
  EXPECT_GT(out.copy_cost, Duration::zero());
}

TEST_F(TransferTest, GatherBeatsPackForLargeTransfers) {
  const MemSegmentList segs = make_rows(2048, 4096, 8192);  // 8 MiB
  TransferOutcome pack = xfer_.push(ep_, segs, staging_, TimePoint::origin(),
                                    policy(XferScheme::kPackUnpack));
  client_hca_.nic().reset();
  server_hca_.nic().reset();
  cache_.flush();
  TransferOutcome gather =
      xfer_.push(ep_, segs, staging_, TimePoint::origin(),
                 policy(XferScheme::kRdmaGatherScatter));
  ASSERT_TRUE(pack.ok());
  ASSERT_TRUE(gather.ok());
  EXPECT_LT(gather.complete - TimePoint::origin(),
            pack.complete - TimePoint::origin());
}

TEST_F(TransferTest, PackBeatsGatherForTinyTransfers) {
  const MemSegmentList segs = make_rows(16, 256, 1024);  // 4 KiB total
  cache_.flush();
  TransferOutcome gather =
      xfer_.push(ep_, segs, staging_, TimePoint::origin(),
                 policy(XferScheme::kRdmaGatherScatter));
  client_hca_.nic().reset();
  server_hca_.nic().reset();
  cache_.flush();
  TransferOutcome pack = xfer_.push(ep_, segs, staging_, TimePoint::origin(),
                                    policy(XferScheme::kPackUnpack));
  ASSERT_TRUE(pack.ok());
  ASSERT_TRUE(gather.ok());
  // Cold registration dominates the tiny gather; packing through the
  // pre-registered bounce buffer wins — the hybrid scheme's motivation.
  EXPECT_LT(pack.complete - TimePoint::origin(),
            gather.complete - TimePoint::origin());
}

TEST_F(TransferTest, HybridPicksPackBelowThresholdGatherAbove) {
  TransferPolicy p = policy(XferScheme::kHybrid);
  // Small: no registration should happen (bounce path).
  cache_.flush();
  Stats before = stats_;
  const MemSegmentList small = make_rows(16, 1024, 4096);  // 16 KiB
  ASSERT_TRUE(xfer_.push(ep_, small, staging_, TimePoint::origin(), p).ok());
  EXPECT_EQ(stats_.get(stat::kMrRegister), before.get(stat::kMrRegister));
  // Large: goes through OGR registration.
  const MemSegmentList large = make_rows(512, 4096, 8192);  // 2 MiB
  ASSERT_TRUE(xfer_.push(ep_, large, staging_, TimePoint::origin(), p).ok());
  EXPECT_GT(stats_.get(stat::kMrRegister), before.get(stat::kMrRegister));
}

TEST_F(TransferTest, PackWithFreshRegistrationCostsMore) {
  const MemSegmentList segs = make_rows(64, 1024, 4096);
  TransferPolicy prereg = policy(XferScheme::kPackUnpack);
  TransferOutcome fast =
      xfer_.push(ep_, segs, staging_, TimePoint::origin(), prereg);
  client_hca_.nic().reset();
  server_hca_.nic().reset();
  TransferPolicy reg = prereg;
  reg.pack_preregistered = false;
  TransferOutcome slow =
      xfer_.push(ep_, segs, staging_, TimePoint::origin(), reg);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_GT(slow.reg_cost, fast.reg_cost);
  EXPECT_GT(slow.complete - TimePoint::origin(),
            fast.complete - TimePoint::origin());
}

TEST_F(TransferTest, OversizedTransferRejected) {
  const MemSegmentList segs = make_rows(1, 17 * kMiB, 17 * kMiB);
  TransferOutcome out = xfer_.push(ep_, segs, staging_, TimePoint::origin(),
                                   policy(XferScheme::kRdmaGatherScatter));
  EXPECT_FALSE(out.ok());
}

TEST_F(TransferTest, EmptyTransferRejected) {
  TransferOutcome out = xfer_.push(ep_, {}, staging_, TimePoint::origin(),
                                   policy(XferScheme::kPackUnpack));
  EXPECT_FALSE(out.ok());
}

TEST_F(TransferTest, WarmCacheMakesGatherApproachContiguous) {
  const MemSegmentList segs = make_rows(1024, 4096, 8192);  // 4 MiB
  TransferPolicy p = policy(XferScheme::kRdmaGatherScatter);
  // Warm-up pass registers the group region.
  ASSERT_TRUE(xfer_.push(ep_, segs, staging_, TimePoint::origin(), p).ok());
  client_hca_.nic().reset();
  server_hca_.nic().reset();
  TransferOutcome warm =
      xfer_.push(ep_, segs, staging_, TimePoint::origin(), p);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.reg_cost, Duration::zero());
  // Contiguous reference: a single 4 MiB SGE from the same region.
  client_hca_.nic().reset();
  server_hca_.nic().reset();
  const u64 total = 4 * kMiB;
  const MemSegmentList contig{{segs[0].addr, total}};
  // (The rows' allocation is 8 MiB, contiguous from the base.)
  TransferOutcome ref =
      xfer_.push(ep_, contig, staging_, TimePoint::origin(), p);
  ASSERT_TRUE(ref.ok());
  const double warm_us = (warm.complete - TimePoint::origin()).as_us();
  const double ref_us = (ref.complete - TimePoint::origin()).as_us();
  EXPECT_LT(warm_us, ref_us * 1.10);  // within 10% of contiguous
}

}  // namespace
}  // namespace pvfsib::core
