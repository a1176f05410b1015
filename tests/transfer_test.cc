#include "core/transfer.h"

#include <gtest/gtest.h>

#include <algorithm>

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

  TransferPolicy policy(XferScheme s) {
    TransferPolicy p;
    p.scheme = s;
    return p;
  }

  // Every scheme, pushing or pulling, books the whole stream and moves no
  // byte: the transfer's caller lands it.
  void expect_every_scheme_books_and_moves_no_bytes(bool push) {
    const u64 total = 37 * 1000;
    const MemSegmentList segs = make_rows(37, 1000, 4096);
    std::vector<std::byte> server(total);
    for (u64 i = 0; i < total; ++i) {
      server[i] = std::byte{static_cast<u8>(i * 5)};
    }
    std::ranges::copy(server, server_as_.writable_span(staging_.addr, total)
                                  .begin());
    const auto client_bytes = [&] {
      std::vector<std::byte> out;
      for (const MemSegment& m : segs) {
        const auto b = client_as_.readable_span(m.addr, m.length);
        out.insert(out.end(), b.begin(), b.end());
      }
      return out;
    };
    const std::vector<std::byte> client = client_bytes();
    for (XferScheme s :
         {XferScheme::kMultipleMessage, XferScheme::kPackUnpack,
          XferScheme::kRdmaGatherScatter, XferScheme::kHybrid}) {
      SCOPED_TRACE(to_string(s));
      const i64 data_before = stats_.get(stat::kNetBytesData);
      const TransferOutcome out =
          push ? xfer_.push(ep_, segs, staging_, TimePoint::origin(),
                            policy(s))
               : xfer_.pull(ep_, segs, staging_, TimePoint::origin(),
                            policy(s));
      ASSERT_TRUE(out.ok()) << out.status.to_string();
      EXPECT_EQ(out.bytes, total);
      EXPECT_GT(out.complete, TimePoint::origin());
      EXPECT_EQ(stats_.get(stat::kNetBytesData) - data_before,
                static_cast<i64>(total));
      EXPECT_TRUE(std::ranges::equal(
          server_as_.readable_span(staging_.addr, total), server));
      EXPECT_EQ(client_bytes(), client);
    }
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
  expect_every_scheme_books_and_moves_no_bytes(/*push=*/true);
}

TEST_F(TransferTest, PullCorrectnessAllSchemes) {
  expect_every_scheme_books_and_moves_no_bytes(/*push=*/false);
}

TEST_F(TransferTest, PackUnpackChunksThroughSmallBounce) {
  // Stream far larger than the 64 KiB bounce buffer.
  const MemSegmentList segs = make_rows(512, 2048, 4096);  // 1 MiB
  TransferOutcome out = xfer_.push(ep_, segs, staging_, TimePoint::origin(),
                                   policy(XferScheme::kPackUnpack));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.bytes, 1 * kMiB);
  // Sixteen full windows, each packed into the bounce buffer once.
  EXPECT_EQ(out.copy_cost, MemParams{}.copy_cost(64 * kKiB) * 16);
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
