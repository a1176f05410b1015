#include "ib/fabric.h"

#include <gtest/gtest.h>

#include "fault/injector.h"

namespace pvfsib::ib {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  FabricTest()
      : client_("client", client_as_, reg_, stats_),
        server_("server", server_as_, reg_, stats_),
        fabric_(net_, stats_, no_faults_) {}

  // Register a fresh buffer of `n` bytes on `hca`, return (addr, key).
  std::pair<u64, u32> make_buffer(Hca& hca, vmem::AddressSpace& as, u64 n) {
    const u64 a = as.alloc(n);
    RegAttempt r = hca.register_memory(a, n);
    EXPECT_TRUE(r.ok());
    return {a, r.key};
  }

  // Write a nonzero pattern into [addr, addr + n).
  static void fill(vmem::AddressSpace& as, u64 addr, u64 n) {
    for (u64 i = 0; i < n; ++i) {
      as.write_pod<u8>(addr + i, static_cast<u8>(0xa0 + i % 16));
    }
  }

  static void expect_zero(vmem::AddressSpace& as, u64 addr, u64 n) {
    for (u64 i = 0; i < n; ++i) {
      ASSERT_EQ(as.read_pod<u8>(addr + i), 0) << "byte " << i;
    }
  }

  vmem::AddressSpace client_as_, server_as_;
  Stats stats_;
  fault::Injector no_faults_{FaultConfig{}, stats_};
  RegParams reg_;
  NetParams net_;
  Hca client_, server_;
  Fabric fabric_;
};

TEST_F(FabricTest, SmallWriteLatencyMatchesTable2) {
  auto [la, lk] = make_buffer(client_, client_as_, kPageSize);
  auto [ra, rk] = make_buffer(server_, server_as_, kPageSize);
  const Sge sge{la, 4, lk};
  TransferResult tr =
      fabric_.rdma_write(client_, sge, server_, ra, rk, TimePoint::origin());
  ASSERT_TRUE(tr.ok());
  // 4-byte RDMA write: dominated by the 6.0 us one-way latency.
  EXPECT_NEAR((tr.complete - TimePoint::origin()).as_us(), 6.0, 1.5);
}

TEST_F(FabricTest, LargeWriteBandwidthMatchesTable2) {
  const u64 n = 64 * kMiB;
  auto [la, lk] = make_buffer(client_, client_as_, n);
  auto [ra, rk] = make_buffer(server_, server_as_, n);
  const Sge sge{la, n, lk};
  TransferResult tr =
      fabric_.rdma_write(client_, sge, server_, ra, rk, TimePoint::origin());
  ASSERT_TRUE(tr.ok());
  const double bw = bandwidth_mib(n, tr.complete - TimePoint::origin());
  EXPECT_NEAR(bw, 827.0, 5.0);
}

// The fabric is a timing model only: a gather write and a scatter read book
// their bytes, NIC time and counters, and leave both ends' buffers as they
// were. Landing the payload is the caller's job (core::NoncontigTransfer).
TEST_F(FabricTest, GatherWriteAndScatterReadBookButMoveNothing) {
  auto [la, lk] = make_buffer(client_, client_as_, 2 * kPageSize);
  auto [ra, rk] = make_buffer(server_, server_as_, kPageSize);
  fill(client_as_, la, 2 * kPageSize);
  const std::vector<Sge> sges{{la, 16, lk},
                              {la + kPageSize, 24, lk},
                              {la + 3 * kPageSize / 2, 8, lk}};
  const TransferResult w = fabric_.rdma_write_gather(
      client_, sges, server_, ra, rk, TimePoint::origin());
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.bytes, 48u);
  const Duration write_wire = transfer_time(48, net_.rdma_write_bw);
  EXPECT_EQ(client_.nic().busy_total(), write_wire);
  EXPECT_EQ(server_.nic().busy_total(), write_wire);

  const TransferResult r =
      fabric_.rdma_read_scatter(client_, sges, server_, ra, rk, w.complete);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.bytes, 48u);
  EXPECT_GT(r.complete, w.complete);
  const Duration both = write_wire + transfer_time(48, net_.rdma_read_bw);
  EXPECT_EQ(client_.nic().busy_total(), both);
  EXPECT_EQ(server_.nic().busy_total(), both);
  EXPECT_EQ(stats_.get(stat::kRdmaWrite), 1);
  EXPECT_EQ(stats_.get(stat::kRdmaRead), 1);
  EXPECT_EQ(stats_.get(stat::kNetBytesData), 96);

  // The write left the server's zeros, and the read the client's pattern.
  expect_zero(server_as_, ra, kPageSize);
  for (u64 i = 0; i < 2 * kPageSize; ++i) {
    ASSERT_EQ(client_as_.read_pod<u8>(la + i), static_cast<u8>(0xa0 + i % 16))
        << "byte " << i;
  }
}

TEST_F(FabricTest, ReadSlowerThanWrite) {
  const u64 n = 1 * kMiB;
  auto [la, lk] = make_buffer(client_, client_as_, n);
  auto [ra, rk] = make_buffer(server_, server_as_, n);
  const Sge sge{la, n, lk};
  TransferResult w =
      fabric_.rdma_write(client_, sge, server_, ra, rk, TimePoint::origin());
  // Fresh NICs for a fair comparison.
  client_.nic().reset();
  server_.nic().reset();
  TransferResult r =
      fabric_.rdma_read(client_, sge, server_, ra, rk, TimePoint::origin());
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.complete, w.complete);  // 12.4us/816MBps vs 6.0us/827MBps
}

TEST_F(FabricTest, InvalidKeyRejected) {
  auto [la, lk] = make_buffer(client_, client_as_, kPageSize);
  auto [ra, rk] = make_buffer(server_, server_as_, kPageSize);
  fill(client_as_, la, 16);
  const Sge bad{la, 16, 9999};
  EXPECT_FALSE(
      fabric_.rdma_write(client_, bad, server_, ra, rk, TimePoint::origin())
          .ok());
  const Sge good{la, 16, lk};
  // Remote overflow rejected.
  EXPECT_FALSE(fabric_
                   .rdma_write(client_, good, server_, ra + kPageSize - 4, rk,
                               TimePoint::origin())
                   .ok());
  // A rejected work request moves no bytes, holds no NIC and counts nothing.
  expect_zero(server_as_, ra, kPageSize);
  EXPECT_EQ(client_.nic().busy_total(), Duration::zero());
  EXPECT_EQ(server_.nic().busy_total(), Duration::zero());
  EXPECT_EQ(stats_.get(stat::kRdmaWrite), 0);
  EXPECT_EQ(stats_.get(stat::kNetBytesData), 0);
}

TEST_F(FabricTest, InjectedCompletionErrorMovesNothing) {
  FaultConfig fc;
  fc.completion_error_rate = 1.0;
  fault::Injector faults(fc, stats_);
  Fabric faulty(net_, stats_, faults);
  auto [la, lk] = make_buffer(client_, client_as_, kPageSize);
  auto [ra, rk] = make_buffer(server_, server_as_, kPageSize);
  fill(client_as_, la, 64);
  const Sge sge{la, 64, lk};
  const TransferResult tr =
      faulty.rdma_write(client_, sge, server_, ra, rk, TimePoint::origin());
  EXPECT_EQ(tr.status.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(tr.bytes, 0u);
  // The WR errored on the HCA: the destination keeps its bytes, neither
  // NIC is occupied, and only the fault counter moves.
  expect_zero(server_as_, ra, kPageSize);
  EXPECT_EQ(client_.nic().busy_total(), Duration::zero());
  EXPECT_EQ(server_.nic().busy_total(), Duration::zero());
  EXPECT_EQ(stats_.get(stat::kFaultCompletionError), 1);
  EXPECT_EQ(stats_.get(stat::kRdmaWrite), 0);
  EXPECT_EQ(stats_.get(stat::kNetBytesData), 0);
}

TEST_F(FabricTest, PerBufferWrCostsMoreThanGather) {
  const u64 rows = 256;
  const u64 row = 4 * kKiB;
  auto [la, lk] = make_buffer(client_, client_as_, rows * row);
  auto [ra, rk] = make_buffer(server_, server_as_, rows * row);
  std::vector<Sge> sges;
  for (u64 i = 0; i < rows; ++i) sges.push_back({la + i * row, row, lk});

  TransferResult gather = fabric_.rdma_write_gather(client_, sges, server_, ra,
                                                    rk, TimePoint::origin());
  client_.nic().reset();
  server_.nic().reset();
  TransferResult multi = fabric_.rdma_write_per_buffer(
      client_, sges, server_, ra, rk, TimePoint::origin());
  ASSERT_TRUE(gather.ok());
  ASSERT_TRUE(multi.ok());
  EXPECT_LT(gather.complete, multi.complete);
  // The gap is the extra per-WR startup: 256 WRs vs ceil(256/64) = 4.
  const double gap_us =
      (multi.complete - gather.complete).as_us();
  EXPECT_NEAR(gap_us, 252 * net_.per_wr_overhead.as_us(), 5.0);
}

TEST_F(FabricTest, MisalignedSgePenalized) {
  auto [la, lk] = make_buffer(client_, client_as_, kPageSize);
  auto [ra, rk] = make_buffer(server_, server_as_, kPageSize);
  const Sge aligned{la, 64, lk};
  const Sge misaligned{la + 3, 64, lk};
  TransferResult a =
      fabric_.rdma_write(client_, aligned, server_, ra, rk, TimePoint::origin());
  client_.nic().reset();
  server_.nic().reset();
  TransferResult m = fabric_.rdma_write(client_, misaligned, server_, ra, rk,
                                        TimePoint::origin());
  EXPECT_GT(m.complete - TimePoint::origin(), a.complete - TimePoint::origin());
}

TEST_F(FabricTest, NicOccupancySerializesConcurrentTransfers) {
  const u64 n = 8 * kMiB;
  auto [la, lk] = make_buffer(client_, client_as_, 2 * n);
  auto [ra, rk] = make_buffer(server_, server_as_, 2 * n);
  const Sge s1{la, n, lk};
  const Sge s2{la + n, n, lk};
  TransferResult t1 =
      fabric_.rdma_write(client_, s1, server_, ra, rk, TimePoint::origin());
  TransferResult t2 =
      fabric_.rdma_write(client_, s2, server_, ra + n, rk, TimePoint::origin());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  // Second transfer queues behind the first on the shared NICs.
  const Duration one = t1.complete - TimePoint::origin();
  const Duration both = t2.complete - TimePoint::origin();
  EXPECT_GT(both.as_us(), 1.9 * one.as_us() - 20.0);
}

TEST_F(FabricTest, ControlMessageTiming) {
  const TimePoint done = fabric_.send_control(client_, server_, 256,
                                              TimePoint::origin(),
                                              ControlKind::kRequest);
  EXPECT_NEAR((done - TimePoint::origin()).as_us(), 6.8 + 0.3, 0.5);
  EXPECT_EQ(stats_.get(stat::kNetBytesControl), 256);
}

}  // namespace
}  // namespace pvfsib::ib
