#include "ib/fabric.h"

#include <gtest/gtest.h>

#include "common/rng.h"
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

TEST_F(FabricTest, WriteMovesRealBytes) {
  auto [la, lk] = make_buffer(client_, client_as_, kPageSize);
  auto [ra, rk] = make_buffer(server_, server_as_, kPageSize);
  for (u64 i = 0; i < 64; ++i) {
    client_as_.write_pod<u8>(la + i, static_cast<u8>(i * 3));
  }
  const Sge sge{la, 64, lk};
  ASSERT_TRUE(fabric_.rdma_write(client_, sge, server_, ra, rk,
                                 TimePoint::origin())
                  .ok());
  for (u64 i = 0; i < 64; ++i) {
    EXPECT_EQ(server_as_.read_pod<u8>(ra + i), static_cast<u8>(i * 3));
  }
}

TEST_F(FabricTest, GatherWriteConcatenatesSegments) {
  auto [la, lk] = make_buffer(client_, client_as_, 4 * kPageSize);
  auto [ra, rk] = make_buffer(server_, server_as_, kPageSize);
  // Three scattered pieces.
  std::vector<Sge> sges{{la, 16, lk},
                        {la + kPageSize, 24, lk},
                        {la + 3 * kPageSize, 8, lk}};
  for (u64 i = 0; i < 16; ++i) client_as_.write_pod<u8>(la + i, 1);
  for (u64 i = 0; i < 24; ++i) client_as_.write_pod<u8>(la + kPageSize + i, 2);
  for (u64 i = 0; i < 8; ++i)
    client_as_.write_pod<u8>(la + 3 * kPageSize + i, 3);
  TransferResult tr = fabric_.rdma_write_gather(client_, sges, server_, ra, rk,
                                                TimePoint::origin());
  ASSERT_TRUE(tr.ok());
  EXPECT_EQ(tr.bytes, 48u);
  for (u64 i = 0; i < 16; ++i) EXPECT_EQ(server_as_.read_pod<u8>(ra + i), 1);
  for (u64 i = 16; i < 40; ++i) EXPECT_EQ(server_as_.read_pod<u8>(ra + i), 2);
  for (u64 i = 40; i < 48; ++i) EXPECT_EQ(server_as_.read_pod<u8>(ra + i), 3);
}

TEST_F(FabricTest, ScatterReadDistributesSegments) {
  auto [la, lk] = make_buffer(client_, client_as_, 2 * kPageSize);
  auto [ra, rk] = make_buffer(server_, server_as_, kPageSize);
  for (u64 i = 0; i < 32; ++i) {
    server_as_.write_pod<u8>(ra + i, static_cast<u8>(100 + i));
  }
  std::vector<Sge> sges{{la, 16, lk}, {la + kPageSize, 16, lk}};
  TransferResult tr = fabric_.rdma_read_scatter(client_, sges, server_, ra, rk,
                                                TimePoint::origin());
  ASSERT_TRUE(tr.ok());
  for (u64 i = 0; i < 16; ++i) {
    EXPECT_EQ(client_as_.read_pod<u8>(la + i), 100 + i);
    EXPECT_EQ(client_as_.read_pod<u8>(la + kPageSize + i), 116 + i);
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

// A fabric with its own endpoints, counters and injector, so that one
// sequence of transfers can run on two of them side by side.
struct TwinFabric {
  explicit TwinFabric(const FaultConfig& fc)
      : faults(fc, stats),
        client("client", client_as, reg, stats),
        server("server", server_as, reg, stats),
        fabric(net, stats, faults) {
    local = client_as.alloc(2 * kPageSize);
    local_key = client.register_memory(local, 2 * kPageSize).key;
    remote = server_as.alloc(kPageSize);
    remote_key = server.register_memory(remote, kPageSize).key;
  }

  vmem::AddressSpace client_as, server_as;
  Stats stats;
  RegParams reg;
  NetParams net;
  fault::Injector faults;
  Hca client, server;
  Fabric fabric;
  u64 local = 0;
  u32 local_key = 0;
  u64 remote = 0;
  u32 remote_key = 0;
};

// Booking a gather write or a scatter read does everything that moving it
// does but move the payload: the same status, completion time, NIC
// occupancy and counters, over a sequence whose fault draws must line up
// (retransmits and latency spikes at 50%, or every work request in
// error). The booked transfers leave every destination untouched.
TEST_F(FabricTest, BookingMatchesMovingButMovesNothing) {
  FaultConfig perturbed;
  perturbed.retransmit_rate = 0.5;
  perturbed.latency_spike_rate = 0.5;
  FaultConfig errored;
  errored.completion_error_rate = 1.0;
  for (const FaultConfig& fc : {perturbed, errored}) {
    SCOPED_TRACE(fc.completion_error_rate > 0 ? "errored" : "perturbed");
    TwinFabric moving(fc);
    TwinFabric booking(fc);
    for (TwinFabric* t : {&moving, &booking}) {
      for (u64 i = 0; i < 2 * kPageSize; ++i) {
        t->client_as.write_pod<u8>(t->local + i, static_cast<u8>(i % 251 + 1));
      }
    }
    for (int step = 0; step < 8; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const bool write = step % 2 == 0;
      const TimePoint ready = TimePoint::origin() + Duration::us(step * 3.0);
      TransferResult got[2];
      for (TwinFabric* t : {&moving, &booking}) {
        // One SGE, then three with a misaligned one.
        std::vector<Sge> sges{{t->local, 64, t->local_key}};
        if (step % 4 >= 2) {
          sges = {{t->local + 1, 100, t->local_key},
                  {t->local + kPageSize, 256, t->local_key},
                  {t->local + 3 * kPageSize / 2, 8, t->local_key}};
        }
        Fabric& f = t->fabric;
        const bool book = t == &booking;
        got[book] =
            write ? (book ? f.book_write_gather(t->client, sges, t->server,
                                                t->remote, t->remote_key, ready)
                          : f.rdma_write_gather(t->client, sges, t->server,
                                                t->remote, t->remote_key, ready))
                  : (book ? f.book_read_scatter(t->client, sges, t->server,
                                                t->remote, t->remote_key, ready)
                          : f.rdma_read_scatter(t->client, sges, t->server,
                                                t->remote, t->remote_key,
                                                ready));
      }
      EXPECT_EQ(got[0].status.code(), got[1].status.code());
      EXPECT_EQ(got[0].complete, got[1].complete);
      EXPECT_EQ(got[0].bytes, got[1].bytes);
      EXPECT_EQ(moving.client.nic().busy_total(),
                booking.client.nic().busy_total());
      EXPECT_EQ(moving.server.nic().busy_total(),
                booking.server.nic().busy_total());
      EXPECT_EQ(moving.stats.counters(), booking.stats.counters());
      EXPECT_EQ(got[0].ok(), fc.completion_error_rate == 0);
    }
    // Nothing ever reached the booking twin's buffers; the moving twin's
    // server buffer got the writes' bytes unless every work request
    // errored.
    expect_zero(booking.server_as, booking.remote, kPageSize);
    for (u64 i = 0; i < 2 * kPageSize; ++i) {
      ASSERT_EQ(booking.client_as.read_pod<u8>(booking.local + i),
                i % 251 + 1)
          << "byte " << i;
    }
    EXPECT_EQ(moving.server_as.read_pod<u8>(moving.remote) != 0,
              fc.completion_error_rate == 0);
    EXPECT_GT(moving.stats.get(fc.completion_error_rate > 0
                                   ? stat::kFaultCompletionError
                                   : stat::kFaultRetransmit),
              0);
  }
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

// Property: gather write equals the equivalent contiguous write in payload
// bytes regardless of how the stream is fragmented.
TEST_F(FabricTest, FragmentationPreservesPayload) {
  Rng rng(99);
  const u64 n = 64 * kKiB;
  auto [la, lk] = make_buffer(client_, client_as_, n);
  auto [ra, rk] = make_buffer(server_, server_as_, n);
  for (u64 i = 0; i < n; ++i) {
    client_as_.write_pod<u8>(la + i, static_cast<u8>(rng.next()));
  }
  // Random fragmentation into SGEs.
  std::vector<Sge> sges;
  u64 pos = 0;
  while (pos < n) {
    const u64 len = std::min<u64>(rng.range(1, 4096), n - pos);
    sges.push_back({la + pos, len, lk});
    pos += len;
  }
  TransferResult tr = fabric_.rdma_write_gather(client_, sges, server_, ra, rk,
                                                TimePoint::origin());
  ASSERT_TRUE(tr.ok());
  EXPECT_EQ(tr.bytes, n);
  EXPECT_EQ(std::memcmp(client_as_.data(la), server_as_.data(ra), n), 0);
}

}  // namespace
}  // namespace pvfsib::ib
