#include "mpiio/mpio_file.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pvfsib::mpiio {
namespace {

constexpr u64 kElem = 4;

// All four independent/collective methods must produce identical file
// contents and identical read-back data; only their timings differ.
class MpiioTest : public ::testing::TestWithParam<IoMethod> {
 protected:
  MpiioTest()
      : cluster_(ModelConfig::paper_defaults(), 4, 4), comm_(cluster_) {}

  static void fill(pvfs::Client& c, u64 addr, u64 n, u64 seed) {
    Rng rng(seed);
    for (u64 i = 0; i < n; ++i) {
      c.memory().write_pod<u8>(addr + i, static_cast<u8>(rng.next()));
    }
  }

  pvfs::Cluster cluster_;
  Communicator comm_;
};

TEST_P(MpiioTest, BlockColumnWriteReadRoundTrip) {
  // The Figure 5/6/7 pattern: N x N ints, 4 processes, 1-D block-column
  // view, contiguous memory.
  const u64 n = 64;
  Result<File> file = File::create(comm_, "/bc");
  ASSERT_TRUE(file.is_ok());
  File f = file.value();

  Hints hints;
  hints.method = GetParam();

  const u64 col_bytes = n / 4 * kElem;      // bytes per row per process
  const u64 share = n * col_bytes;          // bytes per process
  std::vector<RankIo> wr(4), rd(4);
  std::vector<u64> src(4), dst(4);
  for (int p = 0; p < 4; ++p) {
    pvfs::Client& c = comm_.rank(p);
    src[p] = c.memory().alloc(share);
    dst[p] = c.memory().alloc(share);
    fill(c, src[p], share, 42 + p);
    const Datatype ft = Datatype::subarray(
        {n, n}, {n, n / 4}, {0, static_cast<u64>(p) * (n / 4)}, kElem);
    wr[p] = RankIo{FileView(0, ft), src[p], Datatype::contiguous(share), 0,
                   share};
    rd[p] = wr[p];
    rd[p].mem_addr = dst[p];
  }
  auto wres = f.write_all(wr, hints);
  for (int p = 0; p < 4; ++p) {
    ASSERT_TRUE(wres[p].ok()) << to_string(GetParam()) << " rank " << p
                              << ": " << wres[p].status.to_string();
    EXPECT_EQ(wres[p].bytes, share);
    EXPECT_GE(wres[p].end, wres[p].start);
  }

  auto rres = f.read_all(rd, hints);
  for (int p = 0; p < 4; ++p) {
    ASSERT_TRUE(rres[p].ok()) << to_string(GetParam()) << " rank " << p;
    pvfs::Client& c = comm_.rank(p);
    ASSERT_EQ(
        std::memcmp(c.memory().data(src[p]), c.memory().data(dst[p]), share),
        0)
        << to_string(GetParam()) << " rank " << p;
  }
}

TEST_P(MpiioTest, NoncontiguousMemoryAndFile) {
  // BTIO-like: noncontiguous in memory AND in the file. At 2048 rows each
  // (rank, aggregator) pair of a collective, and each rank's sieve copy,
  // carries at least ByteMover::kParallelMinBytes, so those copies run as
  // parallel batches when the process has spare CPUs.
  Hints hints;
  hints.method = GetParam();
  for (const u64 rows : {24, 2048}) {
    SCOPED_TRACE(std::to_string(rows) + " rows");
    Result<File> file = File::create(comm_, "/nc" + std::to_string(rows));
    ASSERT_TRUE(file.is_ok());
    File f = file.value();

    // Memory: every other 256-byte row of a local array.
    const Datatype memtype =
        Datatype::vector(rows, 1, 2, Datatype::contiguous(256));
    const u64 share = memtype.size();
    // File: rank p writes 256-byte pieces at stride 4*256.
    std::vector<RankIo> wr(4), rd(4);
    std::vector<u64> src(4), dst(4);
    for (int p = 0; p < 4; ++p) {
      pvfs::Client& c = comm_.rank(p);
      src[p] = c.memory().alloc(memtype.extent());
      dst[p] = c.memory().alloc(memtype.extent());
      fill(c, src[p], memtype.extent(), 7 + p);
      const Datatype ft = Datatype::subarray(
          {rows, 4}, {rows, 1}, {0, static_cast<u64>(p)}, 256);
      wr[p] = RankIo{FileView(0, ft), src[p], memtype, 0, share};
      rd[p] = wr[p];
      rd[p].mem_addr = dst[p];
    }
    auto wres = f.write_all(wr, hints);
    for (int p = 0; p < 4; ++p) {
      ASSERT_TRUE(wres[p].ok()) << to_string(GetParam()) << " rank " << p;
    }
    auto rres = f.read_all(rd, hints);
    for (int p = 0; p < 4; ++p) {
      ASSERT_TRUE(rres[p].ok());
      pvfs::Client& c = comm_.rank(p);
      // Compare only the mapped bytes of the memtype.
      for (const Extent& e : memtype.map()) {
        ASSERT_EQ(std::memcmp(c.memory().data(src[p] + e.offset),
                              c.memory().data(dst[p] + e.offset), e.length),
                  0)
            << to_string(GetParam()) << " rank " << p << " at " << e.offset;
      }
    }
  }
}

TEST_P(MpiioTest, RanksWithNoBytesSitOut) {
  // A zero-byte entry means the rank does not participate: rank 2 writes
  // alone through a strided view, then rank 0 reads the bytes back alone.
  File f = File::create(comm_, "/alone").value();
  Hints hints;
  hints.method = GetParam();
  const u64 n = 8 * kKiB;
  const FileView view(0, Datatype::subarray({4}, {1}, {1}, 1024));
  const u64 src = comm_.rank(2).memory().alloc(n);
  const u64 dst = comm_.rank(0).memory().alloc(n);
  fill(comm_.rank(2), src, n, 3);
  std::vector<RankIo> wr(4), rd(4);
  wr[2] = RankIo{view, src, Datatype::contiguous(n), 0, n};
  rd[0] = RankIo{view, dst, Datatype::contiguous(n), 0, n};
  const auto wres = f.write_all(wr, hints);
  const auto rres = f.read_all(rd, hints);
  for (int p = 0; p < 4; ++p) {
    ASSERT_TRUE(wres[p].ok()) << to_string(GetParam()) << " rank " << p;
    ASSERT_TRUE(rres[p].ok()) << to_string(GetParam()) << " rank " << p;
    EXPECT_EQ(wres[p].bytes, p == 2 ? n : 0u);
    EXPECT_EQ(rres[p].bytes, p == 0 ? n : 0u);
  }
  EXPECT_EQ(std::memcmp(comm_.rank(0).memory().data(dst),
                        comm_.rank(2).memory().data(src), n),
            0)
      << to_string(GetParam());
}

TEST_P(MpiioTest, FailedRanksReportNoBytes) {
  // iod 1 holds the file's stripe 0 and is down for the whole run, with no
  // retry budget. Every rank's block column has rows in stripe 0, so every
  // rank fails under every method and reports 0 bytes. Under collective
  // I/O only aggregator 0's calls fail, and that fails the whole call.
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.pvfs.stripe_size = 256 * kKiB;
  cfg.fault.round_timeout = Duration::ms(5.0);
  cfg.fault.max_retries = 0;
  cfg.fault.schedule.push_back(FaultEvent{
      FaultKind::kIodCrash, TimePoint::origin(), 1, Duration::sec(1000.0)});
  pvfs::Cluster cluster(cfg, 4, 4);
  Communicator comm(cluster);
  File f = File::create(comm, "/down").value();
  ASSERT_EQ(f.handle(0).meta.base_iod, 1u);

  const u64 n = 512;
  const u64 share = n * (n / 4) * kElem;
  std::vector<RankIo> io(4);
  for (int p = 0; p < 4; ++p) {
    const Datatype ft = Datatype::subarray(
        {n, n}, {n, n / 4}, {0, static_cast<u64>(p) * (n / 4)}, kElem);
    io[p] = RankIo{FileView(0, ft), comm.rank(p).memory().alloc(share),
                   Datatype::contiguous(share), 0, share};
  }
  Hints hints;
  hints.method = GetParam();
  for (const bool is_write : {true, false}) {
    const auto res = is_write ? f.write_all(io, hints) : f.read_all(io, hints);
    for (int p = 0; p < 4; ++p) {
      SCOPED_TRACE(std::string(to_string(GetParam())) +
                   (is_write ? " write, rank " : " read, rank ") +
                   std::to_string(p));
      EXPECT_FALSE(res[p].ok());
      EXPECT_EQ(res[p].bytes, 0u);
      EXPECT_EQ(res[p].status.code(), res[0].status.code());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, MpiioTest,
                         ::testing::Values(IoMethod::kMultiple,
                                           IoMethod::kDataSieving,
                                           IoMethod::kCollective,
                                           IoMethod::kListIo,
                                           IoMethod::kListIoAds),
                         [](const auto& info) {
                           switch (info.param) {
                             case IoMethod::kMultiple:
                               return "Multiple";
                             case IoMethod::kDataSieving:
                               return "DataSieving";
                             case IoMethod::kCollective:
                               return "Collective";
                             case IoMethod::kListIo:
                               return "ListIo";
                             case IoMethod::kListIoAds:
                               return "ListIoAds";
                           }
                           return "Unknown";
                         });

TEST(MpiioExtra, ListIoFasterThanMultipleForNoncontiguous) {
  pvfs::Cluster cluster(ModelConfig::paper_defaults(), 4, 4);
  Communicator comm(cluster);
  File f = File::create(comm, "/perf").value();

  const u64 n = 256;
  const u64 col_bytes = n / 4 * kElem;
  const u64 share = n * col_bytes;
  auto make_io = [&](std::vector<u64>& bufs) {
    std::vector<RankIo> io(4);
    for (int p = 0; p < 4; ++p) {
      pvfs::Client& c = comm.rank(p);
      bufs.push_back(c.memory().alloc(share));
      const Datatype ft = Datatype::subarray(
          {n, n}, {n, n / 4}, {0, static_cast<u64>(p) * (n / 4)}, kElem);
      io[p] = RankIo{FileView(0, ft), bufs.back(),
                     Datatype::contiguous(share), 0, share};
    }
    return io;
  };
  std::vector<u64> b1, b2;
  Hints multi;
  multi.method = IoMethod::kMultiple;
  auto io1 = make_io(b1);
  auto r_multi = f.write_all(io1, multi);
  Hints list;
  list.method = IoMethod::kListIoAds;
  auto io2 = make_io(b2);
  auto r_list = f.write_all(io2, list);

  Duration t_multi = Duration::zero(), t_list = Duration::zero();
  for (int p = 0; p < 4; ++p) {
    t_multi = max(t_multi, r_multi[p].elapsed());
    t_list = max(t_list, r_list[p].elapsed());
  }
  // The paper's headline for Figure 6: list I/O wins by 3.5-12x.
  EXPECT_LT(t_list * 3, t_multi);
}

TEST(MpiioExtra, CollectiveMovesInterClientTraffic) {
  pvfs::Cluster cluster(ModelConfig::paper_defaults(), 4, 4);
  Communicator comm(cluster);
  File f = File::create(comm, "/coll").value();
  const u64 n = 64;
  const u64 share = n * n / 4 * kElem;
  std::vector<RankIo> io(4);
  for (int p = 0; p < 4; ++p) {
    pvfs::Client& c = comm.rank(p);
    const u64 buf = c.memory().alloc(share);
    const Datatype ft = Datatype::subarray(
        {n, n}, {n, n / 4}, {0, static_cast<u64>(p) * (n / 4)}, kElem);
    io[p] = RankIo{FileView(0, ft), buf, Datatype::contiguous(share), 0,
                   share};
  }
  const i64 before = cluster.stats().get(stat::kNetBytesInterClient);
  Hints hints;
  hints.method = IoMethod::kCollective;
  auto res = f.write_all(io, hints);
  for (auto& r : res) ASSERT_TRUE(r.ok());
  // Two-phase I/O exchanges most of the data between compute nodes first
  // (the Table 6 "communication between compute nodes" row).
  EXPECT_GT(cluster.stats().get(stat::kNetBytesInterClient) - before,
            static_cast<i64>(share));
}

// A collective lands every piece straight between the ranks' memory and
// the aggregators' assembly buffers, so the only memory it maps on a rank
// is that rank's assembly: its file domain, page-rounded.
TEST(MpiioExtra, CollectiveMapsOnlyItsAssembly) {
  pvfs::Cluster cluster(ModelConfig::paper_defaults(), 4, 4);
  Communicator comm(cluster);
  File f = File::create(comm, "/assembly").value();
  // A 96 x 96 block column: the file spans 36 KiB, so each of the four
  // domains is 9 KiB, three pages once rounded.
  const u64 n = 96;
  const u64 share = n * n / 4 * kElem;
  std::vector<RankIo> wr(4), rd(4);
  std::vector<u64> before(4);
  for (int p = 0; p < 4; ++p) {
    vmem::AddressSpace& m = comm.rank(p).memory();
    const Datatype ft = Datatype::subarray(
        {n, n}, {n, n / 4}, {0, static_cast<u64>(p) * (n / 4)}, kElem);
    wr[p] = RankIo{FileView(0, ft), m.alloc(share),
                   Datatype::contiguous(share), 0, share};
    rd[p] = wr[p];
    rd[p].mem_addr = m.alloc(share);
    before[p] = m.bytes_mapped();
  }
  Hints hints;
  hints.method = IoMethod::kCollective;
  for (const auto& r : f.write_all(wr, hints)) ASSERT_TRUE(r.ok());
  for (const auto& r : f.read_all(rd, hints)) ASSERT_TRUE(r.ok());
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(comm.rank(p).memory().bytes_mapped() - before[p],
              page_ceil(n * n * kElem / 4))
        << "rank " << p;
  }
}

TEST(MpiioExtra, BarrierSynchronizesClocks) {
  pvfs::Cluster cluster(ModelConfig::paper_defaults(), 4, 4);
  Communicator comm(cluster);
  comm.rank(2).advance_to(TimePoint::origin() + Duration::ms(5));
  const TimePoint t = comm.barrier();
  EXPECT_GE(t, TimePoint::origin() + Duration::ms(5));
  for (int r = 0; r < 4; ++r) EXPECT_EQ(comm.rank(r).now(), t);
}

}  // namespace
}  // namespace pvfsib::mpiio
