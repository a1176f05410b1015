// Randomized MPI-IO property: arbitrary derived datatypes on both the
// memory and file sides, pushed through every access method, must always
// produce the same file contents and read back byte-exactly. The reference
// is a shadow byte-array model of the file.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "mpiio/mpio_file.h"

namespace pvfsib::mpiio {
namespace {

Datatype random_datatype(Rng& rng, u64 target_bytes) {
  switch (rng.below(4)) {
    case 0:
      return Datatype::contiguous(target_bytes);
    case 1: {
      // vector of byte blocks
      const u64 block = rng.range(64, 2048);
      const u64 count = std::max<u64>(1, target_bytes / block);
      const u64 stride = block + rng.below(2048);
      return Datatype::vector(count, 1, std::max<u64>(1, stride / block) + 1,
                              Datatype::contiguous(block));
    }
    case 2: {
      // indexed with random gaps
      ExtentList ext;
      u64 pos = rng.below(512);
      u64 left = target_bytes;
      while (left > 0) {
        const u64 len = std::min(left, rng.range(32, 4096));
        ext.push_back({pos, len});
        pos += len + rng.below(4096);
        left -= len;
      }
      return Datatype::indexed(std::move(ext));
    }
    default: {
      // 2-D subarray
      const u64 cols = 1ULL << rng.range(4, 7);   // 16..128
      const u64 rows = std::max<u64>(
          2, target_bytes / (cols / 2 * 4) / 2);
      return Datatype::subarray({rows * 2, cols}, {rows, cols / 2},
                                {rng.below(rows), rng.below(cols / 2)}, 4);
    }
  }
}

class MpiioProperty : public ::testing::TestWithParam<IoMethod> {};

TEST_P(MpiioProperty, RandomDatatypesRoundTrip) {
  Rng rng(static_cast<u64>(GetParam()) * 7919 + 17);
  for (int iter = 0; iter < 4; ++iter) {
    pvfs::Cluster cluster(ModelConfig::paper_defaults(), 4, 4);
    Communicator comm(cluster);
    File f = File::create(comm, "/prop").value();

    // Each rank gets its own disjoint displacement window so methods that
    // overlap aggregation domains still never write the same byte twice.
    std::vector<RankIo> wio(4), rio(4);
    std::vector<u64> src(4), dst(4);
    std::vector<Datatype> memtypes(4);
    for (int p = 0; p < 4; ++p) {
      pvfs::Client& c = comm.rank(p);
      const u64 bytes = rng.range(2 * kKiB, 64 * kKiB);
      Datatype memtype = random_datatype(rng, bytes);
      Datatype filetype = random_datatype(rng, bytes);
      const u64 data = std::min(memtype.size(), filetype.size());
      src[p] = c.memory().alloc(memtype.extent());
      dst[p] = c.memory().alloc(memtype.extent());
      for (const Extent& e : memtype.prefix(data)) {
        for (u64 i = 0; i < e.length; ++i) {
          c.memory().write_pod<u8>(src[p] + e.offset + i,
                                   static_cast<u8>(rng.next()));
        }
      }
      // Ranks 1 and 3 swap windows, so under collective I/O their data
      // lies in each other's file domain and crosses between ranks.
      const u64 disp = static_cast<u64>(p * 3 % 4) * 8 * kMiB;
      wio[p] = RankIo{FileView(disp, filetype), src[p], memtype, 0, data};
      rio[p] = wio[p];
      rio[p].mem_addr = dst[p];
      memtypes[p] = memtype;
    }
    Hints hints;
    hints.method = GetParam();
    auto wres = f.write_all(wio, hints);
    for (int p = 0; p < 4; ++p) {
      ASSERT_TRUE(wres[p].ok()) << to_string(GetParam()) << " iter " << iter
                                << " rank " << p << ": "
                                << wres[p].status.to_string();
    }
    auto rres = f.read_all(rio, hints);
    for (int p = 0; p < 4; ++p) {
      ASSERT_TRUE(rres[p].ok());
      pvfs::Client& c = comm.rank(p);
      for (const Extent& e : memtypes[p].prefix(wio[p].bytes)) {
        for (u64 i = 0; i < e.length; ++i) {
          ASSERT_EQ(c.memory().read_pod<u8>(dst[p] + e.offset + i),
                    c.memory().read_pod<u8>(src[p] + e.offset + i))
              << to_string(GetParam()) << " iter " << iter << " rank " << p
              << " off " << e.offset + i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, MpiioProperty,
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

}  // namespace
}  // namespace pvfsib::mpiio
