// Mini-MPI runtime tests: point-to-point messages charge channel-semantics
// time, metadata exchange advances all clocks, and the whole simulation is
// deterministic run-to-run.
#include "mpiio/runtime.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pvfsib::mpiio {
namespace {

TEST(Runtime, SendChargesChannelTime) {
  pvfs::Cluster cluster(ModelConfig::paper_defaults(), 4, 2);
  Communicator comm(cluster);
  const u64 n = 64 * kKiB;
  const TimePoint done = comm.send(1, 3, n, TimePoint::origin());
  // Channel semantics: latency + bytes at the MVAPICH rate.
  const double expect_us =
      cluster.config().net.send_latency.as_us() +
      transfer_time(n, cluster.config().net.send_bw).as_us();
  EXPECT_NEAR((done - TimePoint::origin()).as_us(), expect_us, 5.0);
  EXPECT_EQ(cluster.stats().get(stat::kNetBytesInterClient),
            static_cast<i64>(n));
}

TEST(Runtime, ExchangeMetadataAdvancesEveryClock) {
  pvfs::Cluster cluster(ModelConfig::paper_defaults(), 4, 2);
  Communicator comm(cluster);
  comm.rank(1).advance_to(TimePoint::origin() + Duration::ms(2));
  const TimePoint t = comm.exchange_metadata(256);
  EXPECT_GT(t, TimePoint::origin() + Duration::ms(2));
  for (int r = 0; r < 4; ++r) EXPECT_GE(comm.rank(r).now(), t);
  // 4 ranks exchanged 12 pairwise messages.
  EXPECT_EQ(cluster.stats().get(stat::kNetBytesInterClient), 12 * 256);
}

TEST(Runtime, BarrierCostGrowsLogarithmically) {
  pvfs::Cluster c2(ModelConfig::paper_defaults(), 2, 1);
  pvfs::Cluster c4(ModelConfig::paper_defaults(), 4, 1);
  Communicator comm2(c2), comm4(c4);
  const Duration b2 = comm2.barrier() - TimePoint::origin();
  const Duration b4 = comm4.barrier() - TimePoint::origin();
  EXPECT_EQ(b4.as_ns(), 2 * b2.as_ns());  // log2(4) = 2 rounds
}

// Determinism: an identical workload on two fresh clusters produces
// identical virtual times and identical counter values.
TEST(Runtime, SimulationIsDeterministic) {
  auto run_once = [] {
    pvfs::Cluster cluster(ModelConfig::paper_defaults(), 4, 4);
    pvfs::OpenFile f = cluster.client(0).create("/det").value();
    std::vector<pvfs::IoResult> results(4);
    int pending = 4;
    for (u32 r = 0; r < 4; ++r) {
      pvfs::Client& c = cluster.client(r);
      pvfs::OpenFile fr = r == 0 ? f : c.open("/det").value();
      core::ListIoRequest req;
      for (u64 i = 0; i < 64; ++i) {
        req.file.push_back({r * kMiB + i * 8192, 2048});
      }
      req.mem = {{c.memory().alloc(64 * 2048), 64 * 2048}};
      c.submit({pvfs::IoDir::kWrite, fr, req, pvfs::IoOptions{},
                TimePoint::origin()})
          .on_complete([&results, &pending, r](pvfs::IoResult res) {
            results[r] = res;
            --pending;
          });
    }
    cluster.run();
    std::string sig;
    for (const auto& res : results) {
      sig += std::to_string(res.end.as_ns()) + ";";
    }
    sig += cluster.stats().to_string();
    return sig;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace pvfsib::mpiio
