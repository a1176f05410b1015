// Pipelined multi-round list I/O: the outstanding-round window
// (ModelConfig::pipeline_depth) and the IoHandle submit() API.
//
// Covers the three load-bearing properties of the window design:
//   1. depth 1 is exactly the classic lockstep protocol (no pipelining
//      counters, bit-identical timing with the default config),
//   2. depth W > 1 overlaps rounds (inflight max > 1, no slowdown) while
//      never reordering writes to the same handle, and
//   3. IoHandle wait()/poll()/on_complete() semantics, including
//      synchronous error completion.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "pvfs/cluster.h"
#include "sim/trace.h"

namespace pvfsib::pvfs {
namespace {

ModelConfig depth_config(u32 depth, u32 max_pairs = 128) {
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.pipeline_depth = depth;
  cfg.pvfs.max_list_pairs = max_pairs;
  return cfg;
}

void fill(Client& c, u64 addr, u64 n, u64 seed) {
  std::byte* p = c.memory().data(addr);
  for (u64 i = 0; i < n; ++i) {
    p[i] = static_cast<std::byte>((seed * 131 + i * 7) & 0xff);
  }
}

// A strided multi-round request: `rounds` rounds per iod when
// max_list_pairs is `pairs_per_round`.
core::ListIoRequest strided_request(Client& c, u64 pieces, u64 piece_len) {
  core::ListIoRequest req;
  const u64 buf = c.memory().alloc(pieces * piece_len);
  for (u64 i = 0; i < pieces; ++i) {
    req.mem.push_back({buf + i * piece_len, piece_len});
    req.file.push_back({i * 4 * piece_len, piece_len});
  }
  return req;
}

// One (end-time, stats) signature of a fixed workload under `cfg`.
std::string run_signature(const ModelConfig& cfg) {
  Cluster cluster(cfg, 2, 2);
  std::string sig;
  for (u32 k = 0; k < 2; ++k) {
    Client& c = cluster.client(k);
    OpenFile f = k == 0 ? c.create("/sig").value()
                        : c.open("/sig").value();
    core::ListIoRequest req = strided_request(c, 512, 2048);
    for (Extent& e : req.file) e.offset += k * 8 * kMiB;
    fill(c, req.mem.front().addr, 512 * 2048, 3 + k);
    IoResult w = c.write_list(f, req);
    IoResult r = c.read_list(f, req);
    sig += std::to_string(w.end.as_ns()) + "/" +
           std::to_string(r.end.as_ns()) + ";";
  }
  sig += cluster.stats().to_string();
  return sig;
}

// --- 1. depth 1 == classic lockstep protocol ---------------------------

TEST(PipelineTest, DepthOneMatchesDefaultConfigExactly) {
  // paper_defaults() has pipeline_depth == 1; an explicit depth-1 cluster
  // must be indistinguishable (events, times, counters) from it.
  ASSERT_EQ(ModelConfig::paper_defaults().pipeline_depth, 1u);
  EXPECT_EQ(run_signature(ModelConfig::paper_defaults()),
            run_signature(depth_config(1)));
}

TEST(PipelineTest, DepthOneReportsNoPipelineCounters) {
  Cluster cluster(depth_config(1, /*max_pairs=*/4), 1, 1);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/d1").value();
  core::ListIoRequest req = strided_request(c, 64, 4096);
  ASSERT_TRUE(c.write_list(f, req).ok());
  ASSERT_TRUE(c.read_list(f, req).ok());
  EXPECT_EQ(cluster.stats().get(stat::kPvfsRoundsInflightMax), 0);
  EXPECT_EQ(cluster.stats().get(stat::kPvfsPipelineStalls), 0);
  EXPECT_FALSE(cluster.stats().touched(stat::kPvfsRoundsInflightMax));
}

TEST(PipelineTest, DeterministicAtEveryDepth) {
  for (u32 depth : {1u, 2u, 4u}) {
    EXPECT_EQ(run_signature(depth_config(depth)),
              run_signature(depth_config(depth)))
        << "depth " << depth;
  }
}

// --- 2. depth W > 1: overlap without reordering -------------------------

TEST(PipelineTest, DepthFourOverlapsRoundsAndNeverSlowsDown) {
  // 16 rounds per iod (max_pairs=4, 64 pieces, one iod in the stripe set).
  auto run = [](u32 depth) {
    Cluster cluster(depth_config(depth, /*max_pairs=*/4), 1, 1);
    Client& c = cluster.client(0);
    OpenFile f = c.create("/ovl", 64 * kKiB, 1).value();
    core::ListIoRequest req = strided_request(c, 64, 4096);
    fill(c, req.mem.front().addr, 64 * 4096, 17);
    IoResult w = c.write_list(f, req);
    EXPECT_TRUE(w.ok());
    struct Out {
      i64 end_ns;
      i64 inflight_max;
    };
    return Out{w.end.as_ns(),
               cluster.stats().get(stat::kPvfsRoundsInflightMax)};
  };
  const auto d1 = run(1);
  const auto d4 = run(4);
  EXPECT_EQ(d1.inflight_max, 0);
  EXPECT_GT(d4.inflight_max, 1);
  // Pipelining may only help (or tie): issuing earlier never delays any
  // event of the depth-1 schedule.
  EXPECT_LE(d4.end_ns, d1.end_ns);
}

TEST(PipelineTest, DepthFourPreservesWriteOrderOnSameExtent) {
  // Eight rounds that all write the SAME 4 KiB file extent with different
  // patterns (validate() permits duplicate file extents). Whatever the
  // overlap, the disk must apply them in issue order: the file must end up
  // holding the LAST round's pattern.
  Cluster cluster(depth_config(4, /*max_pairs=*/1), 1, 1);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/ord", 64 * kKiB, 1).value();
  const u64 n = 4096;
  core::ListIoRequest req;
  const u64 buf = c.memory().alloc(8 * n);
  for (u64 k = 0; k < 8; ++k) {
    req.mem.push_back({buf + k * n, n});
    req.file.push_back({0, n});
    fill(c, buf + k * n, n, 100 + k);
  }
  ASSERT_TRUE(c.write_list(f, req).ok());
  EXPECT_GT(cluster.stats().get(stat::kPvfsRoundsInflightMax), 1);

  const u64 dst = c.memory().alloc(n);
  ASSERT_TRUE(c.read(f, 0, dst, n).ok());
  EXPECT_EQ(std::memcmp(c.memory().data(dst), c.memory().data(buf + 7 * n),
                        n),
            0)
      << "file does not hold the last round's data: writes were reordered";
}

TEST(PipelineTest, DepthFourDiskPhasesRunInIssueOrder) {
  // Distinct ascending offsets, one per round; the iod's write-round trace
  // records the first access offset of each disk phase. Under a window of
  // 4 the phases must still hit the disk in issue order, cycling through
  // staging slots 0..3.
  sim::Trace& tr = sim::Trace::instance();
  tr.clear();
  tr.enable();
  Cluster cluster(depth_config(4, /*max_pairs=*/1), 1, 1);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/seq", 64 * kKiB, 1).value();
  core::ListIoRequest req = strided_request(c, 8, 4096);
  ASSERT_TRUE(c.write_list(f, req).ok());

  std::vector<std::string> disk_rounds;
  for (const auto& e : tr.entries()) {
    if (e.who == "iod0" && e.what.find("write round") == 0) {
      disk_rounds.push_back(e.what);
    }
  }
  tr.disable();
  tr.clear();
  ASSERT_EQ(disk_rounds.size(), 8u);
  for (u64 k = 0; k < 8; ++k) {
    const std::string want = "slot" + std::to_string(k % 4) + " @" +
                             std::to_string(k * 4 * 4096) + ":";
    EXPECT_NE(disk_rounds[k].find(want), std::string::npos)
        << "round " << k << " trace: " << disk_rounds[k]
        << " (expected " << want << ")";
  }
}

// --- 3. IoHandle semantics ---------------------------------------------

TEST(PipelineTest, HandleWaitPollAndCallbacks) {
  Cluster cluster(depth_config(4), 1, 2);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/h").value();
  core::ListIoRequest req = strided_request(c, 32, 4096);

  IoHandle h = c.submit({IoDir::kWrite, f, req, {}});
  EXPECT_TRUE(h.valid());
  EXPECT_FALSE(h.poll());

  int cb_count = 0;
  IoResult from_cb;
  h.on_complete([&](IoResult r) {
    ++cb_count;
    from_cb = r;
  });
  EXPECT_EQ(cb_count, 0);  // not yet run

  IoResult r = h.wait();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.bytes, 32u * 4096u);
  EXPECT_TRUE(h.poll());
  EXPECT_EQ(cb_count, 1);
  EXPECT_EQ(from_cb.end.as_ns(), r.end.as_ns());
  EXPECT_EQ(h.result().bytes, r.bytes);
  // wait() advanced the client's blocking clock past the completion.
  EXPECT_GE(c.now().as_ns(), r.end.as_ns());

  // A callback attached after completion fires immediately.
  h.on_complete([&](IoResult) { ++cb_count; });
  EXPECT_EQ(cb_count, 2);
  // wait() on a completed handle returns without touching the engine.
  EXPECT_TRUE(h.wait().ok());

  // A default-constructed handle is invalid.
  EXPECT_FALSE(IoHandle{}.valid());
}

TEST(PipelineTest, HandlePropagatesValidationErrors) {
  Cluster cluster(depth_config(4), 1, 2);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/err").value();
  core::ListIoRequest bad;  // memory/file byte counts disagree
  bad.mem = {{c.memory().alloc(8192), 8192}};
  bad.file = {{0, 4096}};

  IoHandle h = c.submit({IoDir::kWrite, f, bad, {}});
  // Validation fails before any event is scheduled: completed on return.
  EXPECT_TRUE(h.poll());
  EXPECT_FALSE(h.result().ok());
  int cb_count = 0;
  h.on_complete([&](IoResult r) {
    ++cb_count;
    EXPECT_FALSE(r.ok());
  });
  EXPECT_EQ(cb_count, 1);
  IoResult r = h.wait();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.bytes, 0u);
}

TEST(PipelineTest, PhasesBreakdownAccountsRounds) {
  Cluster cluster(depth_config(4, /*max_pairs=*/4), 1, 1);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/ph", 64 * kKiB, 1).value();
  core::ListIoRequest req = strided_request(c, 64, 4096);
  IoResult w = c.write_list(f, req);
  ASSERT_TRUE(w.ok());
  EXPECT_GT(w.phases.wire, Duration::zero());
  EXPECT_GT(w.phases.disk, Duration::zero());
  EXPECT_GE(w.phases.registration, Duration::zero());
  EXPECT_GE(w.phases.stall, Duration::zero());
  IoResult r = c.read_list(f, req);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.phases.disk, Duration::zero());
}

}  // namespace
}  // namespace pvfsib::pvfs
