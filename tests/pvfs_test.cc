#include "pvfs/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/byte_mover.h"
#include "common/rng.h"
#include "sim/trace.h"

namespace pvfsib::pvfs {
namespace {

// Fill client memory at [addr, addr+n) with a deterministic pattern.
void fill(Client& c, u64 addr, u64 n, u64 seed) {
  Rng rng(seed);
  for (u64 i = 0; i < n; ++i) {
    c.memory().write_pod<u8>(addr + i, static_cast<u8>(rng.next()));
  }
}

bool equal_mem(Client& c, u64 a, u64 b, u64 n) {
  return std::memcmp(c.memory().data(a), c.memory().data(b), n) == 0;
}

// The bytes of client memory over `segs`, end to end.
std::vector<std::byte> bytes_at(Client& c, const core::MemSegmentList& segs) {
  std::vector<std::byte> out;
  for (const core::MemSegment& m : segs) {
    const auto b = c.memory().readable_span(m.addr, m.length);
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

// An `n`-byte stream's memory segments: random 1-4096 B lengths with random
// gaps of up to 15 B between them, in one fresh allocation.
core::MemSegmentList fragment(Client& c, Rng& rng, u64 n) {
  core::MemSegmentList segs;
  u64 end = 0;
  for (u64 left = n; left > 0;) {
    const u64 len = std::min<u64>(rng.range(1, 4096), left);
    segs.push_back({end, len});
    end += len + rng.range(0, 15);
    left -= len;
  }
  const u64 base = c.memory().alloc(end);
  for (core::MemSegment& s : segs) s.addr += base;
  return segs;
}

// An `n`-byte stream's file pieces, in file order: random 512 B - 8 KiB
// lengths (the last one cut to fit) with random gaps of up to 4 KiB.
ExtentList file_pieces(Rng& rng, u64 n) {
  ExtentList pieces;
  u64 at = rng.below(4 * kKiB);
  for (u64 left = n; left > 0;) {
    const u64 len = std::min<u64>(rng.range(512, 8 * kKiB), left);
    pieces.push_back({at, len});
    at += len + rng.below(4 * kKiB);
    left -= len;
  }
  return pieces;
}

class PvfsTest : public ::testing::Test {
 protected:
  PvfsTest() : cluster_(ModelConfig::paper_defaults(), 4, 4) {}
  Cluster cluster_;
};

TEST_F(PvfsTest, CreateOpenStat) {
  Client& c = cluster_.client(0);
  Result<OpenFile> f = c.create("/pvfs/a");
  ASSERT_TRUE(f.is_ok());
  EXPECT_EQ(f.value().meta.stripe_size, 64 * kKiB);
  EXPECT_EQ(f.value().meta.iod_count, 4u);
  // Creating again fails; opening from another client works.
  EXPECT_FALSE(c.create("/pvfs/a").is_ok());
  Result<OpenFile> g = cluster_.client(1).open("/pvfs/a");
  ASSERT_TRUE(g.is_ok());
  EXPECT_EQ(g.value().meta.handle, f.value().meta.handle);
  EXPECT_FALSE(cluster_.client(1).open("/pvfs/missing").is_ok());
  // Metadata ops consumed (virtual) time.
  EXPECT_GT(c.now(), TimePoint::origin());
}

TEST_F(PvfsTest, ContiguousRoundTrip) {
  Client& c = cluster_.client(0);
  OpenFile f = c.create("/f").value();
  const u64 n = 1 * kMiB;  // spans multiple stripes on all 4 iods
  const u64 src = c.memory().alloc(n);
  const u64 dst = c.memory().alloc(n);
  fill(c, src, n, 1);
  IoResult w = c.write(f, 0, src, n);
  ASSERT_TRUE(w.ok()) << w.status.to_string();
  EXPECT_EQ(w.bytes, n);
  EXPECT_GT(w.elapsed(), Duration::zero());
  IoResult r = c.read(f, 0, dst, n);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal_mem(c, src, dst, n));
}

TEST_F(PvfsTest, DataIsStripedAcrossIods) {
  Client& c = cluster_.client(0);
  OpenFile f = c.create("/striped").value();
  const u64 n = 512 * kKiB;  // 8 stripes of 64 KiB -> 2 per iod
  const u64 src = c.memory().alloc(n);
  fill(c, src, n, 2);
  ASSERT_TRUE(c.write(f, 0, src, n).ok());
  for (u32 i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster_.iod(i).file(f.meta.handle).size(), 128 * kKiB)
        << "iod " << i;
  }
}

TEST_F(PvfsTest, ListIoNoncontiguousBothSides) {
  Client& c = cluster_.client(0);
  OpenFile f = c.create("/list").value();
  // 64 memory rows of 1000 B strided 4 KiB <-> 50 file extents of 1280 B.
  const u64 rows = 64;
  const u64 base = c.memory().alloc(rows * 4096);
  core::ListIoRequest req;
  for (u64 r = 0; r < rows; ++r) {
    req.mem.push_back({base + r * 4096, 1000});
    fill(c, base + r * 4096, 1000, 100 + r);
  }
  for (u64 i = 0; i < 50; ++i) {
    req.file.push_back({i * 5000, 1280});
  }
  ASSERT_EQ(core::total_bytes(req.mem), total_length(req.file));
  IoResult w = c.write_list(f, req);
  ASSERT_TRUE(w.ok()) << w.status.to_string();

  // Read back into different buffers with the same shapes.
  const u64 base2 = c.memory().alloc(rows * 4096);
  core::ListIoRequest rreq = req;
  for (u64 r = 0; r < rows; ++r) rreq.mem[r].addr = base2 + r * 4096;
  IoResult rd = c.read_list(f, rreq);
  ASSERT_TRUE(rd.ok()) << rd.status.to_string();
  for (u64 r = 0; r < rows; ++r) {
    EXPECT_TRUE(equal_mem(c, base + r * 4096, base2 + r * 4096, 1000))
        << "row " << r;
  }
}

TEST_F(PvfsTest, ReadOfUnwrittenRegionIsZero) {
  Client& c = cluster_.client(0);
  OpenFile f = c.create("/holes").value();
  const u64 src = c.memory().alloc(4096);
  fill(c, src, 4096, 3);
  ASSERT_TRUE(c.write(f, 1 * kMiB, src, 4096).ok());
  const u64 dst = c.memory().alloc(4096);
  fill(c, dst, 4096, 4);  // garbage to overwrite
  ASSERT_TRUE(c.read(f, 0, dst, 4096).ok());
  for (u64 i = 0; i < 4096; ++i) {
    ASSERT_EQ(c.memory().read_pod<u8>(dst + i), 0u) << i;
  }
}

TEST_F(PvfsTest, SyncWriteSlowerThanNoSync) {
  Client& c = cluster_.client(0);
  OpenFile f = c.create("/sync").value();
  const u64 n = 2 * kMiB;
  const u64 src = c.memory().alloc(n);
  fill(c, src, n, 5);
  IoOptions nosync;
  IoResult w1 = c.write(f, 0, src, n, nosync);
  IoOptions sync;
  sync.sync = true;
  IoResult w2 = c.write(f, n, src, n, sync);
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(w2.ok());
  // fsync forces the 25 MB/s media path: order-of-magnitude slower.
  EXPECT_GT(w2.elapsed().as_us(), 5 * w1.elapsed().as_us());
}

TEST_F(PvfsTest, SmallWritesUseFastPathNoRegistration) {
  Client& c = cluster_.client(0);
  OpenFile f = c.create("/fast").value();
  const u64 n = 16 * kKiB;  // below the 64 KiB Fast-RDMA threshold per iod
  const u64 src = c.memory().alloc(n);
  const i64 regs_before = cluster_.stats().get(stat::kMrRegister);
  ASSERT_TRUE(c.write(f, 0, src, n).ok());
  EXPECT_EQ(cluster_.stats().get(stat::kMrRegister), regs_before);
}

TEST_F(PvfsTest, LargeWritesRegisterViaOgr) {
  Client& c = cluster_.client(0);
  OpenFile f = c.create("/large").value();
  const u64 n = 4 * kMiB;
  const u64 src = c.memory().alloc(n);
  const i64 regs_before = cluster_.stats().get(stat::kMrRegister);
  ASSERT_TRUE(c.write(f, 0, src, n).ok());
  const i64 regs = cluster_.stats().get(stat::kMrRegister) - regs_before;
  // One operation-wide group registration covers every per-iod slice; the
  // slices then hit the pin-down cache.
  EXPECT_EQ(regs, 1);
}

TEST_F(PvfsTest, RequestsCountRounds) {
  Client& c = cluster_.client(0);
  OpenFile f = c.create("/rounds").value();
  // 200 extents of 1 KiB in the first stripe: all to iod0, 128-pair limit
  // forces two rounds.
  core::ListIoRequest req;
  const u64 base = c.memory().alloc(200 * kKiB);
  for (u64 i = 0; i < 200; ++i) {
    req.mem.push_back({base + i * kKiB, 512});
    req.file.push_back({i * 300, 512});
  }
  const i64 before = cluster_.stats().get(stat::kPvfsRequest);
  ASSERT_TRUE(c.write_list(f, req).ok());
  const i64 requests = cluster_.stats().get(stat::kPvfsRequest) - before;
  EXPECT_EQ(requests, 2);
}

TEST_F(PvfsTest, ConcurrentClientsShareIodsCorrectly) {
  // All four clients write disjoint regions simultaneously, then read back.
  OpenFile f = cluster_.client(0).create("/conc").value();
  const u64 n = 1 * kMiB;
  std::vector<u64> src(4), dst(4);
  std::vector<IoResult> results(4);
  int finished = 0;
  for (u32 k = 0; k < 4; ++k) {
    Client& c = cluster_.client(k);
    OpenFile fk = k == 0 ? f : c.open("/conc").value();
    src[k] = c.memory().alloc(n);
    fill(c, src[k], n, 10 + k);
    core::ListIoRequest req;
    req.mem = {{src[k], n}};
    req.file = {{k * n, n}};
    c.submit({IoDir::kWrite, fk, req, IoOptions{},
              TimePoint::origin() /* clamped */})
        .on_complete([&results, &finished, k](IoResult r) {
          results[k] = r;
          ++finished;
        });
  }
  cluster_.run();
  ASSERT_EQ(finished, 4);
  for (u32 k = 0; k < 4; ++k) {
    ASSERT_TRUE(results[k].ok()) << k << results[k].status.to_string();
  }
  // Read everything back from client 0 and verify each region against the
  // regenerated pattern of the client that wrote it.
  Client& c0 = cluster_.client(0);
  for (u32 k = 0; k < 4; ++k) {
    dst[k] = c0.memory().alloc(n);
    ASSERT_TRUE(c0.read(f, k * n, dst[k], n).ok());
    Rng rng(10 + k);
    for (u64 i = 0; i < n; ++i) {
      const u8 expect = static_cast<u8>(rng.next());
      ASSERT_EQ(c0.memory().read_pod<u8>(dst[k] + i), expect)
          << "client " << k << " byte " << i;
    }
  }
}

TEST_F(PvfsTest, AdsEngagesForDenseSmallAccesses) {
  Client& c = cluster_.client(0);
  OpenFile f = c.create("/ads").value();
  // Preload the file region.
  const u64 span = 2 * kMiB;
  const u64 big = c.memory().alloc(span);
  fill(c, big, span, 7);
  ASSERT_TRUE(c.write(f, 0, big, span).ok());

  // Dense small strided read: 1 in 4 of 512-byte units.
  core::ListIoRequest req;
  const u64 dst = c.memory().alloc(256 * kKiB);
  u64 mem_off = 0;
  for (u64 i = 0; i < 256; ++i) {
    req.file.push_back({i * 2048, 512});
    req.mem.push_back({dst + mem_off, 512});
    mem_off += 512;
  }
  const i64 sieved_before = cluster_.stats().get(stat::kAdsSieved);
  IoOptions opts;
  opts.use_ads = true;
  IoResult r = c.read_list(f, req, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(cluster_.stats().get(stat::kAdsSieved), sieved_before);
  // Data must match the original pattern.
  for (u64 i = 0; i < 256; ++i) {
    ASSERT_TRUE(equal_mem(c, big + i * 2048, dst + i * 512, 512)) << i;
  }
}

TEST_F(PvfsTest, AdsOffServicesSeparately) {
  Client& c = cluster_.client(0);
  OpenFile f = c.create("/noads").value();
  const u64 span = 1 * kMiB;
  const u64 big = c.memory().alloc(span);
  fill(c, big, span, 8);
  ASSERT_TRUE(c.write(f, 0, big, span).ok());

  core::ListIoRequest req;
  const u64 dst = c.memory().alloc(64 * kKiB);
  for (u64 i = 0; i < 128; ++i) {
    req.file.push_back({i * 2048, 512});
    req.mem.push_back({dst + i * 512, 512});
  }
  const i64 sieved_before = cluster_.stats().get(stat::kAdsSieved);
  const i64 separate_before = cluster_.stats().get(stat::kAdsSeparate);
  IoOptions opts;
  opts.use_ads = false;
  ASSERT_TRUE(c.read_list(f, req, opts).ok());
  EXPECT_EQ(cluster_.stats().get(stat::kAdsSieved), sieved_before);
  // With ADS off the decision isn't even consulted.
  EXPECT_EQ(cluster_.stats().get(stat::kAdsSeparate), separate_before);
  for (u64 i = 0; i < 128; ++i) {
    ASSERT_TRUE(equal_mem(c, big + i * 2048, dst + i * 512, 512)) << i;
  }
}

// List I/O whose pieces overlap ends as if the pieces moved one by one in
// request order: the later piece's bytes win. Each case runs with pieces of
// 64 KiB and of 8 KiB. A 64 KiB piece makes each round's copy batch large
// enough that the byte mover's overlap check decides how it is copied, not
// its size threshold; the rounds take the rendezvous push and the
// client-pull return. Two 8 KiB pieces make a round of at most 64 KiB,
// which takes the fast-RDMA paths: the eager pack and the fast-bounce
// return.
static_assert(2 * 64 * kKiB >= ByteMover::kParallelMinBytes);
constexpr u64 kOverlapPieces[] = {64 * kKiB, 8 * kKiB};

TEST_F(PvfsTest, ListReadIntoOverlappingMemoryKeepsTheLaterPiece) {
  for (const u64 n : kOverlapPieces) {
    for (const bool ads : {false, true}) {
      SCOPED_TRACE(std::to_string(n) + (ads ? " B, ADS" : " B, no ADS"));
      Client& c = cluster_.client(0);
      OpenFile f = c.create("/overlap-read-" + std::to_string(n) +
                            (ads ? "-ads" : ""))
                       .value();
      const u64 src = c.memory().alloc(5 * n);
      fill(c, src, 5 * n, 21);
      ASSERT_TRUE(c.write(f, 0, src, 5 * n).ok());
      // Both file pieces are on the base iod (stripes 0 and 4 at 64 KiB,
      // stripe 0 at 8 KiB), so they share one round; the second memory
      // segment starts halfway into the first.
      const u64 dst = c.memory().alloc(2 * n);
      core::ListIoRequest req;
      req.mem = {{dst, n}, {dst + n / 2, n}};
      req.file = {{0, n}, {4 * n, n}};
      IoOptions opts;
      opts.use_ads = ads;
      IoResult r = c.read_list(f, req, opts);
      ASSERT_TRUE(r.ok()) << r.status.to_string();
      EXPECT_TRUE(equal_mem(c, dst, src, n / 2));
      EXPECT_TRUE(equal_mem(c, dst + n / 2, src + 4 * n, n));
    }
  }
}

TEST_F(PvfsTest, ListWriteOfOneExtentTwiceLeavesTheSecondPiece) {
  for (const u64 n : kOverlapPieces) {
    for (const bool ads : {false, true}) {
      SCOPED_TRACE(std::to_string(n) + (ads ? " B, ADS" : " B, no ADS"));
      Client& c = cluster_.client(0);
      OpenFile f = c.create("/overlap-write-" + std::to_string(n) +
                            (ads ? "-ads" : ""))
                       .value();
      const u64 src = c.memory().alloc(2 * n);
      fill(c, src, 2 * n, 31);
      core::ListIoRequest req;
      req.mem = {{src, n}, {src + n, n}};
      req.file = {{0, n}, {0, n}};
      IoOptions opts;
      opts.use_ads = ads;
      const i64 sieved_before = cluster_.stats().get(stat::kAdsSieved);
      IoResult w = c.write_list(f, req, opts);
      ASSERT_TRUE(w.ok()) << w.status.to_string();
      EXPECT_EQ(cluster_.stats().get(stat::kAdsSieved) > sieved_before, ads);
      const disk::LocalFile& lf =
          cluster_.iod(f.meta.base_iod).file(f.meta.handle);
      ASSERT_EQ(lf.size(), n);
      EXPECT_EQ(
          std::memcmp(lf.contents().data(), c.memory().data(src + n), n), 0);
      const u64 back = c.memory().alloc(n);
      ASSERT_TRUE(c.read(f, 0, back, n).ok());
      EXPECT_TRUE(equal_mem(c, back, src + n, n));
    }
  }
}

// A list read of at most 64 KiB takes the fast-bounce return. Across EOF,
// every byte past the end reads as zero, in whichever memory segment it
// lands, with the stream split across the segments at a piece boundary
// and inside a piece.
TEST_F(PvfsTest, SmallListReadAcrossEofZeroFillsEverySegment) {
  for (const bool ads : {false, true}) {
    SCOPED_TRACE(ads ? "ADS" : "no ADS");
    Client& c = cluster_.client(0);
    OpenFile f = c.create(ads ? "/eof-ads" : "/eof").value();
    const u64 size = 10 * kKiB;
    const u64 src = c.memory().alloc(size);
    fill(c, src, size, 41);
    ASSERT_TRUE(c.write(f, 0, src, size).ok());
    // The stream: file [0, 6 KiB), file [8 KiB, 10 KiB), then 6 KiB past
    // EOF.
    const u64 dst = c.memory().alloc(16 * kKiB);
    std::memset(c.memory().data(dst), 0xab, 16 * kKiB);
    core::ListIoRequest req;
    req.mem = {{dst, 5 * kKiB}, {dst + 6 * kKiB, 9 * kKiB}};
    req.file = {{0, 6 * kKiB}, {8 * kKiB, 8 * kKiB}};
    IoOptions opts;
    opts.use_ads = ads;
    IoResult r = c.read_list(f, req, opts);
    ASSERT_TRUE(r.ok()) << r.status.to_string();
    EXPECT_TRUE(equal_mem(c, dst, src, 5 * kKiB));
    EXPECT_EQ(c.memory().read_pod<u8>(dst + 5 * kKiB), 0xab);  // the gap
    const u64 seg = dst + 6 * kKiB;
    EXPECT_TRUE(equal_mem(c, seg, src + 5 * kKiB, 1 * kKiB));
    EXPECT_TRUE(equal_mem(c, seg + 1 * kKiB, src + 8 * kKiB, 2 * kKiB));
    for (u64 i = 3 * kKiB; i < 9 * kKiB; ++i) {
      ASSERT_EQ(c.memory().read_pod<u8>(seg + i), 0) << i;
    }
    EXPECT_EQ(c.memory().read_pod<u8>(dst + 15 * kKiB), 0xab);  // the tail
  }
}

TEST_F(PvfsTest, AllTransferSchemesRoundTrip) {
  Client& c = cluster_.client(0);
  u32 idx = 0;
  for (core::XferScheme s :
       {core::XferScheme::kMultipleMessage, core::XferScheme::kPackUnpack,
        core::XferScheme::kRdmaGatherScatter, core::XferScheme::kHybrid}) {
    SCOPED_TRACE(core::to_string(s));
    OpenFile f = c.create("/scheme" + std::to_string(idx++)).value();
    const u64 rows = 96;
    const u64 base = c.memory().alloc(rows * 4096);
    core::ListIoRequest req;
    for (u64 r = 0; r < rows; ++r) {
      req.mem.push_back({base + r * 4096, 2048});
      fill(c, base + r * 4096, 2048, 200 + r);
      req.file.push_back({r * 8192, 2048});
    }
    IoOptions opts;
    opts.policy.scheme = s;
    ASSERT_TRUE(c.write_list(f, req, opts).ok());
    const u64 base2 = c.memory().alloc(rows * 4096);
    core::ListIoRequest rreq = req;
    for (u64 r = 0; r < rows; ++r) rreq.mem[r].addr = base2 + r * 4096;
    ASSERT_TRUE(c.read_list(f, rreq, opts).ok());
    for (u64 r = 0; r < rows; ++r) {
      ASSERT_TRUE(equal_mem(c, base + r * 4096, base2 + r * 4096, 2048))
          << "row " << r;
    }
  }
}

// Property: a list write and its read-back carry the stream byte for byte
// under every transfer scheme, with ADS off and on, however the memory and
// file sides are fragmented. A 40 KiB stream's rounds fit the Fast-RDMA
// buffer, so the packing schemes take the eager push and the fast bounce;
// under gather/scatter each iod's share of one contiguous destination is a
// single buffer, the direct gather's case. A 768 KiB stream's rounds take
// the rendezvous push and the client pull.
TEST_F(PvfsTest, RandomFragmentsRoundTripEverySchemeAndReturnPath) {
  Client& c = cluster_.client(0);
  Rng rng(99);
  sim::Trace& trace = sim::Trace::instance();
  trace.enable(/*capacity=*/1 << 16);
  trace.clear();
  std::map<std::string, u32> paths;  // read return path -> rounds
  u32 idx = 0;
  for (core::XferScheme s :
       {core::XferScheme::kMultipleMessage, core::XferScheme::kPackUnpack,
        core::XferScheme::kRdmaGatherScatter, core::XferScheme::kHybrid}) {
    for (const bool ads : {false, true}) {
      for (const u64 n : {40 * kKiB, 768 * kKiB}) {
        SCOPED_TRACE(std::string(core::to_string(s)) + (ads ? ", ADS, " : ", ") +
                     std::to_string(n) + " B");
        std::vector<std::byte> stream(n);
        for (std::byte& b : stream) b = static_cast<std::byte>(rng.next());
        core::ListIoRequest req;
        req.mem = fragment(c, rng, n);
        req.file = file_pieces(rng, n);
        u64 off = 0;
        for (const core::MemSegment& m : req.mem) {
          std::copy_n(stream.begin() + off, m.length,
                      c.memory().writable_span(m.addr, m.length).begin());
          off += m.length;
        }
        OpenFile f = c.create("/frag" + std::to_string(idx++)).value();
        IoOptions opts;
        opts.policy.scheme = s;
        opts.use_ads = ads;
        ASSERT_TRUE(c.write_list(f, req, opts).ok());
        // Back into fresh fragments, then into one contiguous buffer.
        for (const bool contiguous : {false, true}) {
          req.mem = contiguous
                        ? core::MemSegmentList{{c.memory().alloc(n), n}}
                        : fragment(c, rng, n);
          const IoResult r = c.read_list(f, req, opts);
          ASSERT_TRUE(r.ok()) << r.status.to_string();
          EXPECT_TRUE(bytes_at(c, req.mem) == stream)
              << (contiguous ? "contiguous" : "fragments");
        }
        for (const sim::Trace::Entry& e : trace.entries()) {
          for (const char* path : {"fast-bounce", "direct-gather",
                                   "client-pull"}) {
            if (e.what.find(path) != std::string::npos) ++paths[path];
          }
        }
        trace.clear();
      }
    }
  }
  trace.disable();
  EXPECT_GT(paths["fast-bounce"], 0u);
  EXPECT_GT(paths["direct-gather"], 0u);
  EXPECT_GT(paths["client-pull"], 0u);
}

TEST_F(PvfsTest, DirectGatherReadIntoContiguousBuffer) {
  Client& c = cluster_.client(0);
  // One iod holds the file, so each round's memory is one slice of the one
  // destination: the server gather-push return path's case.
  OpenFile f = c.create("/direct", 64 * kKiB, 1).value();
  const u64 span = 4 * kMiB;
  const u64 big = c.memory().alloc(span);
  fill(c, big, span, 9);
  ASSERT_TRUE(c.write(f, 0, big, span).ok());

  // Strided file accesses into one contiguous destination.
  core::ListIoRequest req;
  const u64 dst = c.memory().alloc(2 * kMiB);
  u64 off = 0;
  for (u64 i = 0; i < 128; ++i) {
    req.file.push_back({i * 32768, 16384});
    off += 16384;
  }
  req.mem = {{dst, off}};
  sim::Trace& trace = sim::Trace::instance();
  trace.enable();
  trace.clear();
  IoResult r = c.read_list(f, req);
  const bool direct = std::ranges::any_of(
      trace.entries(), [](const sim::Trace::Entry& e) {
        return e.what.find("direct-gather") != std::string::npos;
      });
  trace.disable();
  trace.clear();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(direct);
  u64 pos = 0;
  for (u64 i = 0; i < 128; ++i) {
    ASSERT_TRUE(equal_mem(c, big + i * 32768, dst + pos, 16384)) << i;
    pos += 16384;
  }
}

TEST_F(PvfsTest, ManagerTracksLogicalSize) {
  Client& c = cluster_.client(0);
  OpenFile f = c.create("/size").value();
  const u64 src = c.memory().alloc(4096);
  ASSERT_TRUE(c.write(f, 10 * kMiB, src, 4096).ok());
  Result<FileMeta> meta = cluster_.manager().stat("/size");
  ASSERT_TRUE(meta.is_ok());
  EXPECT_EQ(meta.value().logical_size, 10 * kMiB + 4096);
}

TEST_F(PvfsTest, BaseIodPlacement) {
  Client& c = cluster_.client(0);
  // A one-stripe file with an explicit base lands on exactly that iod.
  OpenFile f = c.create("/base2", 64 * kKiB, 4, /*base_iod=*/2).value();
  EXPECT_EQ(f.meta.base_iod, 2u);
  const u64 src = c.memory().alloc(64 * kKiB);
  ASSERT_TRUE(c.write(f, 0, src, 64 * kKiB).ok());
  EXPECT_EQ(cluster_.iod(2).file(f.meta.handle).size(), 64 * kKiB);
  EXPECT_EQ(cluster_.iod(0).file(f.meta.handle).size(), 0u);
  // The second stripe wraps to the next physical iod.
  ASSERT_TRUE(c.write(f, 64 * kKiB, src, 64 * kKiB).ok());
  EXPECT_EQ(cluster_.iod(3).file(f.meta.handle).size(), 64 * kKiB);
  // Auto placement rotates bases with the handle, so consecutive small
  // files do not all pile onto iod 0.
  OpenFile g1 = c.create("/auto1").value();
  OpenFile g2 = c.create("/auto2").value();
  EXPECT_NE(g1.meta.base_iod, g2.meta.base_iod);
  // Round-trip still works across the wrap.
  const u64 dst = c.memory().alloc(128 * kKiB);
  ASSERT_TRUE(c.read(f, 0, dst, 128 * kKiB).ok());
}

TEST_F(PvfsTest, RemoveDeletesEverywhere) {
  Client& c = cluster_.client(0);
  OpenFile f = c.create("/rm").value();
  const u64 n = 512 * kKiB;
  const u64 src = c.memory().alloc(n);
  ASSERT_TRUE(c.write(f, 0, src, n).ok());
  for (u32 i = 0; i < 4; ++i) {
    EXPECT_GT(cluster_.iod(i).file(f.meta.handle).size(), 0u);
  }
  ASSERT_TRUE(c.remove("/rm").is_ok());
  EXPECT_FALSE(c.open("/rm").is_ok());
  EXPECT_FALSE(c.remove("/rm").is_ok());  // double remove
  // Stripe files were purged; re-creating starts from scratch.
  OpenFile g = c.create("/rm").value();
  const u64 dst = c.memory().alloc(4096);
  ASSERT_TRUE(c.read(g, 0, dst, 4096).ok());
  for (u64 i = 0; i < 4096; ++i) {
    ASSERT_EQ(c.memory().read_pod<u8>(dst + i), 0u);
  }
}

TEST_F(PvfsTest, StatReturnsMetadataWithCost) {
  Client& c = cluster_.client(0);
  ASSERT_TRUE(c.create("/st").is_ok());
  const TimePoint before = c.now();
  Result<FileMeta> meta = c.stat("/st");
  ASSERT_TRUE(meta.is_ok());
  EXPECT_EQ(meta.value().iod_count, 4u);
  EXPECT_GT(c.now(), before);  // the metadata round-trip took time
  EXPECT_FALSE(c.stat("/missing").is_ok());
}

TEST_F(PvfsTest, InvalidRequestRejected) {
  Client& c = cluster_.client(0);
  OpenFile f = c.create("/bad").value();
  core::ListIoRequest req;
  req.mem = {{c.memory().alloc(100), 100}};
  req.file = {{0, 99}};  // byte totals differ
  EXPECT_FALSE(c.write_list(f, req).ok());
}

}  // namespace
}  // namespace pvfsib::pvfs
