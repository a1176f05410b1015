// Unit tests for the I/O daemon's service paths: staging, write rounds
// (separate and sieved RMW), read rounds over all three return paths, and
// the disk queue serialization.
#include "pvfs/iod.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fault/injector.h"

namespace pvfsib::pvfs {
namespace {

class IodTest : public ::testing::Test {
 protected:
  IodTest()
      : cfg_(ModelConfig::paper_defaults()),
        fabric_(cfg_.net, stats_, faults_),
        iod_(0, /*clients=*/2, cfg_, fabric_, stats_, faults_),
        client_hca_("c0", client_as_, cfg_.reg, stats_) {
    // A registered client-side landing buffer for return-path tests.
    dest_addr_ = client_as_.alloc(8 * kMiB);
    ib::RegAttempt reg = client_hca_.register_memory(dest_addr_, 8 * kMiB);
    EXPECT_TRUE(reg.ok());
    dest_key_ = reg.key;
  }

  // Put a packed pattern stream into the iod staging buffer for client 0.
  void stage_pattern(u64 bytes, u8 seed) {
    core::StagingBuffer& sb = iod_.staging(0);
    ASSERT_LE(bytes, sb.size);
    ib::Hca& h = iod_.hca();
    for (u64 i = 0; i < bytes; ++i) {
      h.address_space().write_pod<u8>(sb.addr + i,
                                      static_cast<u8>(seed + i * 13));
    }
  }

  RoundRequest round(ExtentList accesses, bool write, bool use_ads) {
    RoundRequest r;
    r.handle = 7;
    r.client = 0;
    r.is_write = write;
    r.use_ads = use_ads;
    r.accesses = std::move(accesses);
    return r;
  }

  ModelConfig cfg_;
  Stats stats_;
  fault::Injector faults_{FaultConfig{}, stats_};
  ib::Fabric fabric_;
  Iod iod_;
  vmem::AddressSpace client_as_;
  ib::Hca client_hca_;
  u64 dest_addr_ = 0;
  u32 dest_key_ = 0;
};

TEST_F(IodTest, FileCreatedLazilyPerHandle) {
  disk::LocalFile& a = iod_.file(1);
  disk::LocalFile& b = iod_.file(2);
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&iod_.file(1), &a);  // same handle, same file
}

TEST_F(IodTest, StagingBuffersPerClient) {
  core::StagingBuffer& s0 = iod_.staging(0);
  core::StagingBuffer& s1 = iod_.staging(1);
  EXPECT_NE(s0.addr, s1.addr);
  EXPECT_EQ(s0.size, cfg_.pvfs.staging_buffer);
  // Both registered on the iod HCA.
  EXPECT_TRUE(iod_.hca().validate(s0.rkey, s0.addr, s0.size));
  EXPECT_TRUE(iod_.hca().validate(s1.rkey, s1.addr, s1.size));
}

TEST_F(IodTest, WriteRoundSeparatePlacesPieces) {
  stage_pattern(3000, 1);
  RoundRequest r =
      round({{100, 1000}, {5000, 2000}}, /*write=*/true, /*ads=*/false);
  const Iod::WriteService svc = iod_.write_round(r, TimePoint::origin());
  EXPECT_GT(svc.done, TimePoint::origin());
  // Nothing queued ahead: the round is done when its disk phase is.
  EXPECT_EQ(svc.done - TimePoint::origin(), svc.disk_cost);
  EXPECT_EQ(svc.ack_version, 0u);  // unversioned file

  disk::LocalFile& f = iod_.file(7);
  ASSERT_EQ(f.size(), 7000u);
  auto contents = f.contents();
  for (u64 i = 0; i < 1000; ++i) {
    ASSERT_EQ(contents[100 + i], std::byte{static_cast<u8>(1 + i * 13)});
  }
  for (u64 i = 0; i < 2000; ++i) {
    ASSERT_EQ(contents[5000 + i],
              std::byte{static_cast<u8>(1 + (1000 + i) * 13)});
  }
  EXPECT_EQ(stats_.get(stat::kDiskWrite), 2);
}

TEST_F(IodTest, WriteRoundSievedRmwPreservesSurroundingData) {
  // Preload the file with a known background.
  disk::LocalFile& f = iod_.file(7);
  std::vector<std::byte> bg(64 * kKiB, std::byte{0xee});
  f.pwrite(0, bg);

  // Dense small strided writes: the model should sieve (RMW under lock).
  ExtentList acc;
  for (u64 i = 0; i < 64; ++i) acc.push_back({i * 1024, 256});
  stage_pattern(64 * 256, 9);
  const i64 writes_before = stats_.get(stat::kDiskWrite);
  RoundRequest r = round(acc, /*write=*/true, /*ads=*/true);
  iod_.write_round(r, TimePoint::origin());

  EXPECT_EQ(stats_.get(stat::kAdsSieved), 1);
  // One window: one RMW write, not 64.
  EXPECT_LE(stats_.get(stat::kDiskWrite) - writes_before, 2);
  EXPECT_FALSE(f.range_locked(bounding_span(acc)));  // range lock released

  auto contents = f.contents();
  for (u64 i = 0; i < 64; ++i) {
    for (u64 j = 0; j < 256; ++j) {
      ASSERT_EQ(contents[i * 1024 + j],
                std::byte{static_cast<u8>(9 + (i * 256 + j) * 13)});
    }
    // The gap bytes survived the read-modify-write.
    for (u64 j = 256; j < 1024 && i * 1024 + j < 64 * kKiB; ++j) {
      ASSERT_EQ(contents[i * 1024 + j], std::byte{0xee});
    }
  }
}

TEST_F(IodTest, WriteRoundSyncCostsMore) {
  stage_pattern(1 * kMiB, 2);
  RoundRequest r = round({{0, 1 * kMiB}}, true, false);
  const TimePoint t1 = iod_.write_round(r, TimePoint::origin()).done;
  r.sync = true;
  r.accesses = {{2 * kMiB, 1 * kMiB}};
  const TimePoint t0 = iod_.disk_queue().busy_until();
  const TimePoint t2 = iod_.write_round(r, t0).done;
  EXPECT_GT(t2 - t0, (t1 - TimePoint::origin()) * 5);
}

TEST_F(IodTest, ReadRoundClientPullPacksStaging) {
  disk::LocalFile& f = iod_.file(7);
  std::vector<std::byte> data(32 * kKiB);
  for (u64 i = 0; i < data.size(); ++i) {
    data[i] = std::byte{static_cast<u8>(i * 7)};
  }
  f.pwrite(0, data);

  // Out-of-order extents: staging must be packed in request order.
  RoundRequest r = round({{8192, 100}, {0, 50}}, /*write=*/false, false);
  Iod::ReadService svc = iod_.read_round(r, TimePoint::origin(),
                                         ReadReturn::kClientPull, nullptr, 0, 0);
  ASSERT_TRUE(svc.ok());
  EXPECT_EQ(svc.bytes, 150u);
  const core::StagingBuffer& sb = iod_.staging(0);
  const auto& as = iod_.hca().address_space();
  for (u64 i = 0; i < 100; ++i) {
    ASSERT_EQ(as.read_pod<u8>(sb.addr + i), static_cast<u8>((8192 + i) * 7));
  }
  for (u64 i = 0; i < 50; ++i) {
    ASSERT_EQ(as.read_pod<u8>(sb.addr + 100 + i), static_cast<u8>(i * 7));
  }
}

TEST_F(IodTest, ReadRoundDirectGatherDeliversToClient) {
  disk::LocalFile& f = iod_.file(7);
  std::vector<std::byte> data(256 * kKiB);
  for (u64 i = 0; i < data.size(); ++i) {
    data[i] = std::byte{static_cast<u8>(i * 11)};
  }
  f.pwrite(0, data);

  // Dense strided read that will sieve; direct gather return.
  ExtentList acc;
  for (u64 i = 0; i < 128; ++i) acc.push_back({i * 2048, 512});
  RoundRequest r = round(acc, false, /*ads=*/true);
  Iod::ReadService svc =
      iod_.read_round(r, TimePoint::origin(), ReadReturn::kDirectGather,
                      &client_hca_, dest_addr_, dest_key_);
  ASSERT_TRUE(svc.ok());
  EXPECT_GE(stats_.get(stat::kAdsSieved), 1);
  for (u64 i = 0; i < 128; ++i) {
    for (u64 j = 0; j < 512; j += 64) {
      ASSERT_EQ(client_as_.read_pod<u8>(dest_addr_ + i * 512 + j),
                static_cast<u8>((i * 2048 + j) * 11))
          << i << "," << j;
    }
  }
}

// A sieved direct-gather read whose gather completes in error fails the
// round with the work request's retryable status, so the client retries,
// and delivers none of the round's bytes.
TEST_F(IodTest, SievedDirectGatherFailsOnAnErroredGather) {
  FaultConfig fc;
  fc.completion_error_rate = 1.0;
  fault::Injector faults(fc, stats_);
  ib::Fabric fabric(cfg_.net, stats_, faults);
  Iod iod(1, /*clients=*/1, cfg_, fabric, stats_, faults);
  iod.file(7).pwrite(0, std::vector<std::byte>(256 * kKiB, std::byte{0x3c}));

  ExtentList acc;
  for (u64 i = 0; i < 128; ++i) acc.push_back({i * 2048, 512});
  const Iod::ReadService svc =
      iod.read_round(round(acc, false, /*ads=*/true), TimePoint::origin(),
                     ReadReturn::kDirectGather, &client_hca_, dest_addr_,
                     dest_key_);
  EXPECT_EQ(stats_.get(stat::kAdsSieved), 1);
  EXPECT_EQ(svc.status.code(), ErrorCode::kUnavailable)
      << svc.status.to_string();
  EXPECT_EQ(stats_.get(stat::kFaultCompletionError), 1);
  for (u64 i = 0; i < 128 * 512; ++i) {
    ASSERT_EQ(client_as_.read_pod<u8>(dest_addr_ + i), 0) << i;
  }
}

TEST_F(IodTest, ReadRoundFastBounceDelivers) {
  disk::LocalFile& f = iod_.file(7);
  std::vector<std::byte> data(16 * kKiB);
  for (u64 i = 0; i < data.size(); ++i) {
    data[i] = std::byte{static_cast<u8>(i ^ 0x5a)};
  }
  f.pwrite(0, data);
  // Out of file order, so a sieved round must put its pieces back into
  // stream order.
  RoundRequest r = round({{9000, 1000}, {1000, 2000}}, false, true);
  Iod::ReadService svc =
      iod_.read_round(r, TimePoint::origin(), ReadReturn::kFastBounce,
                      &client_hca_, dest_addr_, dest_key_);
  ASSERT_TRUE(svc.ok());
  EXPECT_EQ(svc.bytes, 3000u);
  // The bounce write carried the round's stream; the iod hands it back as
  // views of the file's bytes, in stream order, for the client to unpack.
  std::vector<std::byte> stream;
  for (const core::StreamPiece& p : svc.stream) {
    EXPECT_EQ(p.bytes.size(), p.length);  // nothing past EOF
    stream.insert(stream.end(), p.bytes.begin(), p.bytes.end());
  }
  ASSERT_EQ(stream.size(), 3000u);
  for (u64 i = 0; i < 1000; ++i) {
    ASSERT_EQ(stream[i], std::byte{static_cast<u8>((9000 + i) ^ 0x5a)});
  }
  for (u64 i = 0; i < 2000; ++i) {
    ASSERT_EQ(stream[1000 + i], std::byte{static_cast<u8>((1000 + i) ^ 0x5a)});
  }
}

TEST_F(IodTest, ReadBeyondEofYieldsZeros) {
  disk::LocalFile& f = iod_.file(7);
  f.pwrite(0, std::vector<std::byte>(100, std::byte{0x11}));
  RoundRequest r = round({{50, 100}}, false, false);
  Iod::ReadService svc = iod_.read_round(r, TimePoint::origin(),
                                         ReadReturn::kClientPull, nullptr, 0, 0);
  ASSERT_TRUE(svc.ok());
  const core::StagingBuffer& sb = iod_.staging(0);
  const auto& as = iod_.hca().address_space();
  for (u64 i = 0; i < 50; ++i) {
    ASSERT_EQ(as.read_pod<u8>(sb.addr + i), 0x11);
  }
  for (u64 i = 50; i < 100; ++i) {
    ASSERT_EQ(as.read_pod<u8>(sb.addr + i), 0x00);
  }
}

TEST_F(IodTest, OversizedRoundRejected) {
  RoundRequest r = round({{0, cfg_.pvfs.staging_buffer + 1}}, false, false);
  Iod::ReadService svc = iod_.read_round(r, TimePoint::origin(),
                                         ReadReturn::kClientPull, nullptr, 0, 0);
  EXPECT_FALSE(svc.ok());
}

TEST_F(IodTest, StaleEpochMintsAreFencedOutOfStripeHeaders) {
  // The zombie-primary fence: once a takeover sweep raises this iod's
  // manager epoch, versioned rounds whose mint is stamped with an older
  // epoch still land their bytes but never merge the stripe header — a
  // demoted primary can keep writing data, it just can't mark anything
  // current.
  stage_pattern(4096, 4);
  RoundRequest r = round({{0, 1024}}, /*write=*/true, /*ads=*/false);
  r.version = 1;
  r.epoch = 1;
  Iod::WriteService svc = iod_.write_round(r, TimePoint::origin());
  EXPECT_EQ(iod_.stripe_version(7), 1u);
  EXPECT_EQ(svc.ack_version, 1u);
  EXPECT_FALSE(svc.epoch_rejected);

  iod_.note_manager_epoch(2);
  r.version = 5;
  r.epoch = 1;  // minted by the demoted manager
  r.accesses = {{1024, 1024}};
  const i64 before = stats_.get(stat::kPvfsEpochRejections);
  svc = iod_.write_round(r, TimePoint::origin());
  EXPECT_EQ(stats_.get(stat::kPvfsEpochRejections), before + 1);
  EXPECT_EQ(iod_.stripe_version(7), 1u);  // header fenced...
  EXPECT_GE(iod_.file(7).size(), 2048u);  // ...bytes still applied
  // The ack tells the client to re-mint and carries the fenced header.
  EXPECT_TRUE(svc.epoch_rejected);
  EXPECT_EQ(svc.ack_version, 1u);

  // Mints under the current epoch, and unstamped (trusted, e.g. repair)
  // versions, merge as usual.
  r.version = 6;
  r.epoch = 2;
  svc = iod_.write_round(r, TimePoint::origin());
  EXPECT_EQ(iod_.stripe_version(7), 6u);
  EXPECT_EQ(svc.ack_version, 6u);
  EXPECT_FALSE(svc.epoch_rejected);
  r.version = 7;
  r.epoch = 0;
  svc = iod_.write_round(r, TimePoint::origin());
  EXPECT_EQ(iod_.stripe_version(7), 7u);
  EXPECT_EQ(svc.ack_version, 7u);
}

TEST_F(IodTest, RemoveFilePurgesTheStripeHeader) {
  // A header outliving its file would resurrect a deleted stripe in the
  // takeover scan (and in resync targeting).
  stage_pattern(1024, 6);
  RoundRequest r = round({{0, 1024}}, /*write=*/true, /*ads=*/false);
  r.version = 3;
  iod_.write_round(r, TimePoint::origin());
  EXPECT_EQ(iod_.stripe_version(7), 3u);
  EXPECT_EQ(iod_.stripe_headers().count(7), 1u);
  iod_.remove_file(7);
  EXPECT_EQ(iod_.stripe_version(7), 0u);
  EXPECT_TRUE(iod_.stripe_headers().empty());
}

// A removed handle frees its local file's name: the next write to the handle
// creates the file afresh, with none of the old bytes or checksums.
TEST_F(IodTest, RemovedHandleIsRecreatedByTheNextWrite) {
  stage_pattern(4096, 1);
  iod_.write_round(round({{0, 4096}}, true, false), TimePoint::origin());
  iod_.remove_file(7);
  stage_pattern(2048, 2);
  iod_.write_round(round({{100, 2048}}, true, false), TimePoint::origin());
  EXPECT_EQ(iod_.file(7).size(), 2148u);
  Iod::ReadService svc =
      iod_.read_round(round({{0, 2148}}, false, false), TimePoint::origin(),
                      ReadReturn::kClientPull, nullptr, 0, 0);
  ASSERT_TRUE(svc.ok());
  const u64 addr = iod_.staging(0).addr;
  const auto& as = iod_.hca().address_space();
  for (u64 i = 0; i < 100; ++i) ASSERT_EQ(as.read_pod<u8>(addr + i), 0);
  for (u64 i = 0; i < 2048; ++i) {
    ASSERT_EQ(as.read_pod<u8>(addr + 100 + i), static_cast<u8>(2 + i * 13));
  }
}

// A round of many small pieces puts several pieces in one checksum block, and
// stamping hashes each block once for all of them. Every block the round
// touched, including the short last one, must carry a stamp that a later
// read checks: a one-bit change anywhere in the file is reported.
TEST_F(IodTest, ManyPieceRoundStampsEveryBlock) {
  ExtentList acc;
  for (u64 i = 0; i < 40; ++i) acc.push_back({i * 1000, 300});
  stage_pattern(40 * 300, 5);
  iod_.write_round(round(acc, /*write=*/true, /*ads=*/false),
                   TimePoint::origin());
  disk::LocalFile& f = iod_.file(7);
  const u64 size = f.size();
  ASSERT_EQ(size, 39 * 1000 + 300u);  // three 16 KiB blocks, the last short
  auto read_all = [&] {
    return iod_.read_round(round({{0, size}}, false, false),
                           TimePoint::origin(), ReadReturn::kClientPull,
                           nullptr, 0, 0);
  };
  ASSERT_TRUE(read_all().ok());
  for (u64 off : {u64{0}, u64{150}, u64{650}, u64{16 * kKiB - 1},
                  u64{16 * kKiB}, u64{33 * kKiB}, size - 8, size - 1}) {
    f.corrupt({off, 1}, std::byte{0x04});
    EXPECT_FALSE(read_all().ok()) << off;
    f.corrupt({off, 1}, std::byte{0x04});
    EXPECT_TRUE(read_all().ok()) << off;
  }
}

// Growing a file restamps the zero-filled gap and the old short tail block,
// so reads over either verify, and a later change in either is reported.
TEST_F(IodTest, GrowthRestampsGapAndOldTail) {
  stage_pattern(100, 3);
  iod_.write_round(round({{0, 100}}, true, false), TimePoint::origin());
  stage_pattern(100, 4);
  iod_.write_round(round({{40 * kKiB, 100}}, true, false), TimePoint::origin());
  auto read = [&](Extent e) {
    return iod_.read_round(round({e}, false, false), TimePoint::origin(),
                           ReadReturn::kClientPull, nullptr, 0, 0);
  };
  EXPECT_TRUE(read({0, 200}).ok());
  EXPECT_TRUE(read({20 * kKiB, 10}).ok());
  disk::LocalFile& f = iod_.file(7);
  f.corrupt({20 * kKiB + 3, 1}, std::byte{0x10});
  EXPECT_FALSE(read({20 * kKiB, 10}).ok());
  EXPECT_TRUE(read({0, 200}).ok());  // other blocks unaffected
  f.corrupt({150, 1}, std::byte{0x01});
  EXPECT_FALSE(read({0, 10}).ok());
}

TEST_F(IodTest, DiskQueueSerializesRounds) {
  stage_pattern(1 * kMiB, 3);
  RoundRequest r = round({{0, 1 * kMiB}}, true, false);
  const TimePoint t1 = iod_.write_round(r, TimePoint::origin()).done;
  // A second round arriving at time 0 queues behind the first.
  r.accesses = {{4 * kMiB, 1 * kMiB}};
  const TimePoint t2 = iod_.write_round(r, TimePoint::origin()).done;
  EXPECT_GT(t2, t1);
  const Duration d1 = t1 - TimePoint::origin();
  EXPECT_NEAR((t2 - TimePoint::origin()).as_us(), 2 * d1.as_us(),
              d1.as_us() * 0.2);
}

}  // namespace
}  // namespace pvfsib::pvfs
