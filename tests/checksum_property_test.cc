// Differential test of the iod's lazy block checksums.
//
// One Iod runs a random schedule of separate and sieved write rounds (growth
// past EOF, holes), read-repair applies, torn/flip/lost round faults, at-rest
// bit flips, direct corruptions, read rounds, scrub-sized range verifies and
// remove/recreate.
// Beside it the test keeps an eager reference: at every stamp it hashes each
// stamped block of the bytes the round meant to leave, with the same
// checksum function, and a verdict re-hashes every stamped block a range
// touches. Every verdict the iod gives (read rounds, range verifies) must
// equal the reference's, and a round no fault touched must leave exactly
// the intended bytes.
//
// Replay a failing schedule with PVFS_PROPERTY_SEED=<seed>.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <vector>

#include "common/rng.h"
#include "fault/injector.h"
#include "pvfs/iod.h"

namespace pvfsib::pvfs {
namespace {

constexpr Handle kHandles[] = {1, 2, 3};

// The eager reference: block -> the sum stamped when the block was last
// written, per handle.
class EagerSums {
 public:
  explicit EagerSums(u64 block) : block_(block) {}

  // Stamp the blocks overlapping `ranges` from `bytes`, the whole file as
  // the apply left it before any corruption.
  void stamp(Handle h, const ExtentList& ranges,
             const std::vector<std::byte>& bytes) {
    for (u64 b : blocks(ranges, bytes.size())) {
      sums_[h][b] = disk::block_checksum(block_bytes(bytes, b));
    }
  }

  bool verify(Handle h, const ExtentList& ranges,
              std::span<const std::byte> bytes) const {
    const auto it = sums_.find(h);
    if (it == sums_.end()) return true;
    for (u64 b : blocks(ranges, bytes.size())) {
      const auto s = it->second.find(b);
      if (s != it->second.end() &&
          disk::block_checksum(block_bytes(bytes, b)) != s->second) {
        return false;
      }
    }
    return true;
  }

  void drop(Handle h) { sums_.erase(h); }

 private:
  std::vector<u64> blocks(const ExtentList& ranges, u64 size) const {
    std::vector<u64> out;
    for (const Extent& r : ranges) {
      if (r.length == 0 || r.offset >= size) continue;
      const u64 last = (std::min(r.end(), size) - 1) / block_;
      for (u64 b = r.offset / block_; b <= last; ++b) out.push_back(b);
    }
    return out;
  }

  std::span<const std::byte> block_bytes(std::span<const std::byte> bytes,
                                         u64 b) const {
    const u64 lo = b * block_;
    return bytes.subspan(lo, std::min(lo + block_, bytes.size()) - lo);
  }

  u64 block_;
  std::map<Handle, std::map<u64, u64>> sums_;
};

// Sorted, disjoint pieces inside [0, span).
ExtentList random_pieces(Rng& rng, u64 span, u64 max_pieces, u64 max_len) {
  ExtentList out;
  const u64 n = rng.range(1, max_pieces);
  u64 at = rng.below(span / 2);
  for (u64 i = 0; i < n && at < span; ++i) {
    const u64 len = std::min(rng.range(1, max_len), span - at);
    out.push_back({at, len});
    at += len + rng.below(3 * max_len);
  }
  return out;
}

TEST(ChecksumProperty, LazyVerdictsMatchEagerReference) {
  u64 seed = 1;
  if (const char* env = std::getenv("PVFS_PROPERTY_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  SCOPED_TRACE("PVFS_PROPERTY_SEED=" + std::to_string(seed));
  Rng rng(seed);

  ModelConfig cfg = ModelConfig::paper_defaults();
  const u64 block_choices[] = {1000, 4 * kKiB, 16 * kKiB};
  cfg.replication.integrity_block_bytes = block_choices[rng.below(3)];
  cfg.fault.seed = seed;
  cfg.fault.torn_write_rate = 0.1;
  cfg.fault.bit_flip_rate = 0.1;
  cfg.fault.lost_write_rate = 0.05;
  Stats stats;
  fault::Injector faults(cfg.fault, stats);
  ib::Fabric fabric(cfg.net, stats, faults);
  Iod iod(0, /*client_count=*/1, cfg, fabric, stats, faults);
  EagerSums ref(cfg.replication.integrity_block_bytes);

  // The file span a schedule plays in: several checksum blocks, and more
  // than one ADS window of small pieces.
  const u64 span = 256 * kKiB;
  u64 verdicts = 0;
  u64 mismatches = 0;
  u64 sieved_writes = 0;
  TimePoint t = TimePoint::origin();
  for (int step = 0; step < 600; ++step) {
    t = t + Duration::us(10.0);
    const Handle h = kHandles[rng.below(std::size(kHandles))];
    const double op = rng.uniform01();
    SCOPED_TRACE("step " + std::to_string(step) + " h" + std::to_string(h));

    if (op < 0.35) {
      // A write: mostly a client round (dense small pieces sieve, sparse or
      // large ones don't), sometimes a read-repair apply.
      const bool dense = rng.chance(0.5);
      const ExtentList acc = random_pieces(rng, span, dense ? 48 : 6,
                                           dense ? 600 : 12 * kKiB);
      std::vector<std::byte> stream(total_length(acc));
      for (std::byte& b : stream) b = std::byte{static_cast<u8>(rng.next())};
      const auto before = iod.file(h).contents();
      std::vector<std::byte> intended(before.begin(), before.end());
      const u64 pre_size = intended.size();
      u64 pos = 0;
      for (const Extent& a : acc) {
        if (a.end() > intended.size()) intended.resize(a.end());
        std::copy_n(stream.begin() + pos, a.length,
                    intended.begin() + a.offset);
        pos += a.length;
      }

      const i64 lost = stats.get(stat::kFaultLostWrite);
      const i64 hurt = stats.get(stat::kFaultTornWrite) +
                       stats.get(stat::kFaultBitFlip);
      if (rng.chance(0.15)) {
        iod.apply_repair(h, acc, stream, /*version=*/0, t);
      } else {
        RoundRequest r;
        r.handle = h;
        r.is_write = true;
        r.use_ads = rng.chance(0.7);
        r.sync = rng.chance(0.2);
        r.accesses = acc;
        std::ranges::copy(stream, iod.hca()
                                      .address_space()
                                      .writable_span(iod.staging(0).addr,
                                                     stream.size())
                                      .begin());
        const i64 sieved = stats.get(stat::kAdsSieved);
        iod.write_round(r, t);
        if (stats.get(stat::kAdsSieved) != sieved) ++sieved_writes;
      }
      const auto after = iod.file(h).contents();
      if (stats.get(stat::kFaultLostWrite) != lost) {
        ASSERT_EQ(after.size(), pre_size);
        continue;  // acked but never applied: no bytes, no stamps
      }
      ASSERT_EQ(after.size(), intended.size());
      if (stats.get(stat::kFaultTornWrite) + stats.get(stat::kFaultBitFlip) ==
          hurt) {
        ASSERT_TRUE(std::equal(after.begin(), after.end(), intended.begin()));
      }
      ExtentList stamped = acc;
      if (intended.size() > pre_size) {
        stamped.push_back({pre_size, intended.size() - pre_size});
      }
      ref.stamp(h, stamped, intended);
    } else if (op < 0.55) {
      // Read round: verify-on-read gates the data.
      RoundRequest r;
      r.handle = h;
      r.is_write = false;
      r.use_ads = rng.chance(0.5);
      r.accesses = random_pieces(rng, span + 16 * kKiB, 32, 8 * kKiB);
      const bool want = ref.verify(h, r.accesses, iod.file(h).contents());
      const Iod::ReadService svc =
          iod.read_round(r, t, ReadReturn::kClientPull, nullptr, 0, 0);
      ASSERT_EQ(svc.ok(), want);
      ++verdicts;
      mismatches += want ? 0 : 1;
      if (svc.ok()) {
        // The stream it hands back holds the file's bytes, zeros past EOF.
        std::vector<std::byte> stream;
        for (const core::StreamPiece& p : svc.stream) {
          stream.insert(stream.end(), p.bytes.begin(), p.bytes.end());
          stream.resize(stream.size() + (p.length - p.bytes.size()));
        }
        ASSERT_EQ(stream.size(), total_length(r.accesses));
        const auto bytes = iod.file(h).contents();
        u64 pos = 0;
        for (const Extent& a : r.accesses) {
          for (u64 i = 0; i < a.length; i += 97) {
            const u64 off = a.offset + i;
            const std::byte expect =
                off < bytes.size() ? bytes[off] : std::byte{0};
            ASSERT_EQ(stream[pos + i], expect);
          }
          pos += a.length;
        }
      }
    } else if (op < 0.7) {
      // A scrub-sized range verify straight on the local file.
      const u64 chunk = cfg.replication.scrub_chunk_bytes;
      const Extent range{rng.below(span), rng.range(1, chunk)};
      disk::LocalFile& f = iod.file(h);
      const bool want = ref.verify(h, {range}, f.contents());
      ASSERT_EQ(f.verify({range}), want);
      ++verdicts;
      mismatches += want ? 0 : 1;
    } else if (op < 0.8) {
      iod.inject_bit_flip(t);
    } else if (op < 0.9) {
      // Direct corruption, sometimes undone again: a block whose bytes are
      // restored verifies clean.
      disk::LocalFile& f = iod.file(h);
      const Extent range{rng.below(span), rng.range(1, 3 * kKiB)};
      const std::byte mask{static_cast<u8>(1 + rng.below(255))};
      f.corrupt(range, mask);
      if (rng.chance(0.5)) f.corrupt(range, mask);
    } else if (op < 0.95) {
      // Remove, after which the next use recreates the file empty.
      iod.remove_file(h);
      ref.drop(h);
      ASSERT_EQ(iod.file(h).size(), 0u);
    } else {
      // Verify every handle in full: each file's complete verdict.
      for (Handle g : kHandles) {
        disk::LocalFile& f = iod.file(g);
        const ExtentList all = {{0, f.size()}};
        ASSERT_EQ(f.verify(all), ref.verify(g, all, f.contents()));
      }
    }
  }
  // The schedule exercised sieved write-back and both verdicts.
  EXPECT_GT(sieved_writes, 0u);
  EXPECT_GT(verdicts, 50u);
  EXPECT_GT(mismatches, 0u);
  EXPECT_LT(mismatches, verdicts);
}

}  // namespace
}  // namespace pvfsib::pvfs
