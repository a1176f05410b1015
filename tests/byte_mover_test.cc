#include "common/byte_mover.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace pvfsib {
namespace {

// What copy() must equal: the ops applied one by one, in order.
void copy_in_order(std::span<const CopyOp> ops) {
  for (const CopyOp& op : ops) {
    if (op.len > 0) std::memmove(op.dst, op.src, op.len);
  }
}

std::vector<std::byte> random_bytes(u64 n, Rng& rng) {
  std::vector<std::byte> v(n);
  for (u64 i = 0; i < n; i += 8) {
    const u64 word = rng.next();
    std::memcpy(v.data() + i, &word, std::min<u64>(8, n - i));
  }
  return v;
}

// A batch of `total` bytes in 1-4 KiB pieces: sources anywhere in `src`
// (they may overlap each other), destinations disjoint slots of a buffer
// twice `total`'s size, in shuffled order.
struct Piece {
  u64 dst = 0;
  u64 src = 0;
  u64 len = 0;
};
std::vector<Piece> random_pieces(u64 total, Rng& rng) {
  std::vector<Piece> pieces;
  u64 placed = 0;
  u64 dst = 0;
  while (placed < total) {
    const u64 len = std::min<u64>(kKiB + rng.next() % (3 * kKiB + 1),
                                  total - placed);
    dst += rng.next() % len;  // a gap of up to one piece
    pieces.push_back({dst, rng.next() % (total - len + 1), len});
    dst += len;
    placed += len;
  }
  for (size_t i = pieces.size(); i > 1; --i) {
    std::swap(pieces[i - 1], pieces[rng.next() % i]);
  }
  return pieces;
}

std::vector<CopyOp> ops_for(const std::vector<Piece>& pieces,
                            std::vector<std::byte>& dst,
                            const std::vector<std::byte>& src) {
  std::vector<CopyOp> ops;
  for (const Piece& p : pieces) {
    ops.push_back({dst.data() + p.dst, src.data() + p.src, p.len});
  }
  return ops;
}

TEST(ByteMover, RandomBatchesMatchInOrderCopies) {
  ByteMover mover(3);
  Rng rng(7);
  for (const u64 total :
       {16 * kKiB, 64 * kKiB, 100 * kKiB, 256 * kKiB, 1 * kMiB, 4 * kMiB}) {
    for (int round = 0; round < (total < kMiB ? 4 : 1); ++round) {
      SCOPED_TRACE(testing::Message() << total << " B, round " << round);
      const std::vector<std::byte> src = random_bytes(total, rng);
      const std::vector<Piece> pieces = random_pieces(total, rng);
      std::vector<std::byte> want = random_bytes(2 * total, rng);
      std::vector<std::byte> got = want;
      copy_in_order(ops_for(pieces, want, src));
      mover.copy(ops_for(pieces, got, src));
      ASSERT_EQ(got, want);
    }
  }
}

TEST(ByteMover, OneLargeOpIsSplitAcrossParts) {
  ByteMover mover(3);
  Rng rng(8);
  const std::vector<std::byte> src = random_bytes(8 * kMiB, rng);
  std::vector<std::byte> dst(8 * kMiB + 3);
  const CopyOp op{dst.data() + 3, src.data(), src.size()};
  mover.copy({&op, 1});
  EXPECT_EQ(dst[0], std::byte{0});
  EXPECT_TRUE(std::equal(src.begin(), src.end(), dst.begin() + 3));
}

TEST(ByteMover, OverlappingDestinationsEndAsInOrderCopies) {
  ByteMover mover(3);
  Rng rng(9);
  const u64 n = 64 * kKiB;
  const std::vector<std::byte> a = random_bytes(n, rng);
  const std::vector<std::byte> b = random_bytes(n, rng);
  std::vector<std::byte> want(2 * n);
  std::vector<std::byte> got(2 * n);
  auto ops = [&](std::vector<std::byte>& dst) {
    // The second op overwrites the back half of the first one's bytes.
    return std::vector<CopyOp>{{dst.data(), a.data(), n},
                               {dst.data() + n / 2, b.data(), n}};
  };
  copy_in_order(ops(want));
  mover.copy(ops(got));
  EXPECT_EQ(got, want);
  EXPECT_TRUE(std::equal(b.begin(), b.end(), got.begin() + n / 2));
}

TEST(ByteMover, DestinationOverlappingASourceEndsAsInOrderCopies) {
  ByteMover mover(3);
  Rng rng(10);
  const u64 n = 96 * kKiB;
  const std::vector<std::byte> a = random_bytes(n, rng);
  const std::vector<std::byte> old_b = random_bytes(n, rng);
  for (const bool chain_first : {true, false}) {
    SCOPED_TRACE(chain_first ? "a->b, b->c" : "b->c, a->b");
    std::vector<std::byte> b = old_b;
    std::vector<std::byte> c(n);
    const CopyOp a_to_b{b.data(), a.data(), n};
    const CopyOp b_to_c{c.data(), b.data(), n};
    const std::vector<CopyOp> ops =
        chain_first ? std::vector{a_to_b, b_to_c} : std::vector{b_to_c, a_to_b};
    mover.copy(ops);
    EXPECT_EQ(b, a);
    EXPECT_EQ(c, chain_first ? a : old_b);
  }
}

TEST(ByteMover, EmptyBatchesAndZeroLengthOps) {
  ByteMover mover(3);
  mover.copy({});
  Rng rng(11);
  const std::vector<std::byte> src = random_bytes(128 * kKiB, rng);
  std::vector<std::byte> dst(128 * kKiB);
  const std::vector<CopyOp> ops = {
      {nullptr, nullptr, 0},
      {dst.data(), src.data(), 64 * kKiB},
      {nullptr, nullptr, 0},
      {dst.data() + 64 * kKiB, src.data() + 64 * kKiB, 0},
      {dst.data() + 64 * kKiB, src.data() + 64 * kKiB, 64 * kKiB},
      {nullptr, nullptr, 0},
  };
  mover.copy(ops);
  EXPECT_EQ(dst, src);
  const CopyOp nothing{nullptr, nullptr, 0};
  mover.copy({&nothing, 1});
}

TEST(ByteMover, TwoThreadsCallingAtOnce) {
  ByteMover mover(3);
  auto run = [&mover](u64 seed, bool* ok) {
    Rng rng(seed);
    *ok = true;
    for (int i = 0; i < 40; ++i) {
      const u64 total = 64 * kKiB + rng.next() % (512 * kKiB);
      const std::vector<std::byte> src = random_bytes(total, rng);
      const std::vector<Piece> pieces = random_pieces(total, rng);
      std::vector<std::byte> want(2 * total);
      std::vector<std::byte> got(2 * total);
      copy_in_order(ops_for(pieces, want, src));
      mover.copy(ops_for(pieces, got, src));
      *ok = *ok && got == want;
    }
  };
  bool ok1 = false;
  bool ok2 = false;
  std::thread t1(run, 12, &ok1);
  std::thread t2(run, 13, &ok2);
  t1.join();
  t2.join();
  EXPECT_TRUE(ok1);
  EXPECT_TRUE(ok2);
}

TEST(ByteMover, WithoutWorkersCopiesInline) {
  ByteMover mover(0);
  EXPECT_EQ(mover.workers(), 0u);
  Rng rng(14);
  const u64 total = 1 * kMiB;
  const std::vector<std::byte> src = random_bytes(total, rng);
  const std::vector<Piece> pieces = random_pieces(total, rng);
  std::vector<std::byte> want(2 * total);
  std::vector<std::byte> got(2 * total);
  copy_in_order(ops_for(pieces, want, src));
  mover.copy(ops_for(pieces, got, src));
  EXPECT_EQ(got, want);
}

TEST(ByteMover, SharedMoverHasOneWorkerPerSpareCpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  const u32 spare = static_cast<u32>(CPU_COUNT(&set) - 1);
  EXPECT_EQ(ByteMover::shared().workers(),
            std::min(spare, ByteMover::kMaxWorkers));
  EXPECT_EQ(ByteMover(7).workers(), ByteMover::kMaxWorkers);
}

}  // namespace
}  // namespace pvfsib
