#include "common/zero_pages.h"

#include <sys/mman.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace pvfsib {
namespace {

bool all_zero(const ZeroPages& z, u64 off, u64 len) {
  for (u64 i = off; i < off + len; ++i) {
    if (z.data()[i] != std::byte{0}) return false;
  }
  return true;
}

TEST(ZeroPages, StartsEmptyAndGrowsZeroFilled) {
  ZeroPages z;
  EXPECT_EQ(z.size(), 0u);
  z.grow_to(10000);
  EXPECT_EQ(z.size(), 10000u);
  EXPECT_TRUE(all_zero(z, 0, 10000));
}

// Growth may move the region, but never loses written bytes, and every new
// byte reads as zero.
TEST(ZeroPages, GrowthKeepsBytesAndZeroFillsTheTail) {
  Rng rng(7);
  ZeroPages z;
  std::vector<std::byte> mirror;
  for (int step = 0; step < 12; ++step) {
    const u64 old = z.size();
    const u64 n = old + rng.range(1, 300 * kKiB);
    z.grow_to(n);
    mirror.resize(n);
    ASSERT_TRUE(all_zero(z, old, n - old)) << "step " << step;
    for (int k = 0; k < 64; ++k) {
      const u64 at = rng.below(n);
      const auto b = static_cast<std::byte>(rng.next());
      z.data()[at] = b;
      mirror[at] = b;
    }
  }
  for (u64 i = 0; i < mirror.size(); ++i) ASSERT_EQ(z.data()[i], mirror[i]);
}

TEST(ZeroPages, ZeroClearsUnalignedRangesOnly) {
  ZeroPages z;
  const u64 n = 5 * kPageSize + 123;
  z.grow_to(n);
  std::fill(z.data(), z.data() + n, std::byte{0xab});
  // Partial first page, whole middle pages, partial last page.
  z.zero(1000, 3 * kPageSize + 10);
  for (u64 i = 0; i < n; ++i) {
    const bool cleared = i >= 1000 && i < 1000 + 3 * kPageSize + 10;
    ASSERT_EQ(z.data()[i], cleared ? std::byte{0} : std::byte{0xab}) << i;
  }
  // A range inside one page.
  z.zero(n - 20, 7);
  EXPECT_TRUE(all_zero(z, n - 20, 7));
  EXPECT_EQ(z.data()[n - 13], std::byte{0xab});
}

TEST(ZeroPages, ClearReleasesEverything) {
  ZeroPages z;
  z.grow_to(kMiB);
  z.data()[7] = std::byte{1};
  z.clear();
  EXPECT_EQ(z.size(), 0u);
  EXPECT_EQ(z.data(), nullptr);
  z.grow_to(16);
  EXPECT_TRUE(all_zero(z, 0, 16));
}

// The point of the type: capacity nobody writes is not resident. Touch one
// byte of 256 MiB and ask the kernel how many pages are backed.
TEST(ZeroPages, UntouchedBytesAreNotResident) {
  ZeroPages z;
  const u64 n = 256 * kMiB;
  z.grow_to(n);
  z.data()[n / 2] = std::byte{1};
  const u64 page = static_cast<u64>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec((n + page - 1) / page);
  ASSERT_EQ(mincore(z.data(), n, vec.data()), 0);
  u64 resident = 0;
  for (unsigned char v : vec) resident += v & 1;
  // One page, or one transparent huge page around it.
  EXPECT_GE(resident, 1u);
  EXPECT_LE(resident * page, 2 * kMiB);
}

}  // namespace
}  // namespace pvfsib
