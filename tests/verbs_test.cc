#include "ib/verbs.h"

#include <gtest/gtest.h>

namespace pvfsib::ib {
namespace {

class VerbsTest : public ::testing::Test {
 protected:
  vmem::AddressSpace as_;
  Stats stats_;
  RegParams params_;
  Hca hca_{"node0", as_, params_, stats_};
};

TEST_F(VerbsTest, RegisterMappedRangeSucceeds) {
  const u64 a = as_.alloc(8 * kPageSize);
  RegAttempt r = hca_.register_memory(a + 100, 2 * kPageSize);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.key, 0u);
  // Cost follows T = a*p + b with page rounding: [a, a+100+2p) -> 3 pages.
  EXPECT_NEAR(r.cost.as_us(), 7.42 + 3 * 0.77, 0.01);
  EXPECT_EQ(stats_.get(stat::kMrRegister), 1);
  EXPECT_EQ(hca_.regions_live(), 1u);
  EXPECT_EQ(hca_.bytes_registered(), 3 * kPageSize);
}

TEST_F(VerbsTest, RegisterUnmappedRangeFails) {
  const u64 a = as_.alloc(kPageSize);
  as_.skip(kPageSize);
  const u64 b = as_.alloc(kPageSize);
  RegAttempt r = hca_.register_memory(a, b + kPageSize - a);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), ErrorCode::kPermissionDenied);
  // The failed attempt still costs: base plus the page pinned before the
  // fault.
  EXPECT_GE(r.cost.as_us(), 7.42);
  EXPECT_EQ(hca_.regions_live(), 0u);
  EXPECT_EQ(stats_.get(stat::kMrRegister), 0);
}

TEST_F(VerbsTest, DeregisterReleases) {
  const u64 a = as_.alloc(4 * kPageSize);
  RegAttempt r = hca_.register_memory(a, 4 * kPageSize);
  ASSERT_TRUE(r.ok());
  const Duration d = hca_.deregister(r.key);
  EXPECT_NEAR(d.as_us(), 1.1 + 4 * 0.23, 0.01);
  EXPECT_EQ(hca_.regions_live(), 0u);
  EXPECT_EQ(hca_.bytes_registered(), 0u);
  EXPECT_EQ(stats_.get(stat::kMrDeregister), 1);
  // Unknown key is a no-op.
  EXPECT_EQ(hca_.deregister(12345), Duration::zero());
}

TEST_F(VerbsTest, ValidateChecksContainment) {
  const u64 a = as_.alloc(2 * kPageSize);
  RegAttempt r = hca_.register_memory(a, kPageSize);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(hca_.validate(r.key, a, kPageSize));
  EXPECT_TRUE(hca_.validate(r.key, a + 100, 200));
  EXPECT_FALSE(hca_.validate(r.key, a, kPageSize + 1));
  EXPECT_FALSE(hca_.validate(999, a, 10));
}

TEST_F(VerbsTest, ValidateSges) {
  const u64 a = as_.alloc(4 * kPageSize);
  RegAttempt r = hca_.register_memory(a, 4 * kPageSize);
  ASSERT_TRUE(r.ok());
  std::vector<Sge> good{{a, 100, r.key}, {a + kPageSize, 50, r.key}};
  EXPECT_TRUE(hca_.validate_sges(good).is_ok());
  std::vector<Sge> zero{{a, 0, r.key}};
  EXPECT_FALSE(hca_.validate_sges(zero).is_ok());
  std::vector<Sge> outside{{a + 4 * kPageSize - 10, 20, r.key}};
  EXPECT_FALSE(hca_.validate_sges(outside).is_ok());
}

TEST_F(VerbsTest, ZeroLengthRegistrationRejected) {
  EXPECT_FALSE(hca_.register_memory(as_.alloc(kPageSize), 0).ok());
}

TEST_F(VerbsTest, PartiallyMappedPrefixChargesPinnedPages) {
  // Map 3 pages, hole, map more; register across — fails after pinning 3.
  const u64 a = as_.alloc(3 * kPageSize);
  as_.skip(kPageSize);
  as_.alloc(2 * kPageSize);
  RegAttempt r = hca_.register_memory(a, 6 * kPageSize);
  ASSERT_FALSE(r.ok());
  EXPECT_NEAR(r.cost.as_us(), 7.42 + 3 * 0.77, 0.01);
}

}  // namespace
}  // namespace pvfsib::ib
