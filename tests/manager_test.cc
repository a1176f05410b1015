// Metadata manager unit tests: namespace operations, striping parameters,
// size bookkeeping, and control-message timing.
#include "pvfs/manager.h"

#include <gtest/gtest.h>

#include "fault/injector.h"

namespace pvfsib::pvfs {
namespace {

class ManagerTest : public ::testing::Test {
 protected:
  ManagerTest()
      : cfg_(ModelConfig::paper_defaults()),
        fabric_(cfg_.net, stats_, faults_),
        mgr_(cfg_, fabric_, stats_, faults_),
        client_hca_("c", client_as_, cfg_.reg, stats_) {}

  ModelConfig cfg_;
  Stats stats_;
  fault::Injector faults_{FaultConfig{}, stats_};
  ib::Fabric fabric_;
  Manager mgr_;
  vmem::AddressSpace client_as_;
  ib::Hca client_hca_;
};

TEST_F(ManagerTest, CreateAssignsUniqueHandles) {
  auto a = mgr_.create(client_hca_, TimePoint::origin(), "/a", 64 * kKiB, 4);
  auto b = mgr_.create(client_hca_, TimePoint::origin(), "/b", 64 * kKiB, 4);
  ASSERT_TRUE(a.value.is_ok());
  ASSERT_TRUE(b.value.is_ok());
  EXPECT_NE(a.value.value().handle, b.value.value().handle);
  EXPECT_GT(a.cost, Duration::zero());  // control round-trip charged
}

TEST_F(ManagerTest, DuplicateCreateFails) {
  ASSERT_TRUE(mgr_.create(client_hca_, TimePoint::origin(), "/a", 64 * kKiB, 4)
                  .value.is_ok());
  auto dup = mgr_.create(client_hca_, TimePoint::origin(), "/a", 64 * kKiB, 4);
  EXPECT_FALSE(dup.value.is_ok());
  EXPECT_EQ(dup.value.status().code(), ErrorCode::kAlreadyExists);
  // The failed round-trip still costs time.
  EXPECT_GT(dup.cost, Duration::zero());
}

TEST_F(ManagerTest, BadStripingRejected) {
  EXPECT_FALSE(mgr_.create(client_hca_, TimePoint::origin(), "/z", 0, 4)
                   .value.is_ok());
  EXPECT_FALSE(mgr_.create(client_hca_, TimePoint::origin(), "/z", 64 * kKiB, 0)
                   .value.is_ok());
}

TEST_F(ManagerTest, OpenReturnsMetadata) {
  mgr_.create(client_hca_, TimePoint::origin(), "/a", 128 * kKiB, 2);
  auto o = mgr_.open(client_hca_, TimePoint::origin(), "/a");
  ASSERT_TRUE(o.value.is_ok());
  EXPECT_EQ(o.value.value().stripe_size, 128 * kKiB);
  EXPECT_EQ(o.value.value().iod_count, 2u);
  EXPECT_FALSE(
      mgr_.open(client_hca_, TimePoint::origin(), "/nope").value.is_ok());
}

TEST_F(ManagerTest, RemoveDeletesNamespaceEntry) {
  mgr_.create(client_hca_, TimePoint::origin(), "/a", 64 * kKiB, 4);
  ASSERT_TRUE(mgr_.remove(client_hca_, TimePoint::origin(), "/a").value.is_ok());
  EXPECT_FALSE(
      mgr_.open(client_hca_, TimePoint::origin(), "/a").value.is_ok());
  EXPECT_FALSE(
      mgr_.remove(client_hca_, TimePoint::origin(), "/a").value.is_ok());
  // The name can be reused.
  EXPECT_TRUE(mgr_.create(client_hca_, TimePoint::origin(), "/a", 64 * kKiB, 4)
                  .value.is_ok());
}

TEST_F(ManagerTest, SizeBookkeepingMonotone) {
  auto f = mgr_.create(client_hca_, TimePoint::origin(), "/a", 64 * kKiB, 4);
  const Handle h = f.value.value().handle;
  mgr_.note_written(h, 1000);
  mgr_.note_written(h, 500);  // smaller end must not shrink the file
  EXPECT_EQ(mgr_.stat("/a").value().logical_size, 1000u);
  mgr_.note_written(h, 2000);
  EXPECT_EQ(mgr_.stat("/a").value().logical_size, 2000u);
  mgr_.note_written(999, 5000);  // unknown handle ignored
}

TEST_F(ManagerTest, RoundTripTimeMatchesControlPath) {
  auto f = mgr_.create(client_hca_, TimePoint::origin(), "/t", 64 * kKiB, 4);
  // request + reply latencies plus the manager's lookup cost (~5 us).
  EXPECT_NEAR(f.cost.as_us(), 2 * cfg_.net.send_latency.as_us() + 5.0, 2.0);
}

// --- replica placement ---------------------------------------------------

TEST(ReplicaPlacement, RotatesChainedAcrossPhysicalIods) {
  auto r = Manager::place_replicas(/*base=*/0, /*stripe_width=*/4,
                                   /*factor=*/2, /*physical_count=*/4);
  ASSERT_TRUE(r.is_ok());
  const std::vector<std::vector<u32>> want = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  EXPECT_EQ(r.value(), want);
}

TEST(ReplicaPlacement, HonoursBaseOffsetAndWrapsAtHigherFactor) {
  auto r = Manager::place_replicas(/*base=*/2, /*stripe_width=*/2,
                                   /*factor=*/3, /*physical_count=*/4);
  ASSERT_TRUE(r.is_ok());
  const std::vector<std::vector<u32>> want = {{2, 3, 0}, {3, 0, 1}};
  EXPECT_EQ(r.value(), want);
}

TEST(ReplicaPlacement, ReplicasOfOneStripeAreAlwaysDistinct) {
  for (u32 count = 1; count <= 6; ++count) {
    for (u32 factor = 1; factor <= count; ++factor) {
      auto r = Manager::place_replicas(1, /*stripe_width=*/count, factor,
                                       count);
      ASSERT_TRUE(r.is_ok());
      for (const std::vector<u32>& set : r.value()) {
        ASSERT_EQ(set.size(), factor);
        for (size_t a = 0; a < set.size(); ++a) {
          for (size_t b = a + 1; b < set.size(); ++b) {
            EXPECT_NE(set[a], set[b]) << "count " << count << " factor "
                                      << factor;
          }
        }
      }
    }
  }
}

TEST(ReplicaPlacement, RejectsImpossibleFactors) {
  EXPECT_FALSE(Manager::place_replicas(0, 4, /*factor=*/0, 4).is_ok());
  EXPECT_FALSE(
      Manager::place_replicas(0, 4, /*factor=*/5, /*physical_count=*/4)
          .is_ok());
  EXPECT_FALSE(
      Manager::place_replicas(0, 4, /*factor=*/2, /*physical_count=*/0)
          .is_ok());
}

TEST_F(ManagerTest, ReplicatedCreatePopulatesRotatedSets) {
  Manager mgr(cfg_, fabric_, stats_, faults_,
              ManagerOptions{.cluster_iod_count = 4});
  auto f = mgr.create(client_hca_, TimePoint::origin(), "/rep", 64 * kKiB, 4,
                      /*base_iod=*/0, /*replication_factor=*/2);
  ASSERT_TRUE(f.value.is_ok());
  const FileMeta& meta = f.value.value();
  EXPECT_EQ(meta.replication_factor, 2u);
  const std::vector<std::vector<u32>> want = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  EXPECT_EQ(meta.replicas, want);
  // The primary of stripe k is exactly the classic PVFS target.
  for (u32 k = 0; k < 4; ++k) {
    EXPECT_EQ(meta.replicas[k][0], (meta.base_iod + k) % 4);
  }
}

TEST_F(ManagerTest, FactorOneCreateLeavesReplicasEmpty) {
  auto f = mgr_.create(client_hca_, TimePoint::origin(), "/one", 64 * kKiB, 4);
  ASSERT_TRUE(f.value.is_ok());
  EXPECT_EQ(f.value.value().replication_factor, 1u);
  EXPECT_TRUE(f.value.value().replicas.empty());
}

TEST_F(ManagerTest, ReplicatedCreateRejectedBeyondClusterSize) {
  // The fixture's manager was built with an unknown (0) cluster size:
  // replicated creates must be refused rather than placed blindly.
  auto unknown = mgr_.create(client_hca_, TimePoint::origin(), "/r0",
                             64 * kKiB, 4, /*base_iod=*/0,
                             /*replication_factor=*/2);
  EXPECT_FALSE(unknown.value.is_ok());

  Manager small(cfg_, fabric_, stats_, faults_,
                ManagerOptions{.cluster_iod_count = 2});
  auto too_wide = small.create(client_hca_, TimePoint::origin(), "/r1",
                               64 * kKiB, 2, /*base_iod=*/0,
                               /*replication_factor=*/3);
  EXPECT_FALSE(too_wide.value.is_ok());
  EXPECT_EQ(too_wide.value.status().code(), ErrorCode::kInvalidArgument);
  // The name stays free after a rejected placement.
  EXPECT_TRUE(small
                  .create(client_hca_, TimePoint::origin(), "/r1", 64 * kKiB,
                          2, /*base_iod=*/0, /*replication_factor=*/2)
                  .value.is_ok());
}

// --- version plane -------------------------------------------------------

TEST_F(ManagerTest, VersionPlaneIsInertAtFactorOne) {
  auto f = mgr_.create(client_hca_, TimePoint::origin(), "/v1", 64 * kKiB, 4);
  ASSERT_TRUE(f.value.is_ok());
  const Handle h = f.value.value().handle;
  EXPECT_EQ(mgr_.allocate_stripe_version(h, 0), 0u);
  EXPECT_EQ(mgr_.allocate_stripe_version(h, 0), 0u);
  EXPECT_FALSE(mgr_.stripe_versions(h, 0).known);
  EXPECT_EQ(mgr_.allocate_stripe_version(/*unknown=*/999, 0), 0u);
}

TEST_F(ManagerTest, VersionsMonotonePerStripeAndTrackedPerReplica) {
  Manager mgr(cfg_, fabric_, stats_, faults_,
              ManagerOptions{.cluster_iod_count = 4});
  auto f = mgr.create(client_hca_, TimePoint::origin(), "/rep", 64 * kKiB, 4,
                      /*base_iod=*/0, /*replication_factor=*/2);
  ASSERT_TRUE(f.value.is_ok());
  const Handle h = f.value.value().handle;
  // Stripe 1's chain is {iod1, iod2}.
  EXPECT_EQ(mgr.allocate_stripe_version(h, 1), 1u);
  EXPECT_EQ(mgr.allocate_stripe_version(h, 1), 2u);
  EXPECT_EQ(mgr.allocate_stripe_version(h, 3), 1u);  // per-stripe sequences
  mgr.note_replica_version(h, 1, /*iod_id=*/1, 1);   // primary acked v1 only
  mgr.note_replica_version(h, 1, /*iod_id=*/2, 2);   // backup acked v2
  Manager::StripeVersionView v = mgr.stripe_versions(h, 1);
  ASSERT_TRUE(v.known);
  EXPECT_EQ(v.latest, 2u);
  ASSERT_EQ(v.replica_versions.size(), 2u);
  EXPECT_EQ(v.replica_versions[0], 1u);
  EXPECT_EQ(v.replica_versions[1], 2u);
  // A stale (replayed) note never regresses the record.
  mgr.note_replica_version(h, 1, 2, 1);
  EXPECT_EQ(mgr.stripe_versions(h, 1).replica_versions[1], 2u);
  // Notes from iods outside the stripe's chain are ignored.
  mgr.note_replica_version(h, 1, 3, 7);
  EXPECT_EQ(mgr.stripe_versions(h, 1).latest, 2u);
}

TEST_F(ManagerTest, ResyncTargetsListStaleReplicasWithCurrentPeers) {
  Manager mgr(cfg_, fabric_, stats_, faults_,
              ManagerOptions{.cluster_iod_count = 4});
  auto f = mgr.create(client_hca_, TimePoint::origin(), "/rep", 64 * kKiB, 4,
                      /*base_iod=*/0, /*replication_factor=*/2);
  const Handle h = f.value.value().handle;
  mgr.allocate_stripe_version(h, 1);
  mgr.allocate_stripe_version(h, 1);
  mgr.note_replica_version(h, 1, /*iod_id=*/1, 1);
  mgr.note_replica_version(h, 1, /*iod_id=*/2, 2);
  // iod1 (position 0 of {1,2}) trails: one target, served from its primary
  // local file, pulling from the current backup's shadow file.
  std::vector<Manager::ResyncTarget> t = mgr.resync_targets(1);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].handle, h);
  EXPECT_EQ(t[0].stripe, 1u);
  EXPECT_EQ(t[0].latest, 2u);
  EXPECT_EQ(t[0].local_handle, h);
  ASSERT_EQ(t[0].peers.size(), 1u);
  EXPECT_EQ(t[0].peers[0], 2u);
  EXPECT_EQ(t[0].peer_handles[0], backup_handle(h, 1));
  // The current replica has nothing to pull; once the stale one catches up
  // (a resync completion notes it), the target disappears.
  EXPECT_TRUE(mgr.resync_targets(2).empty());
  mgr.note_replica_version(h, 1, 1, 2);
  EXPECT_TRUE(mgr.resync_targets(1).empty());
}

// Regression (note fencing on handle liveness / replica-set membership):
// a note must never materialize stripe state for a handle the namespace no
// longer knows, or from an iod outside the stripe's chain.

TEST_F(ManagerTest, NoteFromOutOfSetIodCreatesNoStripeState) {
  Manager mgr(cfg_, fabric_, stats_, faults_,
              ManagerOptions{.cluster_iod_count = 4});
  auto f = mgr.create(client_hca_, TimePoint::origin(), "/rep", 64 * kKiB, 4,
                      /*base_iod=*/0, /*replication_factor=*/2);
  const Handle h = f.value.value().handle;
  // Stripe 2's chain is {2, 3}; iod0 is a stranger. The note must be
  // dropped without creating the (h, 2) entry as a side effect.
  mgr.note_replica_version(h, 2, /*iod_id=*/0, 7);
  EXPECT_FALSE(mgr.stripe_versions(h, 2).known);
}

TEST_F(ManagerTest, LateAckAfterRemoveDoesNotResurrectStripeState) {
  Manager mgr(cfg_, fabric_, stats_, faults_,
              ManagerOptions{.cluster_iod_count = 4});
  auto f = mgr.create(client_hca_, TimePoint::origin(), "/rep", 64 * kKiB, 4,
                      /*base_iod=*/0, /*replication_factor=*/2);
  const Handle h = f.value.value().handle;
  mgr.allocate_stripe_version(h, 1);
  mgr.note_replica_version(h, 1, /*iod_id=*/1, 1);
  ASSERT_TRUE(mgr.stripe_versions(h, 1).known);
  ASSERT_TRUE(
      mgr.remove(client_hca_, TimePoint::origin(), "/rep").value.is_ok());
  // A post-settle late ack for the deleted handle arrives: the liveness
  // fence drops it and the stripe-state range stays empty.
  mgr.note_replica_version(h, 1, /*iod_id=*/1, 1);
  EXPECT_FALSE(mgr.stripe_versions(h, 1).known);
  // A recreated file under the same name gets a fresh handle, so stale
  // notes against the old handle stay inert for it too.
  auto g = mgr.create(client_hca_, TimePoint::origin(), "/rep", 64 * kKiB, 4,
                      /*base_iod=*/0, /*replication_factor=*/2);
  ASSERT_TRUE(g.value.is_ok());
  EXPECT_NE(g.value.value().handle, h);
  EXPECT_FALSE(mgr.stripe_versions(g.value.value().handle, 1).known);
}

TEST_F(ManagerTest, RemoveDropsStripeState) {
  Manager mgr(cfg_, fabric_, stats_, faults_,
              ManagerOptions{.cluster_iod_count = 4});
  auto f = mgr.create(client_hca_, TimePoint::origin(), "/rep", 64 * kKiB, 4,
                      /*base_iod=*/0, /*replication_factor=*/2);
  const Handle h = f.value.value().handle;
  mgr.allocate_stripe_version(h, 0);
  ASSERT_TRUE(mgr.stripe_versions(h, 0).known);
  ASSERT_TRUE(mgr.remove(client_hca_, TimePoint::origin(), "/rep")
                  .value.is_ok());
  EXPECT_FALSE(mgr.stripe_versions(h, 0).known);
  EXPECT_EQ(mgr.allocate_stripe_version(h, 0), 0u);  // meta gone too
}

// --- manager epoch / standby takeover ------------------------------------

class TakeoverTest : public ManagerTest {
 protected:
  TakeoverTest()
      : primary_(cfg_, fabric_, stats_, faults_,
                 ManagerOptions{.cluster_iod_count = 4}),
        standby_(cfg_, fabric_, stats_, faults_,
                 ManagerOptions{.cluster_iod_count = 4, .name = "mgr2"}) {
    primary_.attach_epoch(&cell_, /*active=*/true);
    standby_.attach_epoch(&cell_, /*active=*/false);
  }

  Handle create_replicated(const char* name) {
    auto f = primary_.create(client_hca_, TimePoint::origin(), name, 64 * kKiB,
                             4, /*base_iod=*/0, /*replication_factor=*/2);
    EXPECT_TRUE(f.value.is_ok());
    return f.value.value().handle;
  }

  ManagerEpoch cell_;
  Manager primary_;
  Manager standby_;
};

TEST_F(TakeoverTest, StandbyRedirectsUntilPromoted) {
  create_replicated("/rep");
  // Before takeover the standby refuses metadata work with a fast redirect
  // (kFailedPrecondition), not a timeout.
  auto o = standby_.open(client_hca_, TimePoint::origin(), "/rep");
  EXPECT_EQ(o.value.status().code(), ErrorCode::kFailedPrecondition);
  standby_.take_over(primary_, {}, TimePoint::origin());
  // Post-takeover the standby serves the adopted namespace...
  EXPECT_TRUE(
      standby_.open(client_hca_, TimePoint::origin(), "/rep").value.is_ok());
  // ...and the demoted primary (which can see the cluster epoch moved on)
  // redirects instead of split-braining the namespace.
  auto z = primary_.create(client_hca_, TimePoint::origin(), "/z", 64 * kKiB, 4);
  EXPECT_EQ(z.value.status().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(TakeoverTest, TakeoverBumpsEpochAndFencesStaleNotes) {
  const Handle h = create_replicated("/rep");
  EXPECT_EQ(primary_.allocate_stripe_version(h, 1), 1u);
  EXPECT_EQ(primary_.epoch(), 1u);
  ASSERT_FALSE(standby_.active());

  standby_.take_over(primary_, {}, TimePoint::origin());
  EXPECT_EQ(cell_.value, 2u);
  EXPECT_EQ(standby_.epoch(), 2u);
  EXPECT_TRUE(standby_.active());
  EXPECT_TRUE(primary_.epoch_stale());
  EXPECT_FALSE(standby_.epoch_stale());

  // A note whose version was minted under the demoted epoch is fenced.
  const i64 before = stats_.get(stat::kPvfsEpochRejections);
  standby_.note_replica_version(h, 1, /*iod_id=*/1, 1, /*note_epoch=*/1);
  EXPECT_EQ(stats_.get(stat::kPvfsEpochRejections), before + 1);
  EXPECT_FALSE(standby_.stripe_versions(h, 1).known);
  // Trusted (epoch-0) observations and current-epoch notes pass.
  standby_.note_replica_version(h, 1, /*iod_id=*/1, 1);
  EXPECT_TRUE(standby_.stripe_versions(h, 1).known);
  standby_.note_replica_version(h, 1, /*iod_id=*/2, 1, /*note_epoch=*/2);
  EXPECT_EQ(standby_.stripe_versions(h, 1).replica_versions[1], 1u);
}

TEST_F(TakeoverTest, RebuildsStalenessMapFromScannedHeaders) {
  const Handle h = create_replicated("/rep");
  // Pretend pre-crash history: stripe 1 (chain {1, 2}) reached v2 on the
  // primary copy (iod1, the file's own local key) while the backup copy
  // (iod2, shadow key) only applied v1.
  const std::vector<Manager::HeaderObservation> headers = {
      {/*iod_id=*/1, h, /*version=*/2},
      {/*iod_id=*/2, backup_handle(h, 1), /*version=*/1},
  };
  standby_.take_over(primary_, headers, TimePoint::origin());

  Manager::StripeVersionView v = standby_.stripe_versions(h, 1);
  ASSERT_TRUE(v.known);
  EXPECT_EQ(v.latest, 2u);
  ASSERT_EQ(v.replica_versions.size(), 2u);
  EXPECT_EQ(v.replica_versions[0], 2u);
  EXPECT_EQ(v.replica_versions[1], 1u);
  // The trailing backup is a resync target pulling from the current
  // primary; the current primary has nothing to do.
  std::vector<Manager::ResyncTarget> t = standby_.resync_targets(2);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].handle, h);
  EXPECT_EQ(t[0].stripe, 1u);
  EXPECT_EQ(t[0].latest, 2u);
  EXPECT_EQ(t[0].local_handle, backup_handle(h, 1));
  ASSERT_EQ(t[0].peers.size(), 1u);
  EXPECT_EQ(t[0].peers[0], 1u);
  EXPECT_TRUE(standby_.resync_targets(1).empty());

  // Stripes with no header evidence stay unknown, and mint above the
  // highest version observed anywhere (the floor), so a fresh sequence can
  // never collide with the old primary's in-flight mints.
  EXPECT_FALSE(standby_.stripe_versions(h, 0).known);
  EXPECT_EQ(standby_.allocate_stripe_version(h, 0), 3u);
  // Rebuilt stripes continue above their own observed maximum.
  EXPECT_EQ(standby_.allocate_stripe_version(h, 1), 3u);
}

TEST_F(TakeoverTest, RebuildSkipsDeletedFilesButKeepsTheMintFloor) {
  const Handle h = create_replicated("/gone");
  ASSERT_TRUE(
      primary_.remove(client_hca_, TimePoint::origin(), "/gone").value.is_ok());
  // An orphaned header for the deleted handle survives on some iod (e.g.
  // the iod was down during the unlink): the rebuild must not resurrect
  // the file's stripe state, but the floor still honours the version.
  const std::vector<Manager::HeaderObservation> headers = {
      {/*iod_id=*/1, h, /*version=*/5},
  };
  standby_.take_over(primary_, headers, TimePoint::origin());
  EXPECT_FALSE(standby_.stripe_versions(h, 1).known);
  EXPECT_FALSE(standby_.stat("/gone").is_ok());
  auto g = standby_.create(client_hca_, TimePoint::origin(), "/fresh",
                           64 * kKiB, 4, /*base_iod=*/0,
                           /*replication_factor=*/2);
  ASSERT_TRUE(g.value.is_ok());
  EXPECT_EQ(standby_.allocate_stripe_version(g.value.value().handle, 0), 6u);
}

}  // namespace
}  // namespace pvfsib::pvfs
