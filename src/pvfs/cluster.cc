#include "pvfs/cluster.h"

#include <string>

#include "sim/trace.h"

namespace pvfsib::pvfs {

namespace {
// "mgr"/"mgr2" for the classic unsharded plane (byte-compatible trace
// labels); "mgr<s>"/"mgr<s>b" per shard once the plane is sharded.
std::string primary_name(u32 shard, u32 shard_count) {
  if (shard_count <= 1) return "mgr";
  return "mgr" + std::to_string(shard);
}
std::string standby_name(u32 shard, u32 shard_count) {
  if (shard_count <= 1) return "mgr2";
  return "mgr" + std::to_string(shard) + "b";
}
}  // namespace

Cluster::Cluster(const ModelConfig& cfg, const Topology& topo)
    : cfg_(cfg), faults_(cfg.fault, stats_) {
  const u32 shard_count =
      std::max<u32>(1, topo.shard_count != 0 ? topo.shard_count
                                             : cfg.pvfs.metadata_shards);
  // Keep the config coherent with the built topology: iods consult
  // pvfs.metadata_shards to route epoch fences and resync notes by handle.
  cfg_.pvfs.metadata_shards = shard_count;
  const bool with_standbys =
      topo.with_standbys.value_or(cfg.fault.standby_takeover);
  with_standbys_ = with_standbys;
  cluster_iod_count_ = topo.iod_count;
  fabric_ = std::make_unique<ib::Fabric>(cfg_.net, stats_, faults_);
  // Sized up front; a split grows it (deque: no relocation — managers hold
  // pointers into the cells).
  epochs_.resize(shard_count);
  migrating_.assign(shard_count, 0);
  managers_.reserve(shard_count);
  standbys_.resize(shard_count);
  active_.reserve(shard_count);
  for (u32 s = 0; s < shard_count; ++s) {
    managers_.push_back(std::make_unique<Manager>(
        cfg_, *fabric_, stats_, faults_,
        ManagerOptions{.cluster_iod_count = topo.iod_count,
                       .name = primary_name(s, shard_count),
                       .shard_id = s,
                       .shard_count = shard_count}));
    active_.push_back(managers_.back().get());
    if (with_standbys) {
      standbys_[s] = std::make_unique<Manager>(
          cfg_, *fabric_, stats_, faults_,
          ManagerOptions{.cluster_iod_count = topo.iod_count,
                         .name = standby_name(s, shard_count),
                         .shard_id = s,
                         .shard_count = shard_count});
      managers_[s]->attach_epoch(&epochs_[s], /*active=*/true);
      standbys_[s]->attach_epoch(&epochs_[s], /*active=*/false);
    }
    managers_[s]->attach_lease_bus(&lease_bus_);
    if (standbys_[s] != nullptr) standbys_[s]->attach_lease_bus(&lease_bus_);
  }
  for (u32 s = 0; s < shard_count; ++s) {
    std::vector<Manager*> candidates{managers_[s].get()};
    if (standbys_[s] != nullptr) candidates.push_back(standbys_[s].get());
    registry_.add_shard(std::move(candidates));
  }
  iods_.reserve(topo.iod_count);
  for (u32 i = 0; i < topo.iod_count; ++i) {
    iods_.push_back(std::make_unique<Iod>(i, topo.client_count, cfg_,
                                          *fabric_, stats_, faults_));
  }
  std::vector<Iod*> iod_ptrs;
  for (auto& iod : iods_) iod_ptrs.push_back(iod.get());
  clients_.reserve(topo.client_count);
  for (u32 c = 0; c < topo.client_count; ++c) {
    clients_.push_back(std::make_unique<Client>(c, cfg_, engine_, *fabric_,
                                                registry_, iod_ptrs, stats_,
                                                faults_));
    clients_.back()->attach_lease_bus(&lease_bus_);
  }
  if (cfg_.replication.factor > 1 && cfg_.replication.resync) {
    // Background re-replication: every iod can scan each shard authority's
    // staleness map against its peers, and each scheduled crash window's
    // end triggers a scan on the restarted iod. Off (the default) the
    // engine sees no extra events and runs stay byte-identical.
    for (auto& iod : iods_) {
      iod->configure_resync(&engine_, active_, iod_ptrs);
    }
    faults_.install_restart_hooks(engine_, [this](u32 iod, TimePoint at) {
      if (iod < iods_.size()) iods_[iod]->on_restart(at);
    });
  }
  // Scheduled kBitFlip events corrupt data at rest on the target iod
  // (rate-driven flips ride the write path inside the iod instead).
  faults_.install_corruption_hooks(engine_, [this](u32 iod, TimePoint at) {
    if (iod < iods_.size()) iods_[iod]->inject_bit_flip(at);
  });
  if (with_standbys) {
    // Fenced takeover rides the fault schedule: `manager_takeover_delay`
    // after each shard's kManagerCrash window opens, the shard's standby
    // promotes itself.
    faults_.install_manager_takeover_hooks(
        engine_, cfg_.fault.manager_takeover_delay,
        [this](u32 shard, TimePoint at) { manager_takeover(shard, at); });
  }
}

void Cluster::manager_takeover(u32 shard, TimePoint at) {
  if (shard >= managers_.size()) return;
  Manager* standby = standbys_[shard].get();
  if (standby == nullptr || standby->active()) return;
  // Scan every iod's stripe headers (durable, like the data) belonging to
  // this shard: the raw material for the conservative staleness-map
  // rebuild. The scan also yields the highest version observed anywhere in
  // the shard, the new mint floor. Other shards' headers are not this
  // authority's to judge.
  const u32 shard_count = static_cast<u32>(managers_.size());
  std::vector<Manager::HeaderObservation> headers;
  for (auto& iod : iods_) {
    for (const auto& [local_handle, version] : iod->stripe_headers()) {
      if (shard_of_handle(local_handle, shard_count) != shard) continue;
      headers.push_back({iod->id(), local_handle, version});
    }
  }
  standby->take_over(*managers_[shard], headers, at);
  // Sweep the new epoch to the shard's cell on every iod: from here on,
  // version mints stamped by the demoted primary are fenced out of the
  // shard's stripe headers.
  for (auto& iod : iods_) iod->note_manager_epoch(epochs_[shard].value, shard);
  active_[shard] = standby;
  registry_.set_active(shard, 1);
  // Revoke the shard's cache leases: the fresh authority restarts its
  // write-notice sequences at zero, and entries cached under the old
  // manager's counts would eventually re-validate against the restarted
  // ones (the ABA the lease plane exists for).
  lease_bus_.publish(LeaseRevoke{LeaseRevokeReason::kEpochBump, shard,
                                 static_cast<u32>(managers_.size()), "", 0});
  stats_.add(stat::kPvfsManagerTakeovers);
  sim::Trace::instance().emitf(
      at, "cluster", "manager takeover shard %u -> %s (epoch %llu)", shard,
      standby->hca().name().c_str(),
      static_cast<unsigned long long>(epochs_[shard].value));
  if (cfg_.replication.factor > 1 && cfg_.replication.resync) {
    // Re-point the shard's resync authority at the new manager and kick a
    // staleness sweep on every iod: the rebuild marks anything not provably
    // current as a resync target, and those targets should heal without
    // waiting for the next crash-restart hook.
    for (auto& iod : iods_) {
      iod->set_resync_authority(shard, standby);
      iod->on_restart(at);
    }
  }
}

// --- Live shard migration / resharding -------------------------------------

// One in-flight stream: `shard` drains from `source` into `target`. For a
// single move new_shard == shard; for a split new_shard is the sibling
// (split_sibling(shard, K)) and `group` joins the K streams at the barrier.
struct Cluster::MigrationState {
  u32 shard = 0;
  u32 new_shard = 0;
  Manager* source = nullptr;
  std::unique_ptr<Manager> target;
  u64 start_epoch = 0;  // abort if the shard's epoch moves past this
  u64 bytes_total = 0;
  u64 bytes_done = 0;
  std::shared_ptr<SplitGroup> group;  // null for a single move
};

struct Cluster::SplitGroup {
  u32 old_count = 0;
  u32 pending = 0;  // streams still draining
  bool aborted = false;
  std::vector<std::shared_ptr<MigrationState>> children;
};

std::unique_ptr<Manager> Cluster::provision_manager(const std::string& name,
                                                    u32 shard,
                                                    u32 shard_count) {
  auto m = std::make_unique<Manager>(
      cfg_, *fabric_, stats_, faults_,
      ManagerOptions{.cluster_iod_count = cluster_iod_count_,
                     .name = name,
                     .shard_id = shard,
                     .shard_count = shard_count});
  m->attach_lease_bus(&lease_bus_);
  return m;
}

bool Cluster::migration_inflight() const {
  if (split_inflight_) return true;
  for (char m : migrating_) {
    if (m != 0) return true;
  }
  return false;
}

bool Cluster::migrate_shard(u32 shard, TimePoint at) {
  if (shard >= managers_.size() || split_inflight_ || migrating_[shard] != 0) {
    return false;
  }
  if (at < engine_.now()) at = engine_.now();
  const u32 shard_count = static_cast<u32>(managers_.size());
  auto st = std::make_shared<MigrationState>();
  st->shard = shard;
  st->new_shard = shard;
  // Stream from the shard's current authority — after a takeover that is
  // the promoted standby, not the original primary.
  st->source = active_[shard];
  st->target = provision_manager("mgr" + std::to_string(shard) + "m", shard,
                                 shard_count);
  st->target->attach_epoch(&epochs_[shard], /*active=*/false);
  st->start_epoch = epochs_[shard].value;
  st->bytes_total =
      std::max<u64>(st->source->shard_state_bytes(shard, shard_count), 1);
  migrating_[shard] = 1;
  sim::Trace::instance().emitf(
      at, "cluster", "migration shard %u: %s -> %s streaming %llu bytes",
      shard, st->source->hca().name().c_str(),
      st->target->hca().name().c_str(),
      static_cast<unsigned long long>(st->bytes_total));
  engine_.schedule_at(at, [this, st] { migration_round(st); });
  return true;
}

bool Cluster::split_shards(TimePoint at) {
  if (migration_inflight()) return false;
  if (at < engine_.now()) at = engine_.now();
  const u32 k = static_cast<u32>(managers_.size());
  const u32 k2 = 2 * k;
  // Install the sibling epoch cells up front (deque: existing cells stay
  // put). Seeding each at the source's current epoch makes the cutover
  // bump strictly fence every pre-split mint for the moved handles.
  while (epochs_.size() < k2) epochs_.push_back(ManagerEpoch{});
  auto group = std::make_shared<SplitGroup>();
  group->old_count = k;
  group->pending = k;
  for (u32 s = 0; s < k; ++s) {
    const u32 sibling = split_sibling(s, k);
    epochs_[sibling].value =
        std::max(epochs_[sibling].value, epochs_[s].value);
    auto st = std::make_shared<MigrationState>();
    st->shard = s;
    st->new_shard = sibling;
    st->source = active_[s];
    st->target = provision_manager(primary_name(sibling, k2), sibling, k2);
    st->target->attach_epoch(&epochs_[sibling], /*active=*/false);
    st->start_epoch = epochs_[s].value;
    st->bytes_total =
        std::max<u64>(st->source->shard_state_bytes(sibling, k2), 1);
    st->group = group;
    group->children.push_back(st);
    migrating_[s] = 1;
  }
  split_inflight_ = true;
  sim::Trace::instance().emitf(at, "cluster",
                               "split start: %u -> %u shards", k, k2);
  for (auto& st : group->children) {
    engine_.schedule_at(at, [this, st] { migration_round(st); });
  }
  return true;
}

bool Cluster::migration_aborted(MigrationState& st, TimePoint at) {
  // Source crash window: stream rounds from a crashed source are lost and
  // the snapshot cannot be trusted.
  if (faults_.manager_down(at, st.shard)) return true;
  // A standby takeover raced the stream: the epoch moved on and the
  // source's snapshot is no longer the shard's authority.
  if (epochs_[st.shard].value != st.start_epoch) return true;
  // Scheduled target crash (one-shot; consumed here).
  if (faults_.migration_target_crashed(st.shard, at)) return true;
  return false;
}

void Cluster::migration_round(std::shared_ptr<MigrationState> st) {
  const TimePoint now = engine_.now();
  if (migration_aborted(*st, now)) {
    abort_migration(st, now);
    return;
  }
  const u64 chunk =
      std::min<u64>(cfg_.migration.round_bytes, st->bytes_total - st->bytes_done);
  // One rate-limited round: a control send source -> target carrying
  // `chunk` snapshot bytes. The state copy itself happens host-side at
  // cutover (delta-inclusive by construction — serve-path mutations run
  // synchronously before the later cutover event); the rounds model the
  // wire occupancy and pace the stream.
  fabric_->send_control(st->source->hca(), st->target->hca(), chunk, now,
                        ib::ControlKind::kRequest);
  stats_.add(stat::kPvfsMigrationRounds);
  st->bytes_done += chunk;
  if (st->bytes_done >= st->bytes_total) {
    migration_streamed(st);
    return;
  }
  engine_.schedule_at(now + transfer_time(chunk, cfg_.migration.stream_bandwidth),
                      [this, st] { migration_round(st); });
}

void Cluster::migration_streamed(std::shared_ptr<MigrationState> st) {
  const TimePoint now = engine_.now();
  const TimePoint cut = now + cfg_.migration.cutover_delay;
  if (st->group == nullptr) {
    engine_.schedule_at(cut, [this, st] { migrate_cutover(st); });
    return;
  }
  // Split barrier: the last stream to drain arms the group cutover (all K
  // pairs must flip at one instant — per-pair flips would split-brain
  // names between managers routing with different shard counts).
  auto group = st->group;
  if (--group->pending != 0) return;
  if (group->aborted) {
    wind_down_split(group, now);
    return;
  }
  engine_.schedule_at(cut, [this, group] { split_cutover(group); });
}

void Cluster::abort_migration(std::shared_ptr<MigrationState> st,
                              TimePoint at) {
  migrating_[st->shard] = 0;
  sim::Trace::instance().emitf(
      at, "cluster", "migration shard %u aborted (falling back to %s)",
      st->shard, st->source->hca().name().c_str());
  if (st->group != nullptr) {
    st->group->aborted = true;
    if (--st->group->pending == 0) wind_down_split(st->group, at);
    return;
  }
  // The target dies with the state; the source never stopped serving.
  stats_.add(stat::kPvfsMigrationAborts);
}

void Cluster::wind_down_split(std::shared_ptr<SplitGroup> group,
                              TimePoint at) {
  for (auto& child : group->children) migrating_[child->shard] = 0;
  split_inflight_ = false;
  // One abort per migration unit: the whole split counts once.
  stats_.add(stat::kPvfsMigrationAborts);
  sim::Trace::instance().emitf(at, "cluster",
                               "split aborted; plane stays at %u shards",
                               group->old_count);
  // Break the group <-> child shared_ptr cycle; the states (and any abandoned
  // target managers) die once the last in-flight event releases its ref.
  group->children.clear();
}

void Cluster::migrate_cutover(std::shared_ptr<MigrationState> st) {
  const TimePoint now = engine_.now();
  if (migration_aborted(*st, now)) {
    abort_migration(st, now);
    return;
  }
  const u32 shard = st->shard;
  const u32 shard_count = static_cast<u32>(managers_.size());
  // Fenced cutover, one engine instant: bump the epoch (every in-flight
  // mint the source stamped is now fenced at the iods, exactly like a
  // takeover), hand the final snapshot to the target, retire the source
  // into a pure redirector.
  ManagerEpoch& cell = epochs_[shard];
  ++cell.value;
  Manager* target = st->target.get();
  target->adopt_shard(st->source->export_shard(shard, shard_count), shard,
                      shard_count, &cell);
  st->source->retire_migrated();
  // The demoted boxes stay alive as redirectors — stale client maps hold
  // raw pointers into them.
  retired_.push_back(std::move(managers_[shard]));
  managers_[shard] = std::move(st->target);
  if (standbys_[shard] != nullptr && standbys_[shard].get() == st->source) {
    // The source was a promoted standby (a takeover preceded this
    // migration); it retires too and the shard continues standby-less.
    retired_.push_back(std::move(standbys_[shard]));
  }
  active_[shard] = target;
  std::vector<Manager*> candidates{target};
  if (standbys_[shard] != nullptr) candidates.push_back(standbys_[shard].get());
  registry_.set_candidates(shard, std::move(candidates), 0);
  migrating_[shard] = 0;
  repoint_shard(shard, target);
  // The target restarts the shard's write-notice sequences at zero: revoke
  // the shard's cache leases so nothing cached under the source's counts
  // survives to re-validate (same ABA as a takeover). Scoped to this shard;
  // the other shards' caches stay warm.
  lease_bus_.publish(
      LeaseRevoke{LeaseRevokeReason::kEpochBump, shard, shard_count, "", 0});
  kick_resync(now);
  stats_.add(stat::kPvfsShardMigrations);
  sim::Trace::instance().emitf(
      now, "cluster", "migration shard %u cutover -> %s (epoch %llu)", shard,
      target->hca().name().c_str(),
      static_cast<unsigned long long>(cell.value));
}

void Cluster::split_cutover(std::shared_ptr<SplitGroup> group) {
  const TimePoint now = engine_.now();
  for (auto& st : group->children) {
    if (migration_aborted(*st, now)) group->aborted = true;
  }
  if (group->aborted) {
    wind_down_split(group, now);
    return;
  }
  const u32 k = group->old_count;
  const u32 k2 = 2 * k;
  // Atomic flip, one engine instant: adopt every sibling half, shed the
  // moved halves from the sources, then rewire registry + iod routing.
  for (u32 s = 0; s < k; ++s) {
    auto& st = group->children[s];
    const u32 sibling = split_sibling(s, k);
    ManagerEpoch& cell = epochs_[sibling];
    cell.value = std::max(cell.value, epochs_[s].value) + 1;
    st->target->adopt_shard(st->source->export_shard(sibling, k2), sibling,
                            k2, &cell);
    st->source->drop_shard_complement(k2);
    // Shard s's epoch is NOT bumped: handles that stay put keep their
    // in-flight mints valid across the split.
    if (standbys_[s] != nullptr) standbys_[s]->retag_shard(k2);
  }
  for (u32 s = 0; s < k; ++s) {
    auto& st = group->children[s];
    const u32 sibling = split_sibling(s, k);
    Manager* target = st->target.get();
    managers_.push_back(std::move(st->target));
    active_.push_back(target);
    std::unique_ptr<Manager> sb;
    if (with_standbys_) {
      sb = provision_manager(standby_name(sibling, k2), sibling, k2);
      sb->attach_epoch(&epochs_[sibling], /*active=*/false);
    }
    standbys_.push_back(std::move(sb));
    std::vector<Manager*> candidates{target};
    if (standbys_.back() != nullptr) {
      candidates.push_back(standbys_.back().get());
    }
    registry_.add_shard(std::move(candidates));
  }
  registry_.note_resharded();
  cfg_.pvfs.metadata_shards = k2;
  for (auto& iod : iods_) iod->set_metadata_shards(k2);
  // Revoke cache leases for every *new* sibling shard, carrying the
  // post-split count so holders re-route their entries with it: an entry
  // that re-hashes onto a sibling is dropped (its handles now live under a
  // fresh authority with restarted write-notice sequences), one that stays
  // on its old shard survives — that shard's epoch and sequences did not
  // move.
  for (u32 s = 0; s < k; ++s) {
    lease_bus_.publish(LeaseRevoke{LeaseRevokeReason::kEpochBump,
                                   split_sibling(s, k), k2, "", 0});
  }
  migrating_.assign(k2, 0);
  split_inflight_ = false;
  for (u32 s = 0; s < k; ++s) {
    repoint_shard(split_sibling(s, k), active_[split_sibling(s, k)]);
  }
  kick_resync(now);
  stats_.add(stat::kPvfsShardSplits);
  sim::Trace::instance().emitf(now, "cluster",
                               "split cutover: plane now %u shards", k2);
  // Break the group <-> child shared_ptr cycle so the split state frees.
  group->children.clear();
}

void Cluster::repoint_shard(u32 shard, Manager* owner) {
  for (auto& iod : iods_) iod->note_manager_epoch(epochs_[shard].value, shard);
  if (cfg_.replication.factor > 1 && cfg_.replication.resync) {
    for (auto& iod : iods_) iod->set_resync_authority(shard, owner);
  }
}

void Cluster::kick_resync(TimePoint at) {
  if (cfg_.replication.factor <= 1 || !cfg_.replication.resync) return;
  for (auto& iod : iods_) iod->on_restart(at);
}

void Cluster::start_scrub(TimePoint until) {
  for (auto& iod : iods_) iod->start_scrub(until);
}

IntervalSeries& Cluster::sample_intervals(Duration window, TimePoint until) {
  intervals_ = std::make_unique<IntervalSeries>(&stats_, engine_.now());
  if (window <= Duration::zero() || until <= engine_.now()) {
    return *intervals_;
  }
  // Self-rescheduling close chain: each tick closes the current window and
  // arms the next, the final (possibly partial) one landing exactly at
  // `until`. The scheduled events hold the closure alive; the closure only
  // keeps a weak self-reference, so the chain frees itself after the last
  // tick instead of leaking a shared_ptr cycle.
  auto tick = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak = tick;
  *tick = [this, window, until, weak] {
    const TimePoint now = engine_.now();
    intervals_->close_window(now);
    if (now >= until) return;
    const TimePoint next = now + window < until ? now + window : until;
    engine_.schedule_at(next, [t = weak.lock()] {
      if (t != nullptr) (*t)();
    });
  };
  const TimePoint first =
      engine_.now() + window < until ? engine_.now() + window : until;
  engine_.schedule_at(first, [tick] { (*tick)(); });
  return *intervals_;
}

}  // namespace pvfsib::pvfs
