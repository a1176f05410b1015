#include "pvfs/manager.h"

#include "fault/injector.h"
#include "sim/trace.h"

namespace pvfsib::pvfs {

namespace {
Status meta_lost_status() { return unavailable("metadata request lost"); }
// A demoted (zombie) or not-yet-promoted manager answers fast with a
// redirect instead of silently timing out; the client re-targets the
// request at the other manager (pvfs.meta_failovers).
Status manager_inactive_status() {
  return failed_precondition("manager not active");
}
// A manager reached with a name outside its shard answers fast with a
// redirect carrying the fresh shard map; the client re-routes by it
// (pvfs.shard_redirects).
Status wrong_shard_status(u32 owner) {
  return wrong_shard("name owned by shard " + std::to_string(owner));
}
}  // namespace

Manager::Manager(const ModelConfig& cfg, ib::Fabric& fabric, Stats& stats,
                 fault::Injector& faults, ManagerOptions opts)
    : cfg_(cfg),
      fabric_(fabric),
      stats_(stats),
      cluster_iod_count_(opts.cluster_iod_count),
      faults_(faults),
      shard_id_(opts.shard_id),
      shard_count_(opts.shard_count == 0 ? 1 : opts.shard_count),
      hca_(opts.name, as_, cfg.reg, stats),
      cpu_(opts.name + ".cpu"),
      next_handle_(Handle{opts.shard_id} + 1) {}

void Manager::attach_epoch(ManagerEpoch* cell, bool active) {
  epoch_cell_ = cell;
  epoch_ = cell->value;
  active_ = active;
  primary_ = active;
}

Timed<Status> Manager::admit(ib::Hca& from, TimePoint ready,
                             const std::string& name) {
  const TimePoint at_mgr = fabric_.send_control(
      from, hca_, cfg_.pvfs.request_msg_bytes, ready, ib::ControlKind::kRequest);
  if (faults_.meta_request_lost(at_mgr, primary_, shard_id_)) {
    // The request wire time was spent but the manager never saw it; the
    // caller notices via timeout. A client that received nothing is
    // charged only the request leg.
    return {meta_lost_status(), at_mgr - ready};
  }
  // Metadata lookup cost on the manager. With meta_cpu_queue the lookup
  // serializes through the manager's CPU (busy-until queueing — the
  // contention the metadata-storm bench measures); otherwise it is a fixed
  // latency and concurrent requests overlap freely, as before.
  const Duration service = Duration::us(5.0);
  const TimePoint replied = cfg_.pvfs.meta_cpu_queue
                                ? cpu_.acquire(at_mgr, service)
                                : at_mgr + service;
  const TimePoint done =
      fabric_.send_control(hca_, from, cfg_.pvfs.reply_msg_bytes, replied,
                           ib::ControlKind::kReply);
  const Duration cost = done - ready;
  // A migrated-out source answers kWrongShard even though it is inactive:
  // only the wrong-shard reply drives a map refresh, and the refreshed map
  // reaches the target. kFailedPrecondition would rotate a stale client
  // between the retired source and its equally stale standby forever.
  if (migrated_out_) return {wrong_shard_redirect(name), cost};
  if (!active_ || epoch_stale()) return {manager_inactive_status(), cost};
  if (!owns(name)) return {wrong_shard_redirect(name), cost};
  return {Status::ok(), cost};
}

Result<std::vector<std::vector<u32>>> Manager::place_replicas(
    u32 base, u32 stripe_width, u32 factor, u32 physical_count) {
  if (factor < 1) return invalid_argument("replication factor must be >= 1");
  if (physical_count == 0) {
    return invalid_argument("replica placement needs a known cluster size");
  }
  if (factor > physical_count) {
    return invalid_argument(
        "replication factor " + std::to_string(factor) + " exceeds " +
        std::to_string(physical_count) + " physical iods");
  }
  std::vector<std::vector<u32>> out(stripe_width);
  for (u32 k = 0; k < stripe_width; ++k) {
    out[k].reserve(factor);
    for (u32 j = 0; j < factor; ++j) {
      out[k].push_back((base + k + j) % physical_count);
    }
  }
  return out;
}

Status Manager::wrong_shard_redirect(const std::string& name) const {
  // A redirect caused by a completed reshard — the shard moved away
  // (migrated_out_), or a split stripped this shard of the name — is the
  // convergence signal stale clients ride; count it separately from plain
  // stale-mount redirects so the benches can see the redirect storm a
  // migration causes. The reply itself is byte-identical either way.
  const bool lost_to_reshard =
      migrated_out_ || (pre_split_count_ != 0 &&
                        shard_of(name, pre_split_count_) == shard_id_);
  if (lost_to_reshard) stats_.add(stat::kPvfsWrongShardDuringMigration);
  return wrong_shard_status(shard_of(name, shard_count_));
}

Timed<Result<FileMeta>> Manager::create(ib::Hca& from, TimePoint ready,
                                        const std::string& name,
                                        u64 stripe_size, u32 iod_count,
                                        u32 base_iod, u32 replication_factor) {
  Timed<Status> gate = admit(from, ready, name);
  const Duration cost = gate.cost;
  if (!gate.value.is_ok()) return {std::move(gate.value), cost};
  if (by_name_.count(name) != 0) {
    return {Result<FileMeta>(already_exists("file exists: " + name)), cost};
  }
  if (stripe_size == 0 || iod_count == 0) {
    return {Result<FileMeta>(invalid_argument("bad striping parameters")),
            cost};
  }
  FileMeta meta;
  meta.handle = next_handle_;
  next_handle_ += shard_count_;
  meta.name = name;
  meta.stripe_size = stripe_size;
  meta.iod_count = iod_count;
  // Auto placement rotates the base with the handle; an explicit base is
  // kept verbatim (the client wraps it over its physical server count).
  meta.base_iod = base_iod == kAutoBase
                      ? static_cast<u32>(meta.handle % iod_count)
                      : base_iod;
  meta.replication_factor = replication_factor;
  if (replication_factor > 1) {
    Result<std::vector<std::vector<u32>>> placed = place_replicas(
        meta.base_iod, iod_count, replication_factor, cluster_iod_count_);
    if (!placed.is_ok()) return {Result<FileMeta>(placed.status()), cost};
    meta.replicas = std::move(placed.value());
  }
  by_name_[name] = meta;
  by_handle_[meta.handle] = name;
  if (lease_bus_ != nullptr) {
    // A newly minted handle can reuse a name whose stale attr entry some
    // client still caches (remove + recreate); revoke the name so the next
    // open re-fetches the fresh handle instead of serving the dead one.
    lease_bus_->publish(LeaseRevoke{LeaseRevokeReason::kCreated, shard_id_,
                                    shard_count_, name, meta.handle});
  }
  return {Result<FileMeta>(meta), cost};
}

Timed<Result<FileMeta>> Manager::open(ib::Hca& from, TimePoint ready,
                                      const std::string& name) {
  Timed<Status> gate = admit(from, ready, name);
  const Duration cost = gate.cost;
  if (!gate.value.is_ok()) return {std::move(gate.value), cost};
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return {Result<FileMeta>(not_found("no such file: " + name)), cost};
  }
  return {Result<FileMeta>(it->second), cost};
}

Timed<Status> Manager::remove(ib::Hca& from, TimePoint ready,
                              const std::string& name) {
  Timed<Status> gate = admit(from, ready, name);
  const Duration cost = gate.cost;
  if (!gate.value.is_ok()) return gate;
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return {not_found("no such file: " + name), cost};
  }
  const Handle h = it->second.handle;
  by_handle_.erase(h);
  by_name_.erase(it);
  stripe_state_.erase(stripe_state_.lower_bound({h, 0}),
                      stripe_state_.upper_bound({h, ~0u}));
  data_seq_.erase(data_seq_.lower_bound({h, 0}),
                  data_seq_.upper_bound({h, ~0u}));
  if (lease_bus_ != nullptr) {
    lease_bus_->publish(LeaseRevoke{LeaseRevokeReason::kRemoved, shard_id_,
                                    shard_count_, name, h});
  }
  return {Status::ok(), cost};
}

Timed<MetaReply> Manager::serve(ib::Hca& from, TimePoint ready,
                                const MetaRequest& rq) {
  MetaReply rep;
  switch (rq.op) {
    case MetaOp::kCreate: {
      Timed<Result<FileMeta>> r =
          create(from, ready, rq.name, rq.stripe_size, rq.iod_count,
                 rq.base_iod, rq.replication_factor);
      rep.status = r.value.is_ok() ? Status::ok() : r.value.status();
      if (r.value.is_ok()) rep.meta = std::move(r.value).value();
      return {std::move(rep), r.cost};
    }
    case MetaOp::kOpen:
    case MetaOp::kStat: {
      Timed<Result<FileMeta>> r = open(from, ready, rq.name);
      rep.status = r.value.is_ok() ? Status::ok() : r.value.status();
      if (r.value.is_ok()) rep.meta = std::move(r.value).value();
      return {std::move(rep), r.cost};
    }
    case MetaOp::kRemove: {
      Timed<Status> r = remove(from, ready, rq.name);
      rep.status = std::move(r.value);
      return {std::move(rep), r.cost};
    }
  }
  rep.status = internal_error("unknown metadata op");
  return {std::move(rep), Duration::zero()};
}

void Manager::note_written(Handle h, u64 end_offset) {
  auto it = by_handle_.find(h);
  if (it == by_handle_.end()) return;
  FileMeta& meta = by_name_.at(it->second);
  meta.logical_size = std::max(meta.logical_size, end_offset);
}

Result<FileMeta> Manager::stat(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return not_found("no such file: " + name);
  return it->second;
}

// --- Version plane ---------------------------------------------------------

const FileMeta* Manager::meta_of(Handle h) const {
  auto it = by_handle_.find(h);
  if (it == by_handle_.end()) return nullptr;
  return &by_name_.at(it->second);
}

u64 Manager::allocate_stripe_version(Handle h, u32 stripe) {
  const FileMeta* meta = meta_of(h);
  if (meta == nullptr || meta->replication_factor <= 1) return 0;
  StripeState& st = stripe_state_[{h, stripe}];
  if (st.replica.empty()) {
    st.replica.resize(meta->replication_factor, 0);
    // Post-takeover, a stripe with no surviving header evidence mints above
    // the highest version observed in *any* header so a fresh sequence can
    // never collide with the old primary's in-flight mints. Rebuilt stripes
    // already continue above their own observed maximum; forcing the global
    // floor onto them would spuriously mark their current replicas stale.
    st.latest = std::max(st.latest, mint_floor_);
  }
  return ++st.latest;
}

void Manager::note_replica_version(Handle h, u32 stripe, u32 iod_id,
                                   u64 version, u64 note_epoch) {
  if (version == 0) return;
  if (note_epoch != 0 && note_epoch < epoch_) {
    // The version was minted by a manager this one has superseded; marking
    // the replica current on its word could hide a stripe the takeover
    // rebuild decided needs resync. The fenced ack's bytes still landed —
    // resync or read-repair will reconcile them.
    stats_.add(stat::kPvfsEpochRejections);
    return;
  }
  const FileMeta* meta = meta_of(h);
  if (meta == nullptr || stripe >= meta->replicas.size()) return;
  const std::vector<u32>& set = meta->replicas[stripe];
  for (size_t j = 0; j < set.size(); ++j) {
    if (set[j] == iod_id) {
      // The entry is created only after the replica-set membership check:
      // a note from an iod outside the set — or a post-settle late ack
      // arriving after remove() dropped the range (caught above by the
      // meta_of liveness fence) — must not materialize stripe state.
      StripeState& st = stripe_state_[{h, stripe}];
      if (st.replica.empty()) st.replica.resize(set.size(), 0);
      st.replica[j] = std::max(st.replica[j], version);
      // A replica cannot hold a version that was never minted; keep the
      // sequence monotone even if notes and allocations ever race.
      st.latest = std::max(st.latest, version);
      return;
    }
  }
}

void Manager::take_over(const Manager& durable,
                        const std::vector<HeaderObservation>& headers,
                        TimePoint at) {
  // Fence first: every mint and note stamped by the old primary now carries
  // a stale epoch and will be rejected by iods and by this manager.
  if (epoch_cell_ != nullptr) epoch_ = ++epoch_cell_->value;
  active_ = true;
  // Adopt the namespace. File metadata proper (names, handles, striping,
  // replica placement) is durable in PVFS; only the staleness map below is
  // manager-resident soft state that must be reconstructed.
  by_name_ = durable.by_name_;
  by_handle_ = durable.by_handle_;
  next_handle_ = durable.next_handle_;
  // Conservative rebuild from the scanned stripe headers: a replica is
  // credited exactly the version its header proves it applied; anything
  // trailing the highest version observed for its stripe is a resync
  // target. Headers of deleted files decode to no live meta and are
  // skipped (they still raise the mint floor, which only needs "some
  // version up to v was minted somewhere").
  stripe_state_.clear();
  mint_floor_ = 0;
  for (const HeaderObservation& obs : headers) {
    mint_floor_ = std::max(mint_floor_, obs.version);
    if (obs.version == 0) continue;
    const Handle h = file_handle(obs.local_handle);
    const FileMeta* meta = meta_of(h);
    if (meta == nullptr || meta->replication_factor <= 1) continue;
    for (u32 k = 0; k < meta->replicas.size(); ++k) {
      // A backup header names its stripe in the shadow handle; a primary
      // header is the file's local data file, shared by every stripe whose
      // primary lands on that iod, and credits each of them (the same
      // conservative per-local-file semantics write acks already have).
      const std::vector<u32>& set = meta->replicas[k];
      for (size_t j = 0; j < set.size(); ++j) {
        if (set[j] != obs.iod_id) continue;
        if (local_handle(h, k, j) != obs.local_handle) continue;
        StripeState& st = stripe_state_[{h, k}];
        if (st.replica.empty()) st.replica.resize(set.size(), 0);
        st.replica[j] = std::max(st.replica[j], obs.version);
        st.latest = std::max(st.latest, obs.version);
      }
    }
  }
  sim::Trace::instance().emitf(
      at, hca_.name(), "takeover epoch=%llu headers=%zu stripes=%zu floor=%llu",
      static_cast<unsigned long long>(epoch_), headers.size(),
      stripe_state_.size(), static_cast<unsigned long long>(mint_floor_));
}

// --- Live shard migration ---------------------------------------------------

Manager::ShardSnapshot Manager::export_shard(u32 shard_id,
                                             u32 shard_count) const {
  ShardSnapshot snap;
  for (const auto& [name, meta] : by_name_) {
    // A pre-split file's two routing keys can disagree after a split: its
    // name re-hashes under the new count while its minted handle keeps the
    // old residue class. The namespace plane routes by name, but the
    // version plane (allocate_stripe_version / note_replica_version) looks
    // FileMeta up by handle — so the snapshot carries the meta wherever
    // EITHER plane will need it. owns()/owns_handle() gate which plane each
    // holder actually serves; the extra copy never answers namespace ops.
    if (shard_of(name, shard_count) != shard_id &&
        shard_of_handle(meta.handle, shard_count) != shard_id) {
      continue;
    }
    snap.by_name.emplace(name, meta);
    snap.by_handle.emplace(meta.handle, name);
  }
  for (const auto& [key, st] : stripe_state_) {
    if (shard_of_handle(key.first, shard_count) != shard_id) continue;
    snap.stripe_state.emplace(key, st);
  }
  snap.next_handle = next_handle_;
  snap.mint_floor = mint_floor_;
  return snap;
}

u64 Manager::shard_state_bytes(u32 shard_id, u32 shard_count) const {
  // Wire-size estimate: a FileMeta entry plus its name, and a StripeState
  // row per (handle, stripe). Only the total matters (it paces the stream);
  // the cutover copies the real structures host-side.
  u64 bytes = 0;
  for (const auto& [name, meta] : by_name_) {
    if (shard_of(name, shard_count) != shard_id) continue;
    bytes += 64 + name.size() + 16 * meta.replicas.size();
  }
  for (const auto& [key, st] : stripe_state_) {
    if (shard_of_handle(key.first, shard_count) != shard_id) continue;
    bytes += 32 + 9 * st.replica.size();
  }
  return bytes;
}

void Manager::align_next_handle() {
  if (shard_of_handle(next_handle_, shard_count_) != shard_id_) {
    // A split sibling inherits a cursor minting in the source's residue
    // class (the two classes differ by the old count = shard_count_ / 2);
    // one step restores collision-freedom: every future mint lands at or
    // above the inherited cursor, past everything already minted.
    next_handle_ += shard_count_ / 2;
  }
}

void Manager::adopt_shard(ShardSnapshot snap, u32 shard_id, u32 shard_count,
                          ManagerEpoch* cell) {
  shard_id_ = shard_id;
  shard_count_ = shard_count;
  by_name_ = std::move(snap.by_name);
  by_handle_ = std::move(snap.by_handle);
  stripe_state_ = std::move(snap.stripe_state);
  next_handle_ = snap.next_handle;
  mint_floor_ = snap.mint_floor;
  align_next_handle();
  // The cell was bumped by the cutover before adoption, so attaching makes
  // this manager the epoch-current authority and every mint the source
  // still has in flight stale — the same fence a takeover uses.
  epoch_cell_ = cell;
  epoch_ = cell->value;
  active_ = true;
  primary_ = true;
  migrated_out_ = false;
}

void Manager::retire_migrated() {
  active_ = false;
  // No longer the shard's primary: kManagerCrash windows now belong to the
  // target, and the retired box keeps answering redirects even while the
  // shard's (new) primary is in a crash window.
  primary_ = false;
  migrated_out_ = true;
}

void Manager::drop_shard_complement(u32 new_shard_count) {
  pre_split_count_ = shard_count_;
  shard_count_ = new_shard_count;
  for (auto it = by_name_.begin(); it != by_name_.end();) {
    // Mirror of export_shard's union filter: keep the meta if this manager
    // still serves either routing plane for the file — the namespace (by
    // name hash) or the version plane (by handle residue).
    if (shard_of(it->first, new_shard_count) != shard_id_ &&
        shard_of_handle(it->second.handle, new_shard_count) != shard_id_) {
      by_handle_.erase(it->second.handle);
      it = by_name_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = stripe_state_.begin(); it != stripe_state_.end();) {
    if (shard_of_handle(it->first.first, new_shard_count) != shard_id_) {
      it = stripe_state_.erase(it);
    } else {
      ++it;
    }
  }
  align_next_handle();
}

Manager::StripeVersionView Manager::stripe_versions(Handle h,
                                                    u32 stripe) const {
  StripeVersionView v;
  auto it = stripe_state_.find({h, stripe});
  if (it == stripe_state_.end()) return v;
  v.known = true;
  v.latest = it->second.latest;
  v.replica_versions = it->second.replica;
  // A corrupt copy holds nothing, whatever its header claims: reporting 0
  // steers read placement away from it and makes read-repair rewrite the
  // ranges it serves wrong.
  const std::vector<bool>& corrupt = it->second.corrupt;
  for (size_t j = 0; j < v.replica_versions.size() && j < corrupt.size();
       ++j) {
    if (corrupt[j]) v.replica_versions[j] = 0;
  }
  return v;
}

// --- Integrity plane --------------------------------------------------------

size_t Manager::replica_pos(Handle h, u32 stripe, u32 iod_id) const {
  const FileMeta* meta = meta_of(h);
  if (meta == nullptr || stripe >= meta->replicas.size()) {
    return static_cast<size_t>(-1);
  }
  const std::vector<u32>& set = meta->replicas[stripe];
  for (size_t j = 0; j < set.size(); ++j) {
    if (set[j] == iod_id) return j;
  }
  return static_cast<size_t>(-1);
}

void Manager::note_replica_corrupt(Handle h, u32 stripe, u32 iod_id) {
  const size_t pos = replica_pos(h, stripe, iod_id);
  if (pos == static_cast<size_t>(-1)) return;
  const size_t n = meta_of(h)->replicas[stripe].size();
  StripeState& st = stripe_state_[{h, stripe}];
  if (st.replica.empty()) st.replica.resize(n, 0);
  if (st.corrupt.size() < n) st.corrupt.resize(n, false);
  st.corrupt[pos] = true;
}

void Manager::note_replica_observed(Handle h, u32 stripe, u32 iod_id,
                                    u64 version) {
  const size_t pos = replica_pos(h, stripe, iod_id);
  if (pos == static_cast<size_t>(-1)) return;
  const size_t n = meta_of(h)->replicas[stripe].size();
  StripeState& st = stripe_state_[{h, stripe}];
  if (st.replica.empty()) st.replica.resize(n, 0);
  // Downgrade on purpose: the header is physical evidence; the higher
  // recorded version came from an ack whose write never hit the platter.
  // `latest` stays — the minted sequence is still the repair target.
  st.replica[pos] = version;
  st.latest = std::max(st.latest, version);
}

void Manager::note_replica_resynced(Handle h, u32 stripe, u32 iod_id,
                                    u64 version) {
  const size_t pos = replica_pos(h, stripe, iod_id);
  if (pos == static_cast<size_t>(-1)) return;
  const size_t n = meta_of(h)->replicas[stripe].size();
  StripeState& st = stripe_state_[{h, stripe}];
  if (st.replica.empty()) st.replica.resize(n, 0);
  if (pos < st.corrupt.size() && st.corrupt[pos]) {
    st.corrupt[pos] = false;
    stats_.add(stat::kPvfsCorruptionsRepaired);
  }
  st.replica[pos] = std::max(st.replica[pos], version);
  st.latest = std::max(st.latest, version);
}

std::vector<Manager::LocalStripeView> Manager::local_stripes(
    Handle local, u32 iod_id) const {
  std::vector<LocalStripeView> out;
  const Handle h = file_handle(local);
  const FileMeta* meta = meta_of(h);
  if (meta == nullptr || meta->replication_factor <= 1) return out;
  for (u32 k = 0; k < meta->replicas.size(); ++k) {
    const std::vector<u32>& set = meta->replicas[k];
    for (size_t j = 0; j < set.size(); ++j) {
      if (set[j] != iod_id) continue;
      // Same key-matching rule as the takeover header scan: a backup
      // header names its stripe in the shadow handle; a primary local file
      // is shared by every stripe primaried on the iod.
      if (local_handle(h, k, j) != local) continue;
      LocalStripeView v;
      v.handle = h;
      v.stripe = k;
      const auto it = stripe_state_.find({h, k});
      if (it != stripe_state_.end()) {
        v.known = true;
        v.latest = it->second.latest;
        v.recorded =
            j < it->second.replica.size() ? it->second.replica[j] : 0;
        if (j < it->second.corrupt.size() && it->second.corrupt[j]) {
          v.recorded = 0;
        }
      }
      out.push_back(v);
    }
  }
  return out;
}

std::vector<Manager::ResyncTarget> Manager::resync_targets(u32 iod) const {
  std::vector<ResyncTarget> out;
  for (const auto& [key, st] : stripe_state_) {
    const auto& [h, stripe] = key;
    const FileMeta* meta = meta_of(h);
    if (meta == nullptr || stripe >= meta->replicas.size()) continue;
    const std::vector<u32>& set = meta->replicas[stripe];
    size_t pos = set.size();
    for (size_t j = 0; j < set.size() && j < st.replica.size(); ++j) {
      if (set[j] == iod) pos = j;
    }
    const auto flagged = [&st](size_t j) {
      return j < st.corrupt.size() && st.corrupt[j];
    };
    // A corrupt copy is always a resync target, whatever its header claims.
    if (pos == set.size() ||
        (!flagged(pos) && st.replica[pos] >= st.latest)) {
      continue;
    }
    ResyncTarget t;
    t.handle = h;
    t.stripe = stripe;
    t.latest = st.latest;
    t.local_handle = local_handle(h, stripe, pos);
    for (size_t j = 0; j < set.size() && j < st.replica.size(); ++j) {
      if (j != pos && !flagged(j) && st.replica[j] >= st.latest) {
        t.peers.push_back(set[j]);
        t.peer_handles.push_back(local_handle(h, stripe, j));
      }
    }
    if (!t.peers.empty()) out.push_back(std::move(t));
  }
  return out;
}

}  // namespace pvfsib::pvfs
