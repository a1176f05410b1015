#include "pvfs/iod.h"

#include <algorithm>
#include <cassert>

#include "fault/injector.h"
#include "pvfs/manager.h"
#include "sim/engine.h"
#include "sim/trace.h"

namespace pvfsib::pvfs {

namespace {
std::string iod_name(u32 id) { return "iod" + std::to_string(id); }

// Restamp every checksum block of `f` overlapping `accesses` (plus, when
// the apply grew the file past `pre_size`, the zero-filled growth, whose
// blocks changed extent) as the hash of the file's current contents.
void stamp_round(disk::LocalFile& f, const ExtentList& accesses,
                 u64 pre_size) {
  ExtentList ranges = accesses;
  if (f.size() > pre_size) ranges.push_back({pre_size, f.size() - pre_size});
  f.stamp(ranges);
}
}  // namespace

Iod::Iod(u32 id, u32 client_count, const ModelConfig& cfg, ib::Fabric& fabric,
         Stats& stats, fault::Injector& faults)
    : id_(id),
      cfg_(cfg),
      fabric_(fabric),
      stats_(stats),
      faults_(faults),
      hca_(iod_name(id), as_, cfg.reg, stats),
      fs_(iod_name(id), cfg.disk, cfg.fs, stats,
          cfg.replication.integrity_block_bytes),
      disk_queue_(iod_name(id) + ".disk"),
      ads_(cfg.disk, cfg.fs, cfg.mem,
           core::AdsConfig{.sieve_buffer_size = cfg.pvfs.staging_buffer},
           stats) {
  // One buffer per in-flight round per client; replica chains bring their
  // own slot region (see RoundRequest::slot), so the pool scales with the
  // replication factor. At factor 1 this is exactly the classic pool.
  slots_per_client_ = std::max<u32>(1, cfg.pipeline_depth) *
                      std::max<u32>(1, cfg.replication.factor);
  staging_.resize(static_cast<size_t>(client_count) * slots_per_client_);
  for (core::StagingBuffer& sb : staging_) {
    sb.hca = &hca_;
    sb.size = cfg.pvfs.staging_buffer;
    sb.addr = as_.alloc(sb.size);
    ib::RegAttempt reg = hca_.register_memory(sb.addr, sb.size);
    assert(reg.ok());
    sb.rkey = reg.key;
  }
  sieve_addr_ = as_.alloc(cfg.pvfs.staging_buffer);
  ib::RegAttempt reg = hca_.register_memory(sieve_addr_, cfg.pvfs.staging_buffer);
  assert(reg.ok());
  sieve_key_ = reg.key;
}

disk::LocalFile& Iod::file(Handle h) {
  auto it = files_.find(h);
  if (it == files_.end()) {
    Result<u32> fd = fs_.create("/pvfs/h" + std::to_string(h));
    assert(fd.is_ok());
    it = files_.emplace(h, fd.value()).first;
  }
  return fs_.file(it->second);
}

Duration Iod::remove_file(Handle h) {
  auto it = files_.find(h);
  if (it == files_.end()) return Duration::zero();
  const Duration cost = fs_.file(it->second).purge();
  files_.erase(it);
  // Drop the stripe header with the data: a header outliving its file
  // would resurrect the deleted stripe in a later takeover's header scan
  // (and leak versions into a recreated file reusing the local key). The
  // purge dropped the block checksums with the bytes.
  stripe_version_.erase(h);
  return cost;
}

Duration Iod::disk_scaled(Duration cost, TimePoint at) const {
  if (!faults_.enabled()) return cost;
  return cost * faults_.disk_factor(id_, at);
}

bool Iod::already_applied(u32 client, u32 slot, u64 seq) {
  u64& high = applied_seq_[{client, slot}];
  if (seq <= high) return true;
  high = seq;
  return false;
}

core::StagingBuffer& Iod::staging(u32 client, u32 slot) {
  assert(slot < slots_per_client_);
  const size_t idx = static_cast<size_t>(client) * slots_per_client_ + slot;
  assert(idx < staging_.size());
  return staging_[idx];
}

Iod::DiskPhase Iod::write_disk_phase(disk::LocalFile& f, const RoundRequest& r,
                                     std::span<const std::byte> stream,
                                     TimePoint when) {
  DiskPhase out;
  const disk::IoOpts io{};

  // Short-circuit: the decision model is only consulted (and only counts
  // towards the profile) when the client allowed server-side sieving.
  core::AdsDecision decision;
  if (r.use_ads) {
    decision = ads_.decide(r.accesses, /*is_write=*/true, f.size());
  }
  const bool sieve = decision.sieve;
  sim::Trace::instance().emitf(
      when, hca_.name(),
      "write round h%llu slot%u @%llu: %zu accesses, %llu B -> %s",
      static_cast<unsigned long long>(r.handle), r.slot,
      static_cast<unsigned long long>(
          r.accesses.empty() ? 0 : r.accesses.front().offset),
      r.accesses.size(), static_cast<unsigned long long>(r.bytes()),
      sieve ? "sieve (RMW)" : "separate");

  if (!sieve) {
    u64 stream_off = 0;
    for (const Extent& a : r.accesses) {
      out.cost += f.pwrite(a.offset, stream.subspan(stream_off, a.length), io)
                      .cost;
      stream_off += a.length;
    }
  } else {
    // Read-modify-write under a byte-range lock covering the sieve spans.
    Result<disk::LocalFile::RangeLock> lk =
        f.lock_range(bounding_span(r.accesses));
    if (!lk.is_ok()) {
      out.status = lk.status();
      return out;
    }
    out.cost += lk.value().cost;
    // Charged as reading each whole window and writing it back; the host
    // patches just the wanted pieces from the packed stream in place.
    rmw_windows_.clear();
    rmw_patches_.clear();
    for (const auto& w : decision.windows) {
      rmw_windows_.push_back(w.span);
      u64 wanted = 0;
      for (const auto& p : w.pieces) {
        rmw_patches_.push_back({w.span.offset + p.window_off,
                                stream.subspan(p.stream_off, p.length)});
        wanted += p.length;
      }
      out.cost += cfg_.mem.copy_cost(wanted);
    }
    out.cost += f.read_modify_write(rmw_windows_, rmw_patches_, io);
    out.cost += f.unlock_range(lk.value().id);
  }

  if (r.sync) out.cost += f.fsync();
  out.status = Status::ok();
  return out;
}

Iod::WriteService Iod::write_round(const RoundRequest& r,
                                   TimePoint data_ready) {
  WriteService svc;
  svc.done = data_ready;
  if (r.round_seq != 0 && already_applied(r.client, r.slot, r.round_seq)) {
    // Replay of a round whose reply was lost: the disk phase already ran,
    // so ack without re-applying (idempotent replay). The original apply
    // merged the version; the ack reports the current header.
    stats_.add(stat::kPvfsReplaysDeduped);
    sim::Trace::instance().emitf(
        data_ready, hca_.name(), "write round h%llu slot%u seq%llu: replay, %s",
        static_cast<unsigned long long>(r.handle), r.slot,
        static_cast<unsigned long long>(r.round_seq), "acked without reapply");
    svc.ack_version = stripe_version(r.handle);
    return svc;
  }
  // A staged replay (partial-round restart) carries no payload; it must
  // always hit the dedupe branch above — data landing and the disk apply
  // are atomic at this iod, so "staged" implies "applied".
  assert(!r.data_staged);
  const core::StagingBuffer& sb = staging(r.client, r.slot);
  assert(r.bytes() <= sb.size);
  // Silent-corruption draws, fixed order (lost, torn, flip; at most one
  // fires) so the injector's rng stream is consumed identically across
  // runs. Drawn before the apply: a lost write never reaches the disk.
  bool lost = false;
  bool torn = false;
  bool flip = false;
  if (r.bytes() > 0) {
    lost = faults_.lost_write(id_, data_ready);
    if (!lost) torn = faults_.torn_write(id_, data_ready);
    if (!lost && !torn) flip = faults_.write_bit_flip(id_, data_ready);
  }
  if (lost) {
    // The disk firmware dropped the round but acked it: nothing is
    // applied, no header moves, yet the ack reports exactly what a real
    // apply would have — so the manager wrongly records this replica
    // current. already_applied() above logged the seq, so replays dedupe
    // like any acked round. Only a header-vs-staleness-map cross-check (a
    // reader's gate or the scrubber's) can catch the lie later.
    sim::Trace::instance().emitf(
        data_ready, hca_.name(),
        "write round h%llu slot%u: LOST WRITE injected, acked unapplied",
        static_cast<unsigned long long>(r.handle), r.slot);
    svc.ack_version = std::max(stripe_version(r.handle), r.version);
    return svc;
  }
  const std::span<const std::byte> stream =
      as_.readable_span(sb.addr, r.bytes());
  disk::LocalFile& f = file(r.handle);
  const u64 pre_size = f.size();
  DiskPhase phase = write_disk_phase(f, r, stream, data_ready);
  // Rounds on one iod are serialized by the disk queue (pipelined rounds
  // arrive in data-phase order), so the RMW range lock can never conflict;
  // a failure here is a protocol bug.
  assert(phase.status.is_ok());
  phase.cost = disk_scaled(phase.cost, data_ready);
  svc.disk_cost = phase.cost;
  // Stamp block checksums from the *intended* content, then let torn/flip
  // corruption garble the stored bytes behind the stamps — that mismatch
  // is exactly what verify-on-read and the scrubber detect.
  stamp_round(f, r.accesses, pre_size);
  if (torn) {
    corrupt_torn(f, r, data_ready);
  } else if (flip) {
    corrupt_flip(f, r, data_ready);
  }
  // Merge the round's version into the stripe header (kept as if durable,
  // like applied_seq_). Unversioned rounds — the only kind at factor 1 —
  // never touch the map. A version minted under a manager epoch this iod
  // has seen superseded is fenced out of the header (the bytes above still
  // landed; only the version plane is epoch-gated), so a zombie primary's
  // in-flight mints cannot make this replica look current to a takeover
  // scan or to its own acks.
  if (r.version != 0) {
    const u64 fence =
        manager_epoch(shard_of_handle(r.handle, cfg_.pvfs.metadata_shards));
    if (r.epoch != 0 && r.epoch < fence) {
      svc.epoch_rejected = true;
      stats_.add(stat::kPvfsEpochRejections);
      sim::Trace::instance().emitf(
          data_ready, hca_.name(),
          "write round h%llu slot%u: stale epoch %llu < %llu, header fenced",
          static_cast<unsigned long long>(r.handle), r.slot,
          static_cast<unsigned long long>(r.epoch),
          static_cast<unsigned long long>(fence));
    } else {
      u64& header = stripe_version_[r.handle];
      header = std::max(header, r.version);
    }
  }
  svc.ack_version = stripe_version(r.handle);
  svc.done = disk_queue_.acquire(data_ready, phase.cost);
  return svc;
}

u64 Iod::stripe_version(Handle h) const {
  auto it = stripe_version_.find(h);
  return it == stripe_version_.end() ? 0 : it->second;
}

TimePoint Iod::apply_repair(Handle h, const ExtentList& accesses,
                            std::span<const std::byte> stream, u64 version,
                            TimePoint at) {
  RoundRequest rr;
  rr.handle = h;
  rr.is_write = true;
  rr.use_ads = false;  // the repair stream is already round-shaped
  rr.accesses = accesses;
  disk::LocalFile& f = file(h);
  const u64 pre_size = f.size();
  DiskPhase phase = write_disk_phase(f, rr, stream, at);
  assert(phase.status.is_ok());
  phase.cost = disk_scaled(phase.cost, at);
  // Repairs stamp like any apply: the healed bytes must verify on the next
  // read (and the scrubber must not re-flag the repaired blocks).
  stamp_round(f, accesses, pre_size);
  if (version != 0) {
    u64& header = stripe_version_[h];
    header = std::max(header, version);
  }
  return disk_queue_.acquire(at, phase.cost);
}

Timed<u64> Iod::serve_resync(const ResyncRequest& rq,
                             std::span<std::byte> dst) {
  disk::LocalFile& f = file(rq.peer_handle);
  const u64 size = f.size();
  if (rq.offset >= size) return {0, Duration::zero()};
  const u64 n = std::min({rq.max_bytes, size - rq.offset, dst.size()});
  return f.pread(rq.offset, dst.subspan(0, n), {});
}

// --- Background re-replication --------------------------------------------

struct Iod::ResyncState {
  std::vector<Manager::ResyncTarget> targets;
  size_t ti = 0;   // current target
  u64 off = 0;     // byte cursor within the current stripe's local file
  u64 rounds = 0;  // chunk pulls spent on the current stripe
  TimePoint t = TimePoint::origin();
};

void Iod::configure_resync(sim::Engine* engine,
                           std::vector<Manager*> authorities,
                           std::vector<Iod*> peers) {
  engine_ = engine;
  managers_ = std::move(authorities);
  peers_ = std::move(peers);
}

void Iod::set_resync_authority(u32 shard, Manager* manager) {
  if (engine_ == nullptr) return;  // configure_resync never ran
  // Grown on demand: split-born shards index past the mount-time count.
  if (shard >= managers_.size()) managers_.resize(shard + 1, nullptr);
  managers_[shard] = manager;
}

void Iod::on_restart(TimePoint t) {
  if (engine_ == nullptr || managers_.empty()) return;
  auto st = std::make_shared<ResyncState>();
  for (Manager* m : managers_) {
    if (m == nullptr) continue;
    auto part = m->resync_targets(id_);
    st->targets.insert(st->targets.end(), part.begin(), part.end());
  }
  if (st->targets.empty()) return;
  st->t = t;
  sim::Trace::instance().emitf(t, hca_.name(),
                               "resync: %zu stale stripe(s) after restart",
                               st->targets.size());
  resync_step(st);
}

void Iod::resync_step(std::shared_ptr<ResyncState> st) {
  // Crashed again mid-scan: abandon; the next restart rescans (the map
  // still records every unfinished stripe as stale).
  if (faults_.enabled() && faults_.iod_down(id_, st->t)) return;
  while (st->ti < st->targets.size()) {
    const Manager::ResyncTarget& tg = st->targets[st->ti];
    // The first chain peer recorded current and up right now is the pull
    // source; with none, skip the stripe (still recorded stale — a later
    // restart retries).
    Iod* peer = nullptr;
    Handle peer_handle = 0;
    u32 peer_id = 0;
    for (size_t j = 0; j < tg.peers.size(); ++j) {
      const u32 p = tg.peers[j];
      if (p < peers_.size() && peers_[p] != nullptr &&
          !(faults_.enabled() && faults_.iod_down(p, st->t))) {
        peer = peers_[p];
        peer_handle = tg.peer_handles[j];
        peer_id = p;
        break;
      }
    }
    if (peer == nullptr) {
      ++st->ti;
      st->off = 0;
      st->rounds = 0;
      continue;
    }
    disk::LocalFile& source = peer->file(peer_handle);
    const u64 peer_size = source.size();
    if (st->off >= peer_size) {
      // Stripe fully pulled: the copy now holds everything the map's
      // latest version covers, so the replica is current again.
      u64& header = stripe_version_[tg.local_handle];
      header = std::max(header, tg.latest);
      const u32 shard = shard_of_handle(tg.handle, cfg_.pvfs.metadata_shards);
      if (shard < managers_.size() && managers_[shard] != nullptr) {
        // A completed pull is the one event that also clears a corrupt
        // flag in the staleness map: the copy was rebuilt (and restamped)
        // in full from an intact peer.
        managers_[shard]->note_replica_resynced(tg.handle, tg.stripe, id_,
                                                tg.latest);
      }
      stats_.add(stat::kPvfsResyncStripes);
      sim::Trace::instance().emitf(
          st->t, hca_.name(),
          "resync: h%llu stripe %u current at v%llu (%llu B in %llu rounds)",
          static_cast<unsigned long long>(tg.handle), tg.stripe,
          static_cast<unsigned long long>(tg.latest),
          static_cast<unsigned long long>(peer_size),
          static_cast<unsigned long long>(st->rounds));
      ++st->ti;
      st->off = 0;
      st->rounds = 0;
      continue;
    }
    // Pull one chunk: RESYNC request over the fabric, peer disk read, the
    // return wire capped at the resync rate, local disk write. Chunks are
    // strictly sequential — one outstanding pull keeps the background
    // traffic bounded by resync_bandwidth.
    ResyncRequest rq;
    rq.handle = tg.handle;
    rq.stripe = tg.stripe;
    rq.peer_handle = peer_handle;
    rq.offset = st->off;
    rq.max_bytes = cfg_.replication.resync_round_bytes;
    std::vector<std::byte> buf(
        std::min(rq.max_bytes, peer_size - st->off));
    const TimePoint req_at =
        fabric_.send_control(hca_, peer->hca(), cfg_.pvfs.request_msg_bytes,
                             st->t, ib::ControlKind::kRequest);
    const Timed<u64> rd = peer->serve_resync(rq, buf);
    const double bw =
        std::min(cfg_.replication.resync_bandwidth, cfg_.net.rdma_read_bw);
    const Duration wire =
        cfg_.net.rdma_read_latency + transfer_time(rd.value, bw);
    if (!source.verify({{st->off, rd.value}})) {
      // The pull source itself is rotten: applying (and restamping) its
      // bytes here would launder the corruption into a copy that verifies
      // clean — silent rot, the one thing the integrity plane must never
      // manufacture. Flag the source and abandon the stripe; it stays
      // recorded stale, so a later scan retries against the surviving
      // chain once the flagged copy is excluded or healed.
      stats_.add(stat::kPvfsCorruptionsDetected);
      const u32 shard = shard_of_handle(tg.handle, cfg_.pvfs.metadata_shards);
      if (shard < managers_.size() && managers_[shard] != nullptr) {
        managers_[shard]->note_replica_corrupt(tg.handle, tg.stripe, peer_id);
      }
      sim::Trace::instance().emitf(
          st->t, hca_.name(),
          "resync: h%llu stripe %u pull source iod%u CORRUPT, abandoning",
          static_cast<unsigned long long>(tg.handle), tg.stripe, peer_id);
      ++st->ti;
      st->off = 0;
      st->rounds = 0;
      st->t = req_at + rd.cost + wire;
      engine_->schedule_at(st->t, [this, st] { resync_step(st); });
      return;
    }
    disk::LocalFile& lf = file(tg.local_handle);
    const u64 pre_size = lf.size();
    const Timed<u64> wr = lf.pwrite(st->off, {buf.data(), rd.value}, {});
    // Resync applies stamp like writes do: the rebuilt copy must verify.
    stamp_round(lf, {{st->off, rd.value}}, pre_size);
    stats_.add(stat::kPvfsResyncRounds);
    st->off += rd.value;
    ++st->rounds;
    st->t = req_at + rd.cost + wire + wr.cost;
    engine_->schedule_at(st->t, [this, st] { resync_step(st); });
    return;
  }
}

Iod::ReadService Iod::read_round(const RoundRequest& r, TimePoint start,
                                 ReadReturn path, ib::Hca* client_hca,
                                 u64 client_dest, u32 client_rkey) {
  ReadService svc;
  svc.version = stripe_version(r.handle);
  const core::StagingBuffer& sb = staging(r.client, r.slot);
  const u64 total = r.bytes();
  if (total > sb.size) {
    svc.status = invalid_argument("read round exceeds staging buffer");
    return svc;
  }

  // Verify-on-read: recompute the stamped block checksums of every block
  // the round touches (zero simulated cost — the hash overlaps the disk
  // read). A mismatch means the stored bytes silently diverged from what
  // was acked (bit flip, torn write); this replica is reachable but
  // untrustworthy, so the round fails typed kCorrupt and the client fails
  // over instead of retrying here.
  disk::LocalFile& f = file(r.handle);
  if (!f.verify(r.accesses)) {
    stats_.add(stat::kPvfsCorruptionsDetected);
    sim::Trace::instance().emitf(
        start, hca_.name(), "read round h%llu: block checksum MISMATCH",
        static_cast<unsigned long long>(r.handle));
    svc.status = corrupt("stripe block checksum mismatch on h" +
                         std::to_string(r.handle));
    svc.ready = start;
    return svc;
  }

  core::AdsDecision decision;
  if (r.use_ads) {
    decision = ads_.decide(r.accesses, /*is_write=*/false, f.size());
  }
  const bool sieve = decision.sieve;
  sim::Trace::instance().emitf(
      start, hca_.name(), "read round h%llu: %zu accesses, %llu B -> %s, %s",
      static_cast<unsigned long long>(r.handle), r.accesses.size(),
      static_cast<unsigned long long>(total),
      sieve ? "sieve" : "separate",
      path == ReadReturn::kFastBounce      ? "fast-bounce"
      : path == ReadReturn::kDirectGather ? "direct-gather"
                                           : "client-pull");

  // The round's stream is views of the file's bytes, in stream order, which
  // no call below changes. Every return path hands them back in
  // ReadService::stream and copies none: the client lands them in its
  // user buffers in the event this call returns to. The fabric moves no
  // bytes of the bounce write or the gathers either.
  stream_.clear();
  TimePoint disk_done = start;
  // A sieved direct gather's gathers: when the last one completed.
  TimePoint net_done = start;
  if (!sieve) {
    // Access by access, one view per access.
    for (const Extent& a : r.accesses) {
      const Timed<std::span<const std::byte>> v =
          f.read_view(a.offset, a.length, {});
      svc.disk_cost += v.cost;
      stream_.push_back({v.value, a.length});
    }
    svc.disk_cost = disk_scaled(svc.disk_cost, start);
    disk_done = disk_queue_.acquire(start, svc.disk_cost);
  } else {
    // Sieved read: window by window, one view per window; each wanted
    // piece is a view into its window's, and reads as zeros past EOF.
    placed_.clear();
    for (const auto& w : decision.windows) {
      const Timed<std::span<const std::byte>> v =
          f.read_view(w.span.offset, w.span.length, {});
      const Duration rd_cost = disk_scaled(v.cost, disk_done);
      svc.disk_cost += rd_cost;
      disk_done = disk_queue_.acquire(disk_done, rd_cost);
      u64 wanted = 0;
      for (const auto& p : w.pieces) {
        const u64 lo = std::min(p.window_off, v.value.size());
        const u64 hi = std::min(p.window_off + p.length, v.value.size());
        placed_.push_back({p.stream_off, {v.value.subspan(lo, hi - lo),
                                          p.length}});
        wanted += p.length;
      }
      if (path != ReadReturn::kDirectGather) {
        // The pack of wanted pieces into stream order, charged per window.
        svc.disk_cost += cfg_.mem.copy_cost(wanted);
        disk_done = disk_queue_.acquire(disk_done, cfg_.mem.copy_cost(wanted));
        continue;
      }
      // Ship wanted pieces straight out of the sieve buffer, one gather per
      // run of stream-consecutive pieces (the remote side of a gather WR is
      // contiguous). No pack copy — the scatter/gather NIC does the work.
      // A gather that completes in error fails the round with its status.
      std::vector<ib::Sge> run;
      u64 run_start = 0;
      u64 run_next = 0;
      auto flush_run = [&] {
        if (run.empty()) return true;
        ib::TransferResult tr = fabric_.rdma_write_gather(
            hca_, run, *client_hca, client_dest + run_start, client_rkey,
            disk_done);
        run.clear();
        if (!tr.ok()) {
          svc.status = tr.status;
          svc.ready = tr.complete;
          return false;
        }
        net_done = max(net_done, tr.complete);
        return true;
      };
      for (const auto& p : w.pieces) {
        if (run.empty() || p.stream_off != run_next) {
          if (!flush_run()) return svc;
          run_start = p.stream_off;
          run_next = p.stream_off;
        }
        run.push_back(ib::Sge{sieve_addr_ + p.window_off, p.length,
                              sieve_key_});
        run_next += p.length;
      }
      if (!flush_run()) return svc;
    }
    // Windows follow file order; the stream follows request order.
    std::sort(placed_.begin(), placed_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [off, p] : placed_) stream_.push_back(p);
  }

  if (path == ReadReturn::kClientPull) {
    svc.ready = disk_done;
  } else if (sieve && path == ReadReturn::kDirectGather) {
    svc.ready = max(net_done, disk_done);
  } else {
    // One write of the whole stream into the client's destination.
    const ib::Sge sge{sb.addr, total, sb.rkey};
    const ib::TransferResult tr = fabric_.rdma_write_gather(
        hca_, {&sge, 1}, *client_hca, client_dest, client_rkey, disk_done);
    svc.ready = tr.complete;
    if (!tr.ok()) {
      svc.status = tr.status;
      return svc;
    }
  }
  svc.status = Status::ok();
  svc.bytes = total;
  svc.stream = stream_;
  return svc;
}

// --- Data integrity ---------------------------------------------------------

void Iod::corrupt_torn(disk::LocalFile& f, const RoundRequest& r,
                       TimePoint at) {
  const u64 total = total_length(r.accesses);
  if (total == 0) return;
  // Keep a prefix of the round's stream on the platter; the torn tail
  // reads back garbled under the intact (intended-content) stamps.
  const u64 keep = faults_.draw(total);
  u64 pos = 0;
  for (const Extent& a : r.accesses) {
    if (pos + a.length > keep) {
      const u64 skip = keep > pos ? keep - pos : 0;
      f.corrupt({a.offset + skip, a.length - skip}, std::byte{0x5a});
    }
    pos += a.length;
  }
  sim::Trace::instance().emitf(
      at, hca_.name(),
      "torn write injected on h%llu: kept %llu of %llu B",
      static_cast<unsigned long long>(r.handle),
      static_cast<unsigned long long>(keep),
      static_cast<unsigned long long>(total));
}

void Iod::corrupt_flip(disk::LocalFile& f, const RoundRequest& r,
                       TimePoint at) {
  const u64 total = total_length(r.accesses);
  if (total == 0) return;
  u64 pos = faults_.draw(total);
  const u32 bit = static_cast<u32>(faults_.draw(8));
  for (const Extent& a : r.accesses) {
    if (pos < a.length) {
      const u64 off = a.offset + pos;
      if (off < f.size()) {
        f.corrupt({off, 1}, static_cast<std::byte>(1u << bit));
        sim::Trace::instance().emitf(
            at, hca_.name(),
            "bit flip injected on h%llu at %llu (bit %u)",
            static_cast<unsigned long long>(r.handle),
            static_cast<unsigned long long>(off), bit);
      }
      return;
    }
    pos -= a.length;
  }
}

void Iod::inject_bit_flip(TimePoint at) {
  // Deterministic pick among nonempty local files (map order), then a byte
  // and a bit, all from the injector's seeded stream. A node with no data
  // yet absorbs the event silently (and counts nothing — the fault never
  // materialized).
  std::vector<u32> cands;
  for (const auto& [h, fd] : files_) {
    if (fs_.file(fd).size() > 0) cands.push_back(fd);
  }
  if (cands.empty()) return;
  disk::LocalFile& f = fs_.file(cands[faults_.draw(cands.size())]);
  const u64 off = faults_.draw(f.size());
  const u32 bit = static_cast<u32>(faults_.draw(8));
  f.corrupt({off, 1}, static_cast<std::byte>(1u << bit));
  stats_.add(stat::kFaultBitFlip);
  sim::Trace::instance().emitf(
      at, hca_.name(), "bit flip injected at rest: %s off %llu bit %u",
      f.path().c_str(), static_cast<unsigned long long>(off), bit);
}

// --- Background scrubber ----------------------------------------------------

struct Iod::ScrubState {
  TimePoint until = TimePoint::origin();
  Handle cursor = 0;  // next local handle to visit (lower_bound key)
  u64 off = 0;        // byte cursor within the cursor file
};

void Iod::start_scrub(TimePoint until) {
  if (engine_ == nullptr || managers_.empty()) return;
  auto st = std::make_shared<ScrubState>();
  st->until = until;
  const TimePoint first = engine_->now() + cfg_.replication.scrub_interval;
  if (first > until) return;
  engine_->schedule_at(first, [this, st] { scrub_tick(st); });
}

void Iod::scrub_tick(std::shared_ptr<ScrubState> st) {
  const TimePoint now = engine_->now();
  const bool down = faults_.enabled() && faults_.iod_down(id_, now);
  if (!down && !files_.empty()) {
    u64 budget = std::max<u64>(1, cfg_.replication.scrub_chunk_bytes);
    u64 scanned = 0;
    bool issues = false;
    TimePoint done = now;
    // At most one pass over the file table per tick (+1 for the wrap).
    for (size_t visits = files_.size() + 1; budget > 0 && visits > 0;
         --visits) {
      const auto it = files_.lower_bound(st->cursor);
      if (it == files_.end()) {
        st->cursor = 0;
        st->off = 0;
        continue;
      }
      const Handle h = it->first;
      disk::LocalFile& f = fs_.file(it->second);
      if (st->off >= f.size()) {
        st->cursor = h + 1;
        st->off = 0;
        continue;
      }
      // The shard manager that owns this local file's stripes: corrupt and
      // stale findings are reported there, and the version cross-check
      // reads its staleness map.
      const u32 shard = shard_of_handle(h, cfg_.pvfs.metadata_shards);
      Manager* mgr = shard < managers_.size() ? managers_[shard] : nullptr;
      // Version cross-check, once per file (at its first chunk): a header
      // trailing a stripe the map records *current here* is an acked write
      // that never hit the platter — a lost write, invisible to checksums
      // because the stored (old) bytes still verify.
      if (st->off == 0 && mgr != nullptr) {
        const u64 header = stripe_version(h);
        for (const Manager::LocalStripeView& v : mgr->local_stripes(h, id_)) {
          if (v.known && v.recorded >= v.latest && header < v.latest) {
            stats_.add(stat::kPvfsScrubStaleHeaders);
            sim::Trace::instance().emitf(
                now, hca_.name(),
                "scrub: h%llu stripe %u header v%llu < map v%llu, lost "
                "write detected",
                static_cast<unsigned long long>(v.handle), v.stripe,
                static_cast<unsigned long long>(header),
                static_cast<unsigned long long>(v.latest));
            mgr->note_replica_observed(v.handle, v.stripe, id_, header);
            issues = true;
          }
        }
      }
      const u64 n = std::min(budget, f.size() - st->off);
      // The media re-read is charged through the disk queue like any other
      // access — scrub bandwidth is real, which is why the sweep is opt-in
      // and rate-limited.
      std::vector<std::byte> scratch(n);
      const Timed<u64> rd = f.pread(st->off, scratch, {});
      done = disk_queue_.acquire(done, disk_scaled(rd.cost, now));
      if (!f.verify({{st->off, n}})) {
        stats_.add(stat::kPvfsScrubCorruptions);
        stats_.add(stat::kPvfsCorruptionsDetected);
        sim::Trace::instance().emitf(
            now, hca_.name(), "scrub: h%llu checksum MISMATCH in [%llu,%llu)",
            static_cast<unsigned long long>(h),
            static_cast<unsigned long long>(st->off),
            static_cast<unsigned long long>(st->off + n));
        if (mgr != nullptr) {
          for (const Manager::LocalStripeView& v :
               mgr->local_stripes(h, id_)) {
            mgr->note_replica_corrupt(v.handle, v.stripe, id_);
          }
        }
        issues = true;
      }
      budget -= n;
      scanned += n;
      st->off += n;
    }
    if (scanned > 0) {
      stats_.add(stat::kPvfsScrubChunks);
      stats_.add(stat::kPvfsScrubBytes, scanned);
    }
    // Heal: the findings above are now recorded stale/corrupt in the
    // staleness map, which is exactly what the restart resync scanner
    // pulls from — reuse it. Concurrent scans are deterministic and pull
    // idempotently, so no interlock is needed.
    if (issues) on_restart(done);
  }
  const TimePoint next = now + cfg_.replication.scrub_interval;
  if (next <= st->until) {
    engine_->schedule_at(next, [this, st] { scrub_tick(st); });
  }
}

}  // namespace pvfsib::pvfs
