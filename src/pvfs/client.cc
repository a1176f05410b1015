#include "pvfs/client.h"

#include <cassert>

#include "fault/injector.h"
#include "sim/trace.h"

namespace pvfsib::pvfs {

namespace {
std::string client_name(u32 id) { return "client" + std::to_string(id); }

// The bytes of `mem`, concatenated in list order.
std::vector<std::byte> gather(const vmem::AddressSpace& as,
                              const core::MemSegmentList& mem) {
  std::vector<std::byte> out;
  out.reserve(core::total_bytes(mem));
  for (const core::MemSegment& m : mem) {
    const std::span<const std::byte> s = as.readable_span(m.addr, m.length);
    out.insert(out.end(), s.begin(), s.end());
  }
  return out;
}

// Fast-RDMA eager test: a `bytes`-sized round fits the pre-registered
// bounce buffer under a packing transfer scheme.
bool fast_rdma(const PvfsParams& p, const core::TransferPolicy& pol,
               u64 bytes) {
  return bytes <= p.fast_rdma_buffer &&
         (pol.scheme == core::XferScheme::kHybrid ||
          pol.scheme == core::XferScheme::kPackUnpack);
}

// Book a transfer that started at `from`: its registration work, and the
// rest of its span as wire time. A failed transfer books nothing.
void charge_transfer(IoPhases& ph, const core::TransferOutcome& x,
                     TimePoint from) {
  if (!x.ok()) return;
  ph.registration += x.reg_cost;
  ph.wire += (x.complete - from) - x.reg_cost;
}
}  // namespace

// Completion state shared by every copy of an IoHandle.
struct IoHandle::State {
  bool done = false;
  IoResult result;
  TimePoint start = TimePoint::origin();  // for the stalled-queue error path
  std::vector<IoCallback> callbacks;
};

// Per-operation bookkeeping shared by the per-server round chains.
struct Client::OpState {
  OpenFile file;
  IoOptions opts;
  bool is_write = false;
  IoCallback done;
  TimePoint start = TimePoint::origin();   // when the caller issued the op
  TimePoint launch = TimePoint::origin();  // after op-wide registration
  // Per chain (one per sub-request): the *logical stripe server* id
  // (ServerSubRequest::server). partition() skips servers that receive no
  // data, so the dense chain index is not the stripe id — shadow handles,
  // version allocation and staleness-map keys must all use the stripe id.
  std::vector<u32> stripes;
  std::vector<std::vector<Round>> rounds;  // per chain: its round records
  // Per chain: the ordered physical replicas serving it (primary first);
  // the primary alone when unreplicated.
  std::vector<std::vector<u32>> replica_sets;
  bool replicated = false;  // file carries a replica table (factor > 1)
  u32 quorum = 1;           // write acks needed to settle a round
  // One chain of rounds per target iod, flow-controlled by `window`.
  struct Chain {
    size_t next_issue = 0;  // index of the next round to put on the wire
    u32 inflight = 0;       // issued rounds whose reply has not arrived
    bool stalled = false;   // wire cleared but the window was full
    TimePoint blocked_since = TimePoint::origin();
    // Slot-reuse guard: round k lands in staging slot k mod window, so
    // round k may only be issued once round k - window settled. Under
    // recovery rounds can settle out of order; `floor` is the length of
    // the consecutive settled prefix and issuance requires
    // next_issue < floor + window. With in-order settling (the only
    // possibility when the fault plane is off) this is exactly the
    // inflight < window check.
    size_t floor = 0;
    // Which replica of the chain's set currently serves reads; read
    // failover advances it and the chain's remaining rounds follow.
    u32 replica = 0;
  };
  std::vector<Chain> chains;
  core::OgrOutcome prereg;  // op-wide buffer registration
  u64 total_bytes = 0;
  u64 logical_end = 0;  // for manager size bookkeeping on writes
  u32 window = 1;       // outstanding-round limit (pipeline_depth)
  u32 pending = 0;      // chains still running
  TimePoint max_end = TimePoint::origin();
  Status status;
  bool failed = false;
  IoPhases phases;
  u32 retries = 0;    // recovery retries accumulated across all rounds
  u32 failovers = 0;  // read-failover hops accumulated across all rounds

  // --- Caching tier (populated only when CacheParams::enabled) ----------
  // Copy of the request, kept so the completion hooks can gather/overlay
  // the op's bytes against user memory.
  core::ListIoRequest creq;
  bool wb_flush = false;         // write-back flush: skip the write hooks
  bool cache_insertable = false; // read miss whose bytes re-enter the cache
  // Read: per-stripe write-seq snapshot at issue. The entry is only
  // inserted (and only validates later) if the authority's seq still
  // matches — any write submitted or completed during the flight makes
  // the bytes uninsertable/unservable.
  std::map<u32, u64> cache_seq;
  // Read: minimum header version each stripe's rounds reported serving.
  // The min (not max) is the honest tag: a round served by a legitimately
  // stale replica must produce an entry that fails the version check, not
  // one that borrows a newer round's tag.
  std::map<u32, u64> serve_ver;
};

Client::Client(u32 id, const ModelConfig& cfg, sim::Engine& engine,
               ib::Fabric& fabric, const MetaRegistry& registry,
               std::vector<Iod*> iods, Stats& stats, fault::Injector& faults)
    : id_(id),
      cfg_(cfg),
      engine_(engine),
      fabric_(fabric),
      iods_(std::move(iods)),
      stats_(stats),
      faults_(faults),
      hca_(client_name(id), as_, cfg.reg, stats),
      cache_(hca_),
      registrar_(cache_, cfg.os, core::OgrConfig{}, stats),
      xfer_(fabric, cfg.mem),
      meta_(hca_, engine, stats, faults, &registry, cfg.migration),
      ccache_(cfg.cache, stats) {
  if (cfg.cache.enabled) {
    // Route lease revocations bus -> MetaClient -> cache. Setting the sink
    // before any attach_lease_bus call is what makes the subscription
    // happen at all; cache-off clients leave the bus unobserved.
    meta_.set_lease_sink(
        [this](const LeaseRevoke& rv) { ccache_.on_revoke(rv); });
  }
  ep_.hca = &hca_;
  ep_.registrar = &registrar_;
  ep_.bounce_size = cfg.pvfs.fast_rdma_buffer;
  ep_.bounce_addr = as_.alloc(ep_.bounce_size);
  ib::RegAttempt reg = hca_.register_memory(ep_.bounce_addr, ep_.bounce_size);
  assert(reg.ok());
  ep_.bounce_key = reg.key;
  rtt_.resize(iods_.size());
}

// --- Metadata ----------------------------------------------------------

MetaReply Client::meta_roundtrip(const MetaRequest& rq) {
  MetaClient::Outcome o = meta_.call(rq, max(now_, engine_.now()));
  now_ = max(now_, o.done);
  return std::move(o.reply);
}

Result<OpenFile> Client::create(const std::string& name) {
  return create(name, cfg_.pvfs.stripe_size,
                static_cast<u32>(iods_.size()));
}

Result<OpenFile> Client::create(const std::string& name, u64 stripe_size,
                                u32 iod_count, u32 base_iod) {
  assert(iod_count <= iods_.size());
  MetaRequest rq;
  rq.op = MetaOp::kCreate;
  rq.name = name;
  rq.stripe_size = stripe_size;
  rq.iod_count = iod_count;
  rq.base_iod = base_iod;
  rq.replication_factor = cfg_.replication.factor;
  MetaReply r = meta_roundtrip(rq);
  if (!r.status.is_ok()) return r.status;
  ccache_.put_attr(r.meta, now_);
  return OpenFile{r.meta};
}

Result<OpenFile> Client::open(const std::string& name) {
  // Attribute-cache short-circuit: a valid entry answers the open with no
  // metadata round-trip and no simulated time.
  if (const FileMeta* m = ccache_.lookup_attr(name, max(now_, engine_.now()))) {
    return OpenFile{*m};
  }
  MetaRequest rq;
  rq.op = MetaOp::kOpen;
  rq.name = name;
  MetaReply r = meta_roundtrip(rq);
  if (!r.status.is_ok()) return r.status;
  ccache_.put_attr(r.meta, now_);
  return OpenFile{r.meta};
}

Result<FileMeta> Client::stat(const std::string& name) {
  if (const FileMeta* m = ccache_.lookup_attr(name, max(now_, engine_.now()))) {
    return *m;
  }
  // stat is an open-shaped metadata round-trip.
  MetaRequest rq;
  rq.op = MetaOp::kStat;
  rq.name = name;
  MetaReply r = meta_roundtrip(rq);
  if (!r.status.is_ok()) return r.status;
  ccache_.put_attr(r.meta, now_);
  return r.meta;
}

Status Client::remove(const std::string& name) {
  Result<FileMeta> meta = stat(name);
  if (!meta.is_ok()) return meta.status();
  MetaRequest rq;
  rq.op = MetaOp::kRemove;
  rq.name = name;
  Status r = meta_roundtrip(rq).status;
  PVFSIB_RETURN_IF_ERROR(r);
  // The manager's kRemoved lease revoke (when a bus is attached) already
  // swept every subscribed cache, ours included, synchronously inside the
  // round-trip. This local pass is the bus-less fallback — both calls are
  // idempotent, so double delivery drops nothing twice.
  ccache_.invalidate_name(name);
  ccache_.on_revoke(LeaseRevoke{LeaseRevokeReason::kRemoved, 0, 1, name,
                                meta.value().handle});
  // The manager that served the remove tells every iod to unlink its stripe
  // file; the client returns once all acknowledgements are in.
  Manager& mgr = meta_.route(name);
  TimePoint done = now_;
  for (Iod* iod : iods_) {
    const TimePoint at = fabric_.send_control(
        mgr.hca(), iod->hca(), cfg_.pvfs.request_msg_bytes, now_,
        ib::ControlKind::kRequest);
    Duration unlink = iod->remove_file(meta.value().handle);
    if (meta.value().replication_factor > 1) {
      // Backup copies live under per-stripe shadow handles.
      for (u32 k = 0; k < meta.value().iod_count; ++k) {
        unlink += iod->remove_file(backup_handle(meta.value().handle, k));
      }
    }
    done = max(done, fabric_.send_control(
                         iod->hca(), mgr.hca(), cfg_.pvfs.reply_msg_bytes,
                         at + unlink, ib::ControlKind::kReply));
  }
  advance_to(done);
  return Status::ok();
}

// --- Round splitting ----------------------------------------------------

std::vector<Client::Round> Client::split_rounds(
    const core::ServerSubRequest& sub, u32 chain) const {
  const u64 max_pairs = cfg_.pvfs.max_list_pairs;
  const u64 max_bytes = cfg_.pvfs.staging_buffer;
  std::vector<Round> out;
  Round cur;
  core::MemCursor mem(sub.mem);
  auto flush = [&] {
    if (!cur.accesses.empty()) {
      cur.chain = chain;
      cur.index = out.size();
      out.push_back(std::move(cur));
      cur = Round{};
    }
  };

  for (const Extent& a : sub.file) {
    u64 off = a.offset;
    u64 left = a.length;
    while (left > 0) {
      if (cur.accesses.size() >= max_pairs || cur.bytes >= max_bytes) flush();
      const u64 n = std::min(left, max_bytes - cur.bytes);
      cur.accesses.push_back({off, n});
      mem.take(n, cur.mem);
      cur.bytes += n;
      off += n;
      left -= n;
    }
  }
  flush();
  return out;
}

// --- Operation setup -----------------------------------------------------

void Client::start_op(const OpenFile& file, const core::ListIoRequest& req,
                      const IoOptions& opts, TimePoint start, bool is_write,
                      IoCallback done, bool wb_flush) {
  Status v = core::validate(req);
  if (!v.is_ok()) {
    done(IoResult::instant(v, 0, start));
    return;
  }
  if (ccache_.enabled() && !wb_flush) {
    if (!is_write) {
      if (serve_cached_read(file, req, start, done)) return;
    } else if (ccache_.write_back()) {
      stage_write_back(file, req, start, done);
      return;
    }
  }
  auto op = std::make_shared<OpState>();
  op->file = file;
  op->opts = opts;
  op->is_write = is_write;
  op->done = std::move(done);
  op->start = max(start, engine_.now());
  op->total_bytes = req.bytes();
  op->window = std::max<u32>(1, cfg_.pipeline_depth);
  for (const Extent& e : req.file) {
    op->logical_end = std::max(op->logical_end, e.end());
  }

  // Optimistic Group Registration runs once per operation on the *user's*
  // buffer list (Section 4.3); the per-server slices later hit the pin-down
  // cache. Pack-only transfers (and hybrids that fit the Fast-RDMA bounce
  // buffer) skip registration entirely.
  const auto& pol = op->opts.policy;
  const bool needs_reg =
      pol.scheme == core::XferScheme::kMultipleMessage ||
      pol.scheme == core::XferScheme::kRdmaGatherScatter ||
      (pol.scheme == core::XferScheme::kHybrid &&
       op->total_bytes > cfg_.pvfs.fast_rdma_buffer);
  if (needs_reg) {
    const core::RegStrategy strat =
        pol.scheme == core::XferScheme::kMultipleMessage
            ? core::RegStrategy::kIndividual
            : pol.reg_strategy;
    op->prereg =
        opts.allocation_hint_len > 0
            ? registrar_.acquire_declared(
                  req.mem,
                  Extent{opts.allocation_hint_addr, opts.allocation_hint_len})
            : registrar_.acquire(req.mem, strat);
    if (!op->prereg.ok()) {
      op->done(IoResult::instant(op->prereg.status, 0, op->start));
      return;
    }
    stats_.add(stat::kOgrPreregNs, op->prereg.cost.as_ns());
    op->phases.registration += op->prereg.cost;
  }
  op->launch = op->start + op->prereg.cost;

  const core::StripeMap map(file.meta.stripe_size, file.meta.iod_count);
  const auto subs = core::partition(req, map);
  op->replicated =
      file.meta.replication_factor > 1 && !file.meta.replicas.empty();
  if (op->replicated) {
    const u32 q = file.meta.replication_factor;
    op->quorum = cfg_.replication.write_quorum == 0
                     ? q
                     : std::min(cfg_.replication.write_quorum, q);
  }
  for (const auto& sub : subs) {
    // Logical stripe server -> physical iod, honoring the file's base.
    const u32 primary =
        (file.meta.base_iod + sub.server) % static_cast<u32>(iods_.size());
    op->stripes.push_back(sub.server);
    if (op->replicated) {
      assert(sub.server < file.meta.replicas.size());
      const std::vector<u32>& set = file.meta.replicas[sub.server];
      assert(!set.empty() && set[0] == primary);
      assert(set.size() <= kMaxReplicas);
      op->replica_sets.push_back(set);
    } else {
      op->replica_sets.push_back({primary});
    }
    op->rounds.push_back(
        split_rounds(sub, static_cast<u32>(op->rounds.size())));
  }
  op->chains.resize(subs.size());
  if (op->replicated && !is_write) {
    // Replica-aware placement: start each chain at a replica the staleness
    // map records current, instead of discovering a stale/dead primary via
    // a failed round. Position 0 whenever all replicas are current.
    for (u32 k = 0; k < op->chains.size(); ++k) {
      op->chains[k].replica = pick_read_replica(*op, k);
    }
  }
  if (ccache_.enabled()) {
    op->wb_flush = wb_flush;
    op->creq = req;
    Manager& auth = meta_.authority(file.meta.handle);
    if (is_write) {
      // Submission-time write notice: from this instant no cached entry of
      // the touched stripes validates anywhere, covering the whole flight.
      for (u32 s : op->stripes) auth.bump_data_seq(file.meta.handle, s);
      if (!wb_flush) ccache_.invalidate_extents(file.meta.handle, req.file);
    } else {
      op->cache_insertable = true;
      for (u32 s : op->stripes) {
        op->cache_seq[s] = auth.data_seq(file.meta.handle, s);
      }
    }
  }
  op->pending = static_cast<u32>(subs.size());
  assert(op->pending > 0);
  for (u32 k = 0; k < op->pending; ++k) {
    issue_round(op, k, op->launch);
  }
}

// --- Caching tier ---------------------------------------------------------

bool Client::serve_cached_read(const OpenFile& file,
                               const core::ListIoRequest& req,
                               TimePoint start, const IoCallback& done) {
  const Handle h = file.meta.handle;
  Manager& auth = meta_.authority(h);
  const auto valid = [&](u32 stripe, u64 seq, u64 version) {
    if (seq != auth.data_seq(h, stripe)) return false;
    const Manager::StripeVersionView v = auth.stripe_versions(h, stripe);
    return !v.known || version >= v.latest;
  };
  std::vector<std::byte> bytes;
  if (!ccache_.read_lookup(h, req.file, valid, &bytes)) return false;
  // Full coverage with current tags: hand the bytes over host-side. The
  // list-I/O contract makes the concatenated memory segments correspond
  // byte-for-byte to the concatenated file extents.
  const core::StreamPiece piece{bytes, bytes.size()};
  core::copy_stream({&piece, 1}, as_, req.mem, copy_batch_);
  const TimePoint s = max(start, engine_.now());
  sim::Trace::instance().emitf(
      s, hca_.name(), "read served from cache: %llu B",
      static_cast<unsigned long long>(bytes.size()));
  done(IoResult::instant(Status::ok(), bytes.size(), s));
  return true;
}

void Client::stage_write_back(const OpenFile& file,
                              const core::ListIoRequest& req, TimePoint start,
                              const IoCallback& done) {
  const Handle h = file.meta.handle;
  const std::vector<std::byte> bytes = gather(as_, req.mem);
  const TimePoint s = max(start, engine_.now());
  ccache_.stage_dirty(h, file.meta.stripe_size, file.meta.iod_count, req.file,
                      bytes, s);
  wb_files_[h] = file.meta;
  sim::Trace::instance().emitf(
      s, hca_.name(), "write-back: staged %llu B dirty",
      static_cast<unsigned long long>(bytes.size()));
  if (!wb_timer_armed_[h]) {
    // Bound how long the dirty bytes stay client-local: one flush timer
    // per handle, re-armed on the next staging after it fires.
    wb_timer_armed_[h] = true;
    engine_.schedule_at(s + cfg_.cache.staleness_bound, [this, h] {
      wb_timer_armed_[h] = false;
      start_flush(h, [](IoResult) {});
    });
  }
  done(IoResult::instant(Status::ok(), bytes.size(), s));
}

void Client::start_flush(Handle h, IoCallback done) {
  if (!ccache_.write_back() || !ccache_.has_dirty(h)) {
    done(IoResult::instant(Status::ok(), 0, now_));
    return;
  }
  const auto fit = wb_files_.find(h);
  assert(fit != wb_files_.end());
  const OpenFile file{fit->second};
  auto runs = std::make_shared<std::vector<cache::ClientCache::DirtyRun>>(
      ccache_.dirty_runs(h));
  // The flush is an ordinary write op and sources its payload from client
  // memory like one: copy the dirty runs into a scratch allocation, one
  // memory segment per run, freed when the op completes.
  u64 total = 0;
  for (const auto& r : *runs) total += r.bytes.size();
  const u64 scratch = as_.alloc(total);
  core::ListIoRequest req;
  std::vector<core::StreamPiece> pieces;
  u64 off = 0;
  for (const auto& r : *runs) {
    req.mem.push_back({scratch + off, r.bytes.size()});
    req.file.push_back({r.offset, r.bytes.size()});
    pieces.push_back({r.bytes, r.bytes.size()});
    off += r.bytes.size();
  }
  core::copy_stream(pieces, as_, req.mem, copy_batch_);
  sim::Trace::instance().emitf(
      max(now_, engine_.now()), hca_.name(),
      "write-back: flushing %llu B in %zu runs",
      static_cast<unsigned long long>(total), runs->size());
  start_op(
      file, req, IoOptions{}, max(now_, engine_.now()), /*is_write=*/true,
      [this, h, runs, scratch, done = std::move(done)](IoResult r) {
        (void)as_.free_at(scratch);
        if (r.ok()) {
          Manager& auth = meta_.authority(h);
          const auto tags = [&](u32 stripe, u64* seq, u64* version) {
            *seq = auth.data_seq(h, stripe);
            const Manager::StripeVersionView v = auth.stripe_versions(h, stripe);
            *version = v.known ? v.latest : 0;
          };
          ccache_.flush_applied(h, *runs, tags);
        }
        done(r);
      },
      /*wb_flush=*/true);
}

void Client::cache_op_complete(OpState& op) {
  if (op.failed) return;
  const Handle h = op.file.meta.handle;
  Manager& auth = meta_.authority(h);
  if (op.is_write) {
    // Completion-time write notice: a read that raced this write and
    // snapshotted the submission seq can no longer insert (or validate)
    // its possibly pre-write bytes.
    std::map<u32, u64> done_seq;
    for (u32 s : op.stripes) done_seq[s] = auth.bump_data_seq(h, s);
    if (op.wb_flush) return;  // flush_applied re-tags the dirty entries
    const auto tags = [&](u32 stripe, u64* seq, u64* version) {
      const auto it = done_seq.find(stripe);
      *seq = it != done_seq.end() ? it->second : auth.data_seq(h, stripe);
      const Manager::StripeVersionView v = auth.stripe_versions(h, stripe);
      *version = v.known ? v.latest : 0;
    };
    ccache_.insert_clean(h, op.file.meta.stripe_size, op.file.meta.iod_count,
                         op.creq.file, gather(as_, op.creq.mem), tags);
    return;
  }
  if (ccache_.write_back() && ccache_.has_dirty(h)) {
    // Read-your-writes: overlay the pending dirty bytes over what the wire
    // just delivered before the caller sees it, at every stream position
    // the request names them.
    core::MemCursor mem(op.creq.mem);
    core::MemSegmentList dst;
    std::vector<core::StreamPiece> pieces;
    u64 at = 0;  // stream bytes the cursor has passed
    ccache_.overlay_dirty(
        h, op.creq.file, [&](u64 pos, std::span<const std::byte> b) {
          assert(pos >= at);
          mem.skip(pos - at);
          mem.take(b.size(), dst);
          pieces.push_back({b, b.size()});
          at = pos + b.size();
        });
    core::copy_stream(pieces, as_, dst, copy_batch_);
  }
  if (!op.cache_insertable) return;
  for (u32 s : op.stripes) {
    // A write submitted or completed during the flight: the bytes in user
    // memory may predate it. Skip the insert wholesale — a snapshot-tagged
    // entry would only be dropped at its first lookup anyway.
    if (auth.data_seq(h, s) != op.cache_seq[s]) return;
  }
  const auto tags = [&](u32 stripe, u64* seq, u64* version) {
    const auto it = op.cache_seq.find(stripe);
    *seq = it != op.cache_seq.end() ? it->second : 0;
    const auto vt = op.serve_ver.find(stripe);
    *version = vt != op.serve_ver.end() ? vt->second : 0;
  };
  ccache_.insert_clean(h, op.file.meta.stripe_size, op.file.meta.iod_count,
                       op.creq.file, gather(as_, op.creq.mem), tags);
}

IoResult Client::flush(const OpenFile& file) {
  IoResult res = IoResult::instant(Status::ok(), 0, now_);
  if (!ccache_.write_back() || !ccache_.has_dirty(file.meta.handle)) {
    return res;
  }
  bool done = false;
  start_flush(file.meta.handle, [&](IoResult r) {
    res = r;
    done = true;
  });
  engine_.run_until([&] { return done; });
  advance_to(res.end);
  return res;
}

IoResult Client::close(const OpenFile& file) {
  IoResult r = flush(file);
  ccache_.drop_file(file.meta.handle);
  return r;
}

// --- Round chains ---------------------------------------------------------

u32 Client::current_target(const OpState& op, const Round& r) const {
  const std::vector<u32>& set = op.replica_sets[r.chain];
  return op.is_write ? set[0] : set[op.chains[r.chain].replica];
}

// --- Version plane --------------------------------------------------------

u32 Client::pick_read_replica(const OpState& op, u32 chain) {
  const std::vector<u32>& set = op.replica_sets[chain];
  if (set.size() <= 1) return 0;
  const Manager::StripeVersionView v =
      meta_.authority(op.file.meta.handle)
          .stripe_versions(op.file.meta.handle, op.stripes[chain]);
  // Candidates the staleness map does not rule out. An unknown stripe (no
  // replicated write ever recorded) keeps everyone eligible.
  std::vector<u32> current;
  for (u32 j = 0; j < set.size(); ++j) {
    if (!v.known || j >= v.replica_versions.size() ||
        v.replica_versions[j] >= v.latest) {
      current.push_back(j);
    }
  }
  if (current.empty()) return 0;  // everyone trails: start at the primary
  u32 choice = current[0];
  if (cfg_.replication.read_bias && current.size() > 1) {
    // Slow-replica bias: among current replicas, prefer the lowest srtt
    // estimate. An unseeded estimator counts as zero (assume fast), which
    // keeps the primary preferred until evidence says otherwise.
    auto est = [&](u32 j) {
      const RttEstimate& e = rtt_[set[j]];
      return e.seeded ? e.srtt : Duration::zero();
    };
    for (u32 j : current) {
      if (est(j) < est(choice)) choice = j;
    }
  }
  if (choice != 0 && v.known && !v.replica_versions.empty() &&
      v.replica_versions[0] < v.latest) {
    // The primary would have served stale data; placement skipped it
    // without burning a failover.
    stats_.add(stat::kPvfsStaleReadsAvoided);
    sim::Trace::instance().emitf(
        engine_.now(), hca_.name(),
        "read placement: stripe %u primary iod%u stale (v%llu < v%llu), "
        "serving from iod%u",
        op.stripes[chain], set[0],
        static_cast<unsigned long long>(v.replica_versions[0]),
        static_cast<unsigned long long>(v.latest), set[choice]);
  }
  return choice;
}

void Client::read_repair(std::shared_ptr<OpState> op, const Round& r,
                         u64 serving_version, TimePoint t) {
  if (!op->replicated) return;
  const std::vector<u32>& set = op->replica_sets[r.chain];
  const u32 serving = op->chains[r.chain].replica;
  const u32 stripe = op->stripes[r.chain];
  // The serving replica demonstrably holds its header's version — a direct
  // observation of an applied header, trusted regardless of which manager
  // epoch minted it (note_epoch 0).
  Manager& authority = meta_.authority(op->file.meta.handle);
  authority.note_replica_version(op->file.meta.handle, stripe, set[serving],
                                 serving_version);
  // Anything we cached below the observed serving version is provably
  // stale now; drop it eagerly instead of waiting for a hit-time check.
  ccache_.note_version(op->file.meta.handle, stripe, serving_version);
  if (serving_version == 0) return;
  // Every replica whose recorded version trails the one just served gets
  // an async repair write of the bytes just read. That heals content
  // opportunistically, but only write acks and resync mark a replica
  // current in the staleness map: a repair covers one round's byte range,
  // not necessarily everything its version covers.
  const Manager::StripeVersionView v =
      authority.stripe_versions(op->file.meta.handle, stripe);
  // Analytical background transfer: pack copy, then the wire at the resync
  // rate cap. Serialized per target iod so repair traffic never bursts.
  const double bw =
      std::min(cfg_.replication.resync_bandwidth, cfg_.net.rdma_write_bw);
  const Duration xfer = cfg_.mem.copy_cost(r.bytes) +
                        cfg_.net.rdma_write_latency +
                        transfer_time(r.bytes, bw);
  for (u32 rep = 0; rep < set.size(); ++rep) {
    if (rep == serving) continue;
    const u64 held =
        rep < v.replica_versions.size() ? v.replica_versions[rep] : 0;
    if (held >= serving_version) continue;
    const u32 target = set[rep];
    const Handle lh = local_handle(op->file.meta.handle, stripe, rep);
    // Snapshot the just-read bytes now: the op's buffers belong to the
    // caller and may be rewritten the moment the read completes. The
    // repair stream is round-shaped (matches r.accesses in order).
    auto data =
        std::make_shared<std::vector<std::byte>>(gather(as_, r.mem));
    TimePoint start = t;
    const auto it = repair_busy_until_.find(target);
    if (it != repair_busy_until_.end()) start = max(start, it->second);
    const TimePoint arrive = start + xfer;
    repair_busy_until_[target] = arrive;
    sim::Trace::instance().emitf(
        t, hca_.name(), "read-repair: round %zu -> iod%u (v%llu, %llu B)",
        r.index + 1, target, static_cast<unsigned long long>(serving_version),
        static_cast<unsigned long long>(r.bytes));
    engine_.schedule_at(arrive, [this, op, &r, target, lh, serving_version,
                                 data, arrive] {
      if (faults_.enabled() && faults_.iod_down(target, arrive)) {
        // The stale replica is (still) down: drop the repair silently;
        // resync or a later read heals it.
        return;
      }
      iods_[target]->apply_repair(lh, r.accesses,
                                  {data->data(), data->size()},
                                  serving_version, arrive);
      // Deliberately NOT noted with the manager: this repair covers one
      // round's byte range, while the version covers everything written
      // up to it — marking the replica current after a partial heal would
      // misroute future reads. Only write acks and resync mark current.
      stats_.add(stat::kPvfsReadRepairs);
    });
  }
}

void Client::finish_read_round(std::shared_ptr<OpState> op, Round& r,
                               u64 serving_version, u64 lost_acked,
                               TimePoint t) {
  if (op->cache_insertable) {
    // Tag the stripe with the *minimum* version any of its rounds served
    // (see OpState::serve_ver): a stale-replica round must yield an entry
    // the version check rejects.
    const auto [it, fresh] =
        op->serve_ver.emplace(op->stripes[r.chain], serving_version);
    if (!fresh) it->second = std::min(it->second, serving_version);
  }
  if (r.settled) return;  // a concurrent attempt already settled the round
  // Lost write: downgrade the map to the observed header and read the
  // round from another replica.
  const auto lost_write = [&](u32 from_iod, u32 to_iod) {
    meta_.authority(op->file.meta.handle)
        .note_replica_observed(op->file.meta.handle, op->stripes[r.chain],
                               from_iod, serving_version);
    stats_.add(stat::kPvfsCorruptionsDetected);
    stats_.add(stat::kPvfsCorruptReadsFailedOver);
    sim::Trace::instance().emitf(
        t, hca_.name(),
        "read round %zu: iod%u header v%llu but acked v%llu (LOST WRITE), "
        "failing over to iod%u",
        r.index + 1, from_iod,
        static_cast<unsigned long long>(serving_version),
        static_cast<unsigned long long>(lost_acked), to_iod);
  };
  if (lost_acked != 0 && fail_over(op, r, t, lost_write)) return;
  read_repair(op, r, serving_version, t);
  settle_round(op, r, t, Status::ok());
}

u64 Client::acked_beyond_header(const OpState& op, const Round& r, u32 rep,
                                u64 header) {
  if (!op.replicated) return 0;
  const Manager::StripeVersionView v =
      meta_.authority(op.file.meta.handle)
          .stripe_versions(op.file.meta.handle, op.stripes[r.chain]);
  if (!v.known || rep >= v.replica_versions.size() ||
      v.replica_versions[rep] < v.latest || header >= v.latest) {
    return 0;
  }
  return v.replica_versions[rep];
}

// --- Adaptive round timeouts ---------------------------------------------

void Client::note_rtt(u32 iod_id, Duration sample) {
  RttEstimate& e = rtt_[iod_id];
  if (!e.seeded) {
    // RFC-6298-style seeding: srtt = S, rttvar = S/2.
    e.seeded = true;
    e.srtt = sample;
    e.rttvar = sample / 2;
    return;
  }
  // Jacobson/Karels: alpha = 1/8, beta = 1/4.
  const Duration err = sample > e.srtt ? sample - e.srtt : e.srtt - sample;
  e.rttvar = e.rttvar - e.rttvar / 4 + err / 4;
  e.srtt = e.srtt - e.srtt / 8 + sample / 8;
}

Duration Client::iod_timeout(u32 iod_id) const {
  const FaultConfig& fc = faults_.config();
  const RttEstimate& e = rtt_[iod_id];
  if (!e.seeded) return fc.round_timeout;
  Duration t = e.srtt + e.rttvar * fc.timeout_var_mult;
  t = max(t, fc.timeout_min);
  return min(t, fc.timeout_max);
}

Duration Client::round_timeout_for(const OpState& op, const Round& r) const {
  const FaultConfig& fc = faults_.config();
  if (!fc.adaptive_timeout) return fc.round_timeout;
  if (op.is_write && op.replicated) {
    // The round settles on a quorum of replicas; the slowest estimate
    // bounds how long a fan-out may legitimately take.
    Duration t = Duration::zero();
    for (u32 iod_id : op.replica_sets[r.chain]) {
      t = max(t, iod_timeout(iod_id));
    }
    return t;
  }
  return iod_timeout(current_target(op, r));
}

void Client::issue_round(std::shared_ptr<OpState> op, u32 chain,
                         TimePoint t) {
  OpState::Chain& ch = op->chains[chain];
  assert(ch.next_issue < op->rounds[chain].size());
  assert(ch.inflight < op->window);
  assert(ch.next_issue < ch.floor + op->window);
  Round& r = op->rounds[chain][ch.next_issue++];
  ++ch.inflight;
  if (op->window > 1) stats_.set_max(stat::kPvfsRoundsInflightMax, ch.inflight);
  r.first_issue = t;
  mint_round(*op, r);
  run_round(std::move(op), r, t);
}

void Client::mint_round(const OpState& op, Round& r) {
  r.seq = next_round_seq_++;
  r.acked.reset();
  r.data_landed.reset();
  if (op.replicated && op.is_write) {
    // Mint this round's per-stripe version (free piggyback on the
    // metadata plane). Replays reuse it — a round is one version — and
    // carry the minting manager's epoch so iods can fence the mint if a
    // takeover supersedes it mid-flight.
    Manager& authority = meta_.authority(op.file.meta.handle);
    r.version = authority.allocate_stripe_version(op.file.meta.handle,
                                                  op.stripes[r.chain]);
    r.epoch = authority.epoch();
  }
}

void Client::wire_clears(std::shared_ptr<OpState> op, u32 chain,
                         TimePoint t) {
  if (op->window == 1) return;
  engine_.schedule_at(t, [this, op, chain, t] {
    OpState::Chain& ch = op->chains[chain];
    if (op->failed || ch.next_issue >= op->rounds[chain].size()) return;
    if (ch.inflight >= op->window || ch.next_issue >= ch.floor + op->window) {
      // Window full (or the next slot's previous occupant has not
      // settled): remember the stall; settle_round() issues on the next
      // reply and charges the blocked time to IoPhases::stall.
      if (!ch.stalled) {
        ch.stalled = true;
        ch.blocked_since = t;
      }
      return;
    }
    issue_round(op, chain, t);
  });
}

// --- Recovery -------------------------------------------------------------

void Client::arm_round_timer(std::shared_ptr<OpState> op, Round& r,
                             TimePoint t) {
  const TimePoint deadline = t + round_timeout_for(*op, r);
  r.timer = engine_.schedule_at(deadline, [this, op, &r] {
    r.timer.reset();
    if (r.settled) return;
    stats_.add(stat::kPvfsTimeouts);
    sim::Trace::instance().emitf(
        engine_.now(), hca_.name(), "iod%u round %zu attempt %u timed out",
        current_target(*op, r), r.index + 1, r.attempts);
    retry_or_fail(op, r, engine_.now(),
                  unavailable("round timed out waiting for reply"));
  });
}

void Client::disarm_timer(Round& r) {
  if (!r.timer) return;
  engine_.cancel(*r.timer);
  r.timer.reset();
}

void Client::settle_round(std::shared_ptr<OpState> op, Round& r, TimePoint t,
                          Status status) {
  if (r.settled) return;  // a concurrent attempt already settled it
  r.settled = true;
  disarm_timer(r);
  op->retries += r.attempts - 1;
  op->failovers += r.failovers;
  if (faults_.enabled()) {
    faults_.note_round_latency(t - r.first_issue);
    // Replicated writes feed the estimator per replica ack instead
    // (write_replica_done); a settle from an older attempt's late
    // completion can predate the newest issue, so skip those samples.
    if (status.is_ok() && faults_.config().adaptive_timeout &&
        !(op->is_write && op->replicated) && t >= r.last_issue) {
      note_rtt(current_target(*op, r), t - r.last_issue);
    }
  }
  // The round leaves its chain's window.
  OpState::Chain& ch = op->chains[r.chain];
  const std::vector<Round>& rounds = op->rounds[r.chain];
  assert(ch.inflight > 0);
  --ch.inflight;
  while (ch.floor < rounds.size() && rounds[ch.floor].settled) ++ch.floor;
  if (!status.is_ok() && !op->failed) {
    op->failed = true;
    op->status = status;
  }
  const bool more = !op->failed && ch.next_issue < rounds.size();
  // At window 1 replies are the only issuance trigger (classic lockstep
  // PVFS). At wider windows issuance normally rides the wire-cleared
  // trigger; a reply only issues when that trigger already fired into a
  // full window (the chain is stalled). Under an active fault plane
  // rounds settle out of order, so a settle is also allowed to issue
  // directly — the wire-cleared trigger for the freed slot may be long
  // gone.
  if (more && ch.inflight < op->window &&
      ch.next_issue < ch.floor + op->window &&
      (op->window == 1 || ch.stalled || faults_.enabled())) {
    if (ch.stalled) {
      ch.stalled = false;
      op->phases.stall += t - ch.blocked_since;
      stats_.add(stat::kPvfsPipelineStalls);
    }
    issue_round(op, r.chain, t);
    // The round just issued finishes the chain when it settles, which may
    // already have happened inside issue_round (a terminal failure).
    return;
  }
  if (ch.inflight > 0 || (!op->failed && ch.next_issue < rounds.size())) {
    return;  // chain still running
  }
  op->max_end = max(op->max_end, t);
  if (--op->pending > 0) return;
  if (!op->prereg.keys.empty()) registrar_.release(op->prereg);
  if (op->is_write && !op->failed) {
    meta_.authority(op->file.meta.handle)
        .note_written(op->file.meta.handle, op->logical_end);
  }
  if (ccache_.enabled()) cache_op_complete(*op);
  IoResult result;
  result.status = op->status;
  result.bytes = op->failed ? 0 : op->total_bytes;
  result.start = op->start;
  result.end = op->max_end;
  result.phases = op->phases;
  result.retries = op->retries;
  result.failovers = op->failovers;
  if (sim::Trace::instance().enabled()) {
    sim::Trace::instance().emitf(
        result.end, hca_.name(), "%s op complete: %llu B in %s",
        op->is_write ? "write" : "read",
        static_cast<unsigned long long>(result.bytes),
        result.elapsed().to_string().c_str());
  }
  op->done(result);
}

void Client::retry_or_fail(std::shared_ptr<OpState> op, Round& r, TimePoint t,
                           Status why) {
  if (r.settled) return;
  disarm_timer(r);
  if (why.code() == ErrorCode::kCorrupt && !op->is_write) {
    // The serving replica's bytes failed checksum verification. Retrying
    // the same copy is pointless (the bytes are what they are): flag it
    // with the staleness map — it becomes a resync target and placement
    // stops routing to it — and fail the chain over to another replica.
    meta_.authority(op->file.meta.handle)
        .note_replica_corrupt(op->file.meta.handle, op->stripes[r.chain],
                              current_target(*op, r));
    const auto corrupt = [&](u32 from_iod, u32 to_iod) {
      stats_.add(stat::kPvfsCorruptReadsFailedOver);
      sim::Trace::instance().emitf(
          t, hca_.name(),
          "read round %zu: iod%u corrupt, failing over to iod%u",
          r.index + 1, from_iod, to_iod);
    };
    // No replica left to serve intact bytes: terminal.
    if (!fail_over(op, r, t, corrupt)) settle_round(op, r, t, std::move(why));
    return;
  }
  // Transient errors are only minted by the fault plane; on a healthy run
  // any failure is a real (terminal) one.
  const bool retryable = faults_.enabled() &&
                         (why.code() == ErrorCode::kUnavailable ||
                          why.code() == ErrorCode::kResourceExhausted);
  if (!retryable) {
    settle_round(op, r, t, std::move(why));
    return;
  }
  const FaultConfig& fc = faults_.config();
  // The budget counts attempts since the last failover: a fresh replica
  // deserves a fresh budget.
  if (r.attempts - 1 - r.budget_base >= fc.max_retries) {
    // The serving replica exhausted its budget; the next one is presumed
    // healthy, so the round re-issues immediately.
    const auto exhausted = [&](u32 from_iod, u32 to_iod) {
      stats_.add(stat::kPvfsRetries);
      sim::Trace::instance().emitf(
          t, hca_.name(), "read round %zu failing over iod%u -> iod%u",
          r.index + 1, from_iod, to_iod);
    };
    if (fail_over(op, r, t, exhausted)) return;
    const u32 nrep = static_cast<u32>(op->replica_sets[r.chain].size());
    if (!op->is_write && op->replicated && nrep > 1) {
      // Failover ran out of replicas: every member of the chain burned a
      // full retry budget. Distinct terminal status so callers can tell
      // "the whole chain is gone" from a single overloaded server.
      settle_round(op, r, t,
                   all_replicas_failed(
                       "read exhausted all " + std::to_string(nrep) +
                       " replicas (" + std::to_string(r.attempts - 1) +
                       " attempts, " + std::to_string(r.failovers) +
                       " failovers): " + why.message()));
      return;
    }
    settle_round(op, r, t,
                 unavailable("round failed after " +
                             std::to_string(r.attempts - 1) +
                             " retries: " + why.message()));
    return;
  }
  stats_.add(stat::kPvfsRetries);
  // The backoff exponent restarts with the budget at each failover.
  const Duration backoff =
      capped_backoff(fc.backoff_base, fc.backoff_mult, fc.backoff_cap,
                     r.attempts - r.budget_base);
  ++r.attempts;
  if (sim::Trace::instance().enabled()) {
    sim::Trace::instance().emitf(
        t, hca_.name(), "iod%u round %zu retry %u in %s (%s)",
        current_target(*op, r), r.index + 1, r.attempts - 1,
        backoff.to_string().c_str(), why.message().c_str());
  }
  engine_.schedule_at(t + backoff, [this, op, &r] {
    if (r.settled) return;
    run_round(op, r, engine_.now());
  });
}

bool Client::fail_over(std::shared_ptr<OpState> op, Round& r, TimePoint t,
                       const std::function<void(u32, u32)>& note) {
  const std::vector<u32>& set = op->replica_sets[r.chain];
  const u32 nrep = static_cast<u32>(set.size());
  if (op->is_write || !op->replicated || r.failovers + 1 >= nrep) {
    return false;
  }
  disarm_timer(r);  // the re-issue arms a fresh one
  OpState::Chain& ch = op->chains[r.chain];
  u32 next = (ch.replica + 1) % nrep;
  for (u32 i = 1; i < nrep; ++i) {
    const u32 cand = (ch.replica + i) % nrep;
    if (!(faults_.enabled() && faults_.iod_down(set[cand], t))) {
      next = cand;
      break;
    }
  }
  const u32 from_iod = set[ch.replica];
  ch.replica = next;
  ++r.failovers;
  r.budget_base = r.attempts;
  ++r.attempts;
  stats_.add(stat::kPvfsFailovers);
  note(from_iod, set[next]);
  run_round(op, r, t);
  return true;
}

// --- Attempts --------------------------------------------------------------

void Client::run_round(std::shared_ptr<OpState> op, Round& r, TimePoint t) {
  if (faults_.enabled()) arm_round_timer(op, r, t);
  r.last_issue = t;
  t += cfg_.pvfs.client_request_cpu;
  if (!op->is_write) {
    run_read_round(std::move(op), r, t);
    return;
  }
  const u32 nrep = static_cast<u32>(op->replica_sets[r.chain].size());
  for (u32 rep = 0; rep < nrep; ++rep) {
    // Replays only re-fan to replicas that never acked; the acked ones
    // already hold (and applied) the data.
    if (!r.acked[rep]) run_write_replica(op, r, rep, t);
  }
}

Client::SentRequest Client::send_request(const OpState& op, const Round& r,
                                         u32 rep, TimePoint t) {
  SentRequest out;
  out.iod_id = op.replica_sets[r.chain][rep];
  RoundRequest& rr = out.rr;
  // A backup copy lives under the stripe's shadow handle and in its own
  // staging-slot region: the target iod also serves a neighbour stripe's
  // primary chain for this client, and the two must not share local files,
  // staging buffers, or the (client, slot) replay-dedupe log.
  rr.handle = local_handle(op.file.meta.handle, op.stripes[r.chain], rep);
  rr.client = id_;
  rr.slot = rep * op.window + static_cast<u32>(r.index % op.window);
  rr.round_seq = r.seq;
  rr.version = r.version;
  rr.epoch = r.epoch;
  // Partial-round restart: an earlier attempt's payload already landed in
  // this replica's staging slot (and was applied — data arrival and the
  // disk phase are atomic at the iod), so the replay carries no data
  // phase; the iod dedupes it by round_seq and just acks.
  rr.data_staged = r.data_landed[rep];
  rr.is_write = op.is_write;
  rr.sync = op.opts.sync;
  rr.use_ads = op.opts.use_ads;
  rr.accesses = r.accesses;
  stats_.add(stat::kPvfsRequest);
  const u64 req_bytes =
      cfg_.pvfs.request_msg_bytes +
      r.accesses.size() * cfg_.pvfs.list_pair_wire_bytes;
  out.arrive = fabric_.send_control(hca_, iods_[out.iod_id]->hca(), req_bytes,
                                    t, ib::ControlKind::kRequest);
  // Fault plane: the request may vanish (random drop, scheduled drop, or
  // a crashed iod). The wire time was spent; nothing downstream happens
  // and the round timer drives the replay.
  out.lost = faults_.request_lost(out.iod_id, out.arrive);
  if (out.lost) {
    sim::Trace::instance().emitf(out.arrive, hca_.name(),
                                 "-> iod%u round %zu request lost",
                                 out.iod_id, r.index + 1);
  }
  return out;
}

bool Client::reply_lost(const Round& r, u32 iod_id, TimePoint at) {
  if (!faults_.reply_lost(iod_id, at)) return false;
  sim::Trace::instance().emitf(at, hca_.name(), "iod%u round %zu reply lost",
                               iod_id, r.index + 1);
  return true;
}

// --- Write rounds --------------------------------------------------------

void Client::write_replica_done(std::shared_ptr<OpState> op, Round& r,
                                u32 rep, TimePoint t,
                                const Iod::WriteService& svc,
                                u64 attempt_seq) {
  if (!op->replicated) {
    settle_round(op, r, t, Status::ok());
    return;
  }
  // An ack from an attempt a re-mint has since superseded (its seq is not
  // the round's current one) proves nothing about the current mint's fate.
  if (attempt_seq != r.seq) return;
  if (svc.epoch_rejected) {
    if (r.settled) return;  // quorum settled before the fence was seen
    // The iod landed the bytes but fenced the version out of the header: a
    // takeover superseded the minting manager mid-flight. The round cannot
    // make progress under the dead mint, so re-mint version+epoch from the
    // current authority and replay everywhere under a *fresh* seq: the old
    // seq sits in the iods' dedupe logs and a same-seq replay would be
    // acked without re-running the disk phase — the header would never
    // move. A fresh seq also means the staged-payload shortcut no longer
    // applies (the replay carries data again), so data_landed resets too.
    disarm_timer(r);
    mint_round(*op, r);
    ++r.attempts;
    stats_.add(stat::kPvfsVersionRemints);
    stats_.add(stat::kPvfsRetries);
    sim::Trace::instance().emitf(
        t, hca_.name(),
        "write round %zu: mint fenced by epoch, re-minting v%llu "
        "(epoch %llu) and replaying",
        r.index + 1, static_cast<unsigned long long>(r.version),
        static_cast<unsigned long long>(r.epoch));
    run_round(op, r, t);
    return;
  }
  if (r.acked[rep]) return;  // duplicate ack of one replica
  r.acked[rep] = true;
  // Record the ack with the staleness map even when the quorum already
  // settled the round: a slow-but-alive replica that acks late is current,
  // not stale, and must stay eligible for read placement. The note carries
  // the round's mint epoch; the manager fences notes whose epoch a
  // takeover has superseded.
  const u64 version = svc.ack_version != 0 ? svc.ack_version : r.version;
  meta_.authority(op->file.meta.handle)
      .note_replica_version(op->file.meta.handle, op->stripes[r.chain],
                            op->replica_sets[r.chain][rep], version, r.epoch);
  ccache_.note_version(op->file.meta.handle, op->stripes[r.chain], version);
  if (r.settled) return;  // late ack after quorum settle
  if (r.acked.count() == 1) r.first_ack = t;
  if (faults_.enabled() && faults_.config().adaptive_timeout &&
      t >= r.last_issue) {
    note_rtt(op->replica_sets[r.chain][rep], t - r.last_issue);
  }
  if (r.acked.count() < op->quorum) return;  // timer stays armed for the rest
  if (op->quorum > 1 && t > r.first_ack) stats_.add(stat::kPvfsQuorumWaits);
  settle_round(op, r, t, Status::ok());
}

void Client::run_write_replica(std::shared_ptr<OpState> op, Round& r,
                               u32 rep, TimePoint t0) {
  const u32 iod_id = op->replica_sets[r.chain][rep];
  Iod& iod = *iods_[iod_id];
  const bool staged = r.data_landed[rep];
  const bool eager =
      !staged && fast_rdma(cfg_.pvfs, op->opts.policy, r.bytes);
  if (rep > 0) stats_.add(stat::kPvfsReplicaWrites);
  if (staged) {
    stats_.add(stat::kPvfsPartialRestarts);
    sim::Trace::instance().emitf(
        t0, hca_.name(),
        "-> iod%u write round %zu replay, payload staged (wire skipped)",
        iod_id, r.index + 1);
  } else {
    sim::Trace::instance().emitf(
        t0, hca_.name(), "-> iod%u write round %zu/%zu: %zu pairs, %llu B (%s)",
        iod_id, r.index + 1, op->rounds[r.chain].size(), r.accesses.size(),
        static_cast<unsigned long long>(r.bytes),
        eager ? "fast-rdma eager" : "rendezvous");
  }
  SentRequest req = send_request(*op, r, rep, t0);
  TimePoint data_ready = req.arrive;
  core::TransferOutcome push;
  TimePoint push_start = t0;
  if (eager) {
    // Fast RDMA: pack into the pre-registered bounce buffer and write it
    // into the iod's staging buffer alongside the request.
    core::TransferPolicy p = op->opts.policy;
    p.scheme = core::XferScheme::kPackUnpack;
    p.pack_preregistered = true;
    push = xfer_.push(ep_, r.mem, iod.staging(id_, req.rr.slot), t0, p);
    data_ready = max(push.complete, req.arrive);
  }
  if (req.lost) {
    // The iod never saw the request, so no ack ever comes. Eager data rode
    // along with it: the client still paid for that push.
    if (eager) charge_transfer(op->phases, push, push_start);
    return;
  }
  if (!staged) {
    if (!eager) {
      // Rendezvous: the iod acknowledges buffer availability, then the
      // client pushes with the configured scheme.
      push_start = fabric_.send_control(
          iod.hca(), hca_, cfg_.pvfs.reply_msg_bytes,
          req.arrive + cfg_.pvfs.iod_request_cpu, ib::ControlKind::kReply);
      push = xfer_.push(ep_, r.mem, iod.staging(id_, req.rr.slot), push_start,
                        op->opts.policy);
      data_ready = push.complete;
    }
    if (!push.ok()) {
      retry_or_fail(op, r, data_ready, push.status);
      return;
    }
    charge_transfer(op->phases, push, push_start);
  }

  // Server disk phase begins when the data has landed.
  engine_.schedule_at(data_ready, [this, op, &r, rep, rr = std::move(req.rr),
                                   &iod, iod_id, data_ready] {
    if (faults_.enabled() && faults_.iod_down(iod_id, data_ready)) {
      // The iod crashed between accepting the request and the data
      // landing: the round dies on the server floor; the timer replays it.
      stats_.add(stat::kFaultIodDownDrop);
      sim::Trace::instance().emitf(data_ready, hca_.name(),
                                   "iod%u down, round %zu data dropped",
                                   iod_id, r.index + 1);
      return;
    }
    r.data_landed[rep] = true;
    const Iod::WriteService svc =
        iod.write_round(rr, data_ready + cfg_.pvfs.iod_request_cpu);
    op->phases.disk += svc.disk_cost;
    stats_.add(stat::kPvfsReply);
    auto send_reply = [this, op, &r, rep, &iod, iod_id, svc,
                       attempt_seq = rr.round_seq] {
      const TimePoint t_reply =
          fabric_.send_control(iod.hca(), hca_, cfg_.pvfs.reply_msg_bytes,
                               svc.done, ib::ControlKind::kReply);
      // A lost ack: the write applied, and the replay is recognised by
      // round_seq at the iod and acked without re-running the disk. The
      // version note rides the ack, so it is lost with it.
      if (reply_lost(r, iod_id, svc.done)) return;
      engine_.schedule_at(t_reply, [this, op, &r, rep, t_reply, svc,
                                    attempt_seq] {
        write_replica_done(op, r, rep, t_reply, svc, attempt_seq);
      });
    };
    if (op->replica_sets[r.chain].size() > 1) {
      // NIC occupancy is booked in call order, so a replica fan whose disk
      // phases diverge (one copy on a degraded disk) must issue its reply
      // sends in nondecreasing virtual time or the slow copy's in-flight
      // ack time leaks into the fast copy's. Factor-1 chains keep the
      // inline call: one reply per round, issue order already matches.
      engine_.schedule_at(svc.done, send_reply);
    } else {
      send_reply();
    }
  });
  // With the data phase off the wire, the client NIC is free: a wider
  // window may put the next round's request on the wire while this round's
  // disk phase and reply are still pending. The primary's data phase
  // stands in for the whole fan (backup pushes start in lockstep).
  if (rep == 0 && !staged) wire_clears(op, r.chain, data_ready);
}

// --- Read rounds -----------------------------------------------------

void Client::run_read_round(std::shared_ptr<OpState> op, Round& r,
                            TimePoint t0) {
  const auto& pol = op->opts.policy;
  const bool fast = fast_rdma(cfg_.pvfs, pol, r.bytes);
  const bool direct =
      !fast && op->opts.direct_read_return && r.mem.size() == 1 &&
      (pol.scheme == core::XferScheme::kHybrid ||
       pol.scheme == core::XferScheme::kRdmaGatherScatter);
  const ReadReturn path = fast ? ReadReturn::kFastBounce
                          : direct ? ReadReturn::kDirectGather
                                   : ReadReturn::kClientPull;

  TimePoint t_client = t0;
  u64 dest = 0;
  u32 rkey = 0;
  u32 release_key = 0;
  if (fast) {
    dest = ep_.bounce_addr;
    rkey = ep_.bounce_key;
  } else if (direct) {
    // Pin the single destination buffer and ship its rkey in the request.
    ib::MrCache::Lookup lk = cache_.acquire(r.mem[0].addr, r.mem[0].length);
    if (!lk.ok()) {
      retry_or_fail(op, r, t_client, lk.status);
      return;
    }
    t_client += lk.cost;
    op->phases.registration += lk.cost;
    dest = r.mem[0].addr;
    rkey = lk.key;
    release_key = lk.key;
  }

  // Reads are served by whichever replica the chain currently points at
  // (the primary until a failover moves it); a backup serves from its
  // shadow-handle local file through its own staging-slot region.
  const u32 rep = op->chains[r.chain].replica;
  SentRequest req = send_request(*op, r, rep, t_client);
  if (req.lost) {
    // The timer drives the replay, which pins its own destination key.
    if (release_key != 0) cache_.release(release_key);
    return;
  }
  Iod& iod = *iods_[req.iod_id];
  engine_.schedule_at(req.arrive, [this, op, &r, rep, rr = std::move(req.rr),
                                   &iod, iod_id = req.iod_id,
                                   t_req = req.arrive, path, dest, rkey,
                                   release_key] {
    const TimePoint t_svc = t_req + cfg_.pvfs.iod_request_cpu;
    Iod::ReadService svc = iod.read_round(rr, t_svc, path, &hca_, dest, rkey);
    stats_.add(stat::kPvfsReply);
    if (!svc.ok()) {
      if (release_key != 0) cache_.release(release_key);
      retry_or_fail(op, r, svc.ready, svc.status);
      return;
    }
    // The return leg (data push completion or ready ack) vanished; reads
    // are naturally idempotent, so the replay just re-reads.
    if (reply_lost(r, iod_id, svc.ready)) {
      if (release_key != 0) cache_.release(release_key);
      return;
    }
    op->phases.disk += svc.disk_cost;
    // The lost-write gate sees the staleness map as it stands at service.
    const u64 lost_acked = acked_beyond_header(*op, r, rep, svc.version);
    // Settles the round at the event that puts its bytes in user memory.
    const auto finish = [this, op, &r, release_key, ver = svc.version,
                         lost_acked] {
      if (release_key != 0) cache_.release(release_key);
      finish_read_round(op, r, ver, lost_acked, engine_.now());
    };
    switch (path) {
      case ReadReturn::kFastBounce: {
        // Unpack the bounce buffer into the user's list buffers. The fabric
        // moved no bytes of the bounce write, so the unpack copies the
        // stream's file views straight to the list buffers, in stream
        // order; no file changed since read_round returned.
        core::copy_stream(svc.stream, as_, r.mem, copy_batch_);
        const Duration unpack = cfg_.mem.copy_cost(r.bytes);
        op->phases.wire += (svc.ready - t_svc) - svc.disk_cost + unpack;
        engine_.schedule_at(svc.ready + unpack, finish);
        break;
      }
      case ReadReturn::kDirectGather:
        op->phases.wire += (svc.ready - t_svc) - svc.disk_cost;
        engine_.schedule_at(svc.ready, finish);
        break;
      case ReadReturn::kClientPull: {
        // The iod tells the client the staging buffer is ready; the client
        // pulls with its configured scheme.
        const TimePoint ack = fabric_.send_control(
            iod.hca(), hca_, cfg_.pvfs.reply_msg_bytes, svc.ready,
            ib::ControlKind::kReply);
        engine_.schedule_at(ack, [this, op, &r, &iod, ack, slot = rr.slot,
                                  finish] {
          core::TransferOutcome pull = xfer_.pull(
              ep_, r.mem, iod.staging(id_, slot), ack, op->opts.policy);
          charge_transfer(op->phases, pull, ack);
          engine_.schedule_at(pull.complete, [this, op, &r, finish,
                                              st = pull.status] {
            if (st.is_ok()) {
              finish();
            } else {
              retry_or_fail(op, r, engine_.now(), st);
            }
          });
        });
        break;
      }
    }
  });
  // The request is on the wire; a wider window may issue the next round's
  // request right behind it while this round is still being serviced.
  wire_clears(op, r.chain, req.arrive);
}

// --- IoHandle --------------------------------------------------------

bool IoHandle::poll() const { return state_ != nullptr && state_->done; }

const IoResult& IoHandle::result() const {
  assert(poll());
  return state_->result;
}

IoResult IoHandle::wait() {
  assert(valid());
  if (!state_->done) {
    auto st = state_;
    client_->engine_.run_until([st] { return st->done; });
  }
  if (!state_->done) {
    // The event queue drained without the completion firing — a protocol
    // bug; surface it instead of returning a default-OK result.
    state_->result.status =
        internal_error("operation stalled: event queue drained");
    state_->result.start = state_->start;
    state_->result.end = client_->engine_.now();
    state_->done = true;
    auto cbs = std::move(state_->callbacks);
    state_->callbacks.clear();
    for (IoCallback& cb : cbs) cb(state_->result);
    return state_->result;
  }
  client_->advance_to(state_->result.end);
  return state_->result;
}

IoHandle& IoHandle::on_complete(IoCallback cb) {
  assert(valid());
  if (state_->done) {
    cb(state_->result);
  } else {
    state_->callbacks.push_back(std::move(cb));
  }
  return *this;
}

// --- Public entry points ---------------------------------------------

IoHandle Client::submit(const IoDesc& desc) {
  auto st = std::make_shared<IoHandle::State>();
  st->start = max(desc.start, engine_.now());
  start_op(desc.file, desc.req, desc.opts, desc.start,
           desc.dir == IoDir::kWrite, [st](IoResult r) {
             st->result = std::move(r);
             st->done = true;
             auto cbs = std::move(st->callbacks);
             st->callbacks.clear();
             for (IoCallback& cb : cbs) cb(st->result);
           });
  return IoHandle(this, std::move(st));
}

IoResult Client::write_list(const OpenFile& file,
                            const core::ListIoRequest& req,
                            const IoOptions& opts) {
  return submit({IoDir::kWrite, file, req, opts, now_}).wait();
}

IoResult Client::read_list(const OpenFile& file,
                           const core::ListIoRequest& req,
                           const IoOptions& opts) {
  return submit({IoDir::kRead, file, req, opts, now_}).wait();
}

IoResult Client::write(const OpenFile& file, u64 file_offset, u64 addr,
                       u64 length, const IoOptions& opts) {
  core::ListIoRequest req;
  req.mem = {{addr, length}};
  req.file = {{file_offset, length}};
  return write_list(file, req, opts);
}

IoResult Client::read(const OpenFile& file, u64 file_offset, u64 addr,
                      u64 length, const IoOptions& opts) {
  core::ListIoRequest req;
  req.mem = {{addr, length}};
  req.file = {{file_offset, length}};
  return read_list(file, req, opts);
}

}  // namespace pvfsib::pvfs
