// The PVFS client library against the simulated cluster.
//
// The public surface is a handle-based async operation API: describe an
// operation with an IoDesc (direction + list request + options), submit()
// it, and use the returned IoHandle to wait(), poll(), or attach
// completion callbacks. The blocking read_list/write_list calls and the
// contiguous read/write wrappers are thin shims over submit().
//
// Each operation partitions its request across the striped I/O servers and
// splits every server's share into a chain of rounds (at most
// max_list_pairs file accesses and one staging buffer of data each). A
// round is one record (Client::Round), and one state machine drives every
// round of every chain over the event engine, reads and writes alike:
//
//   issue_round --> run_round --> request, data, disk, reply --> settle_round
//
// A timeout, a lost message or an error sends the round to retry_or_fail,
// which replays it (run_round again), fails it over to another replica
// (fail_over) or settles it terminally. Per direction:
//
//   write round:  request --> [ack] --> data push (policy scheme) -->
//                 server disk phase --> reply (from every replica)
//   read round:   request --> server disk (+ direct/fast return) -->
//                 [ready ack --> client pull] --> reply
//
// Rounds to the same server are flow-controlled by an outstanding-round
// window (ModelConfig::pipeline_depth). At the default depth 1 the next
// request leaves when the previous reply arrives (classic PVFS). At depth
// W > 1 the client issues round k+1 as soon as round k's data phase clears
// the wire, keeping up to W rounds in flight per iod; each in-flight round
// owns its own staging buffer at the iod, and the per-iod disk queue
// serializes the disk phases in data-arrival order, which preserves write
// ordering per handle. Different servers always run concurrently — that is
// where PVFS's striping parallelism comes from; the window adds wire/disk
// overlap on top of it.
#pragma once

#include <bitset>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "cache/client_cache.h"
#include "common/config.h"
#include "core/ogr.h"
#include "core/transfer.h"
#include "ib/fabric.h"
#include "ib/mr_cache.h"
#include "pvfs/iod.h"
#include "pvfs/manager.h"
#include "pvfs/meta_client.h"
#include "pvfs/protocol.h"
#include "sim/engine.h"
#include "vmem/address_space.h"

namespace pvfsib::fault {
class Injector;
}

namespace pvfsib::pvfs {

struct OpenFile {
  FileMeta meta;
};

struct IoOptions {
  bool sync = false;     // writes: fsync on the iod before the reply
  bool use_ads = true;   // allow server-side Active Data Sieving
  core::TransferPolicy policy;  // noncontiguous transfer scheme
  // Reads: allow the server to gather-push straight into a single
  // contiguous destination buffer.
  bool direct_read_return = true;
  // Application-aware registration (Section 4.2.1): the actual allocation
  // the list buffers came from (e.g. the whole malloc'd array). When set
  // (length > 0), the client pins that one region instead of running OGR.
  u64 allocation_hint_addr = 0;
  u64 allocation_hint_len = 0;

  // Fluent setup, e.g. IoOptions{}.with_sync().with_policy(p).
  IoOptions& with_sync(bool v = true) {
    sync = v;
    return *this;
  }
  IoOptions& with_policy(const core::TransferPolicy& p) {
    policy = p;
    return *this;
  }
  IoOptions& with_scheme(core::XferScheme s) {
    policy.scheme = s;
    return *this;
  }
};

// Where an operation's virtual time went, accumulated across every round
// of every server chain (phases of different servers overlap in wall-clock
// time, so the buckets sum to more than elapsed() on striped operations).
struct IoPhases {
  Duration registration = Duration::zero();  // OGR / pin-down work
  Duration wire = Duration::zero();   // data phases: pack copies + RDMA
  Duration disk = Duration::zero();   // server disk service time
  Duration stall = Duration::zero();  // rounds blocked on the window

  IoPhases& operator+=(const IoPhases& o) {
    registration += o.registration;
    wire += o.wire;
    disk += o.disk;
    stall += o.stall;
    return *this;
  }
};

struct IoResult {
  Status status;
  u64 bytes = 0;
  TimePoint start = TimePoint::origin();
  TimePoint end = TimePoint::origin();
  IoPhases phases;
  // Round retries the recovery layer spent on this operation (0 on a clean
  // run; only ever nonzero when a fault plane is active).
  u32 retries = 0;
  // Read-failover hops taken across the operation's rounds (replicated
  // reads only). Together with `retries` this tells a caller *how* a read
  // survived — or, with status kAllReplicasFailed, how hard it tried.
  u32 failovers = 0;

  Duration elapsed() const { return end - start; }
  double bandwidth_mib() const {
    return pvfsib::bandwidth_mib(bytes, elapsed());
  }
  bool ok() const { return status.is_ok(); }
  // Completed correctly, but only after surviving injected faults.
  bool recovered() const { return ok() && retries > 0; }

  // An operation settled at `at` without issuing a round: rejected, served
  // from the client cache, or nothing to flush.
  static IoResult instant(Status s, u64 bytes, TimePoint at) {
    IoResult r;
    r.status = std::move(s);
    r.bytes = bytes;
    r.start = r.end = at;
    return r;
  }
};

using IoCallback = std::function<void(IoResult)>;

enum class IoDir { kWrite, kRead };

// Everything that defines one list I/O operation. Aggregate-initializable:
//   client.submit({IoDir::kWrite, file, req, opts});
struct IoDesc {
  IoDir dir = IoDir::kWrite;
  OpenFile file;
  core::ListIoRequest req;
  IoOptions opts;
  // Earliest virtual time the operation may start; clamped to the engine
  // clock at submit. Blocking shims pass the client's logical clock.
  TimePoint start = TimePoint::origin();
};

class Client;

// A first-class reference to an in-flight (or completed) operation.
// Cheap to copy; all copies observe the same completion state. Completion
// callbacks registered after the operation finished fire immediately.
class IoHandle {
 public:
  IoHandle() = default;

  bool valid() const { return state_ != nullptr; }
  // Non-blocking: has the operation completed (successfully or not)?
  bool poll() const;
  // The outcome; only meaningful once poll() is true (asserts otherwise).
  const IoResult& result() const;
  // Drive the engine until this operation completes, then return its
  // result and advance the owning client's logical clock past it.
  IoResult wait();
  // Register a completion callback (fires immediately if already done).
  // Returns *this so a callback can be chained onto a fresh submit().
  IoHandle& on_complete(IoCallback cb);

 private:
  friend class Client;
  struct State;
  IoHandle(Client* client, std::shared_ptr<State> state)
      : client_(client), state_(std::move(state)) {}

  Client* client_ = nullptr;
  std::shared_ptr<State> state_;
};

class Client {
 public:
  Client(u32 id, const ModelConfig& cfg, sim::Engine& engine,
         ib::Fabric& fabric, const MetaRegistry& registry,
         std::vector<Iod*> iods, Stats& stats, fault::Injector& faults);

  // --- Metadata --------------------------------------------------------
  // Thin blocking shims over MetaClient::call: each builds one typed
  // MetaRequest, routes it through the shard map, and advances the
  // client's logical clock past the reply (docs/ASYNC_API.md has the full
  // request/reply mapping).
  Result<OpenFile> create(const std::string& name);
  Result<OpenFile> create(const std::string& name, u64 stripe_size,
                          u32 iod_count,
                          u32 base_iod = Manager::kAutoBase);
  Result<OpenFile> open(const std::string& name);
  Result<FileMeta> stat(const std::string& name);
  // Remove the namespace entry and every iod's local stripe file.
  Status remove(const std::string& name);

  // --- List I/O ---------------------------------------------------------
  // The one entry point: submit an operation, get a handle.
  IoHandle submit(const IoDesc& desc);

  // Blocking shims over submit(): run the engine until the op completes.
  IoResult write_list(const OpenFile& file, const core::ListIoRequest& req,
                      const IoOptions& opts = {});
  IoResult read_list(const OpenFile& file, const core::ListIoRequest& req,
                     const IoOptions& opts = {});

  // --- Contiguous convenience wrappers ----------------------------------
  IoResult write(const OpenFile& file, u64 file_offset, u64 addr, u64 length,
                 const IoOptions& opts = {});
  IoResult read(const OpenFile& file, u64 file_offset, u64 addr, u64 length,
                const IoOptions& opts = {});

  // The metadata routing facade (shard map cache, redirects, version-plane
  // authority selection). Exposed for tests and tooling that poke at the
  // cached map (e.g. MetaClient::invalidate_map).
  MetaClient& meta() { return meta_; }

  // --- Client caching tier (src/cache/) ---------------------------------
  // Subscribe this client's cache to the cluster's lease revocation bus,
  // routed through the MetaClient. No-op when CacheParams::enabled is off
  // (the ctor never set a sink, so nothing subscribes).
  void attach_lease_bus(LeaseBus* bus) { meta_.attach_lease_bus(bus); }
  // Write-back mode: push every dirty extent of `file` to the servers and
  // convert it to clean. Blocking (drives the engine); a no-op returning
  // ok/0 bytes when there is nothing dirty or write-back is off.
  IoResult flush(const OpenFile& file);
  // POSIX-close semantics for the write-back mode: flush, then drop the
  // file's cached data (the next open re-reads through the tiers).
  IoResult close(const OpenFile& file);
  // The attribute/data cache itself, for tests and cache-drop tooling.
  cache::ClientCache& data_cache() { return ccache_; }

  // The client's process state.
  vmem::AddressSpace& memory() { return as_; }
  ib::Hca& hca() { return hca_; }
  u32 id() const { return id_; }

  // Local logical clock: blocking calls start at now() and advance it.
  TimePoint now() const { return now_; }
  void advance_to(TimePoint t) { now_ = max(now_, t); }

 private:
  friend class IoHandle;

  struct OpState;  // shared per-operation bookkeeping
  static constexpr u32 kMaxReplicas = 64;  // fan state bits per round
  // One list-I/O round: its slice of a chain's share of the operation and
  // the state of its attempts. The records live in OpState::rounds for the
  // whole operation, so every step after issue takes (op, round), and the
  // events that continue a round hold the op, which keeps the record alive.
  struct Round {
    ExtentList accesses;           // iod-local file extents
    core::MemSegmentList mem;      // matching client memory slices
    u64 bytes = 0;
    u32 chain = 0;     // the chain (sub-request) the round belongs to
    size_t index = 0;  // position in the chain; slot = index mod window
    // Attempt state, set up by issue_round (mint_round).
    u64 seq = 0;           // round_seq, reused on every replay of a mint
    u32 attempts = 1;      // attempts started (1 = first try)
    bool settled = false;  // later completions of the round do nothing
    std::optional<sim::Engine::TimerId> timer;  // under a fault plane only
    TimePoint first_issue = TimePoint::origin();
    TimePoint last_issue = TimePoint::origin();  // newest attempt's start
    // Read failover: attempts consumed before the latest failover (the
    // retry budget restarts at each new replica) and failovers taken so
    // far (capped at replica-count - 1 per round).
    u32 budget_base = 0;
    u32 failovers = 0;
    // Per-stripe version of a replicated write round (manager-minted by
    // mint_round; 0 otherwise). Replays carry the same version.
    u64 version = 0;
    // Manager epoch `version` was minted under (0 when unversioned). Rides
    // every attempt of the round so iods can fence mints that a manager
    // takeover has since superseded.
    u64 epoch = 0;
    // Write fan state, indexed by replica position in the chain's replica
    // set: which replicas have acked this mint (replays go only to the
    // silent ones) and which already hold its payload in their staging
    // slot (replays to those skip the wire phase).
    std::bitset<kMaxReplicas> acked;
    std::bitset<kMaxReplicas> data_landed;
    TimePoint first_ack = TimePoint::origin();
  };

  void start_op(const OpenFile& file, const core::ListIoRequest& req,
                const IoOptions& opts, TimePoint start, bool is_write,
                IoCallback done, bool wb_flush = false);

  // --- Caching tier internals -------------------------------------------
  // Serve the read entirely from cached (clean or dirty) extents when they
  // cover it and every clean tag validates against the authority's
  // write-notice seq and stripe-version planes. Completes the op at zero
  // simulated cost and returns true; false = miss, go to the wire.
  bool serve_cached_read(const OpenFile& file, const core::ListIoRequest& req,
                         TimePoint start, const IoCallback& done);
  // Write-back staging: gather the request's bytes from user memory into
  // dirty cache extents, complete immediately, and arm the
  // staleness_bound flush timer for the handle.
  void stage_write_back(const OpenFile& file, const core::ListIoRequest& req,
                        TimePoint start, const IoCallback& done);
  // Start the flush write for `h`'s dirty runs (no-op when none). `done`
  // fires with the flush op's result after flush_applied converted the
  // runs to clean.
  void start_flush(Handle h, IoCallback done);
  // Op-completion cache hooks (settle_round's final block): completion-time
  // seq bumps for writes, clean re-insert of the op's bytes, dirty overlay
  // onto a wire-read's user buffer.
  void cache_op_complete(OpState& op);

  // --- The round machine (see the top of this file) -----------------------
  // Issue the chain's next round at `t`: set up its attempt state and
  // start its first attempt.
  void issue_round(std::shared_ptr<OpState> op, u32 chain, TimePoint t);
  // Give the round a fresh round_seq and clear its fan state; a
  // replicated write also mints a fresh version and epoch. Runs at issue
  // and when an epoch fence forces a re-mint.
  void mint_round(const OpState& op, Round& r);
  // A round of the chain clears the wire at `t`: at window > 1, issue the
  // chain's next round then if the window has room, else record the stall.
  void wire_clears(std::shared_ptr<OpState> op, u32 chain, TimePoint t);
  // Start an attempt at `t` (the first issue and every replay or
  // failover): arm the round timer under a fault plane, then fan a write
  // out to every not-yet-acked replica of the chain (a single iod when
  // unreplicated), or send a read to the chain's serving replica.
  void run_round(std::shared_ptr<OpState> op, Round& r, TimePoint t);
  // One attempt's request to replica position `rep` of a chain, as sent.
  struct SentRequest {
    RoundRequest rr;
    u32 iod_id = 0;                          // the physical target
    TimePoint arrive = TimePoint::origin();  // when it reached the iod
    bool lost = false;                       // the fault plane dropped it
  };
  // Build the attempt's RoundRequest for replica position `rep` (local
  // handle, slot, seq, version, epoch, staged flag), count it, put it on the
  // wire at `t` and draw (and trace) its loss.
  SentRequest send_request(const OpState& op, const Round& r, u32 rep,
                           TimePoint t);
  // Draw whether the fault plane drops the attempt's reply leg from
  // `iod_id` at `at`, tracing a drop; the round timer drives the replay.
  bool reply_lost(const Round& r, u32 iod_id, TimePoint at);
  // Drive one write attempt against replica `rep` of the chain's set.
  void run_write_replica(std::shared_ptr<OpState> op, Round& r, u32 rep,
                         TimePoint t0);
  // Replica `rep` acked the write round at `t` with `svc`: record the
  // header version it reports with the manager (even for late acks after
  // the quorum settled — a slow-but-alive replica is current, not stale)
  // and settle once the write quorum is met (immediately when
  // unreplicated). `attempt_seq` is the round_seq the attempt carried —
  // acks from attempts older than the round's current seq (superseded by a
  // re-mint) are dropped. An epoch-rejected ack means the iod fenced the
  // attempt's version as epoch-stale: the round re-mints and replays
  // (pvfs.version_remints) instead of counting the ack.
  void write_replica_done(std::shared_ptr<OpState> op, Round& r, u32 rep,
                          TimePoint t, const Iod::WriteService& svc,
                          u64 attempt_seq);
  // Drive one read attempt against the chain's serving replica.
  void run_read_round(std::shared_ptr<OpState> op, Round& r, TimePoint t0);
  // Common tail of every successful read-return path: the lost-write
  // failover when `lost_acked` (acked_beyond_header at service) is set,
  // else read-repair, then settle.
  void finish_read_round(std::shared_ptr<OpState> op, Round& r,
                         u64 serving_version, u64 lost_acked, TimePoint t);
  // A round completed successfully (or terminally) at `t`: cancel its
  // timer, record recovery stats, then let it leave the chain's window,
  // issuing the next round, or completing the op after its last chain.
  // Idempotent per round.
  void settle_round(std::shared_ptr<OpState> op, Round& r, TimePoint t,
                    Status status);
  // Cut chain `chain`'s sub-request into rounds within the configured
  // list-pair and staging-buffer limits.
  std::vector<Round> split_rounds(const core::ServerSubRequest& sub,
                                  u32 chain) const;

  // --- Recovery -----------------------------------------------------------
  // Arm the per-round timeout for the attempt starting at `t`.
  void arm_round_timer(std::shared_ptr<OpState> op, Round& r, TimePoint t);
  // Cancel the attempt's armed timeout, if any (arm_round_timer overwrites
  // the id without cancelling, so every re-issue path disarms first).
  void disarm_timer(Round& r);
  // An attempt failed with `why` at `t`: fail a corrupt read over, retry
  // with backoff if the error is transient and budget remains, fail a read
  // over once the budget is spent, else settle the round terminally.
  void retry_or_fail(std::shared_ptr<OpState> op, Round& r, TimePoint t,
                     Status why);
  // Read failover, for a replicated read round that has not yet visited
  // every replica of its chain: move the chain to the next live replica
  // after the serving one (plain rotation when every other one looks
  // down), open a fresh retry budget there and re-issue the round at `t`;
  // the chain's later rounds follow. `note(from_iod, to_iod)` books the
  // cause's counters and trace line just before the re-issue. Returns
  // false, and does nothing, when no failover is possible.
  bool fail_over(std::shared_ptr<OpState> op, Round& r, TimePoint t,
                 const std::function<void(u32, u32)>& note);

  // The physical iod currently serving reads for (or primarying writes of)
  // the round's chain — replica_sets[chain][Chain::replica] under
  // replication, the classic single target otherwise.
  u32 current_target(const OpState& op, const Round& r) const;

  // --- Version plane (replica-aware reads, read-repair) -------------------
  // Starting replica for a replicated read chain: the first replica the
  // manager's staleness map records current (counting a skipped stale
  // primary as pvfs.stale_reads_avoided), tie-broken by the lowest srtt
  // estimate when ReplicationParams::read_bias is on. Position 0 whenever
  // every replica is current — fault-free runs keep serving from the
  // primary, baseline-identical.
  u32 pick_read_replica(const OpState& op, u32 chain);
  // Read-repair after a read round served OK at `t` by the chain's current
  // replica, whose stripe header reported `serving_version`: record that
  // with the manager, then gather the round's bytes from client memory and
  // apply them to every chain replica whose recorded version trails
  // (pvfs.read_repairs), each after an analytical pack+wire delay
  // serialized per target iod (one outstanding repair per target).
  void read_repair(std::shared_ptr<OpState> op, const Round& r,
                   u64 serving_version, TimePoint t);
  // The lost-write gate, evaluated when the iod serves a read from replica
  // position `rep` with stripe header `header`: the version the staleness
  // map records that replica as having acked, when the map calls it current
  // yet its header reports less (the acked write never reached the
  // platter); 0 otherwise. The map never exceeds an honest replica's header
  // at the same instant, so only an injected lost write trips it. Sampling
  // later would let a write acked in between look like a lost one. A
  // replica the map records stale (crash before the write landed, resync
  // off) legitimately serves old data and does not trip it.
  u64 acked_beyond_header(const OpState& op, const Round& r, u32 rep,
                          u64 header);

  // --- Adaptive round timeouts (Jacobson-style per-iod RTT estimation) ---
  struct RttEstimate {
    bool seeded = false;
    Duration srtt = Duration::zero();
    Duration rttvar = Duration::zero();
  };
  // Feed a settled attempt's issue-to-completion time into `iod`'s
  // estimator (only called when FaultConfig::adaptive_timeout is on).
  void note_rtt(u32 iod_id, Duration sample);
  // Timeout for one iod: srtt + var_mult * rttvar, clamped; the static
  // round_timeout until seeded or when adaptive timeouts are off.
  Duration iod_timeout(u32 iod_id) const;
  // Timeout for a round attempt: the (single) read target's timeout, or
  // the max over a replicated write's fan so a slow backup is not declared
  // dead by a fast primary's estimate.
  Duration round_timeout_for(const OpState& op, const Round& r) const;

  // Run one typed metadata request through MetaClient::call starting at
  // the client's logical clock, then advance the clock past the reply (or
  // the final timeout when every retry failed).
  MetaReply meta_roundtrip(const MetaRequest& rq);

  u32 id_;
  ModelConfig cfg_;
  sim::Engine& engine_;
  ib::Fabric& fabric_;
  std::vector<Iod*> iods_;
  Stats& stats_;
  fault::Injector& faults_;
  // Next round_seq to stamp (client-wide counter; strictly increasing, so
  // every (client, slot) subsequence is strictly increasing too). Shared
  // across replicas of a fanned-out write round: each iod keeps its own
  // high-water mark, so one sequence number dedupes replays everywhere.
  u64 next_round_seq_ = 1;
  std::vector<RttEstimate> rtt_;  // per physical iod
  // Async repair writes are serialized per target iod: the next repair to
  // a target starts when the previous one arrived (background traffic,
  // one outstanding chunk per target).
  std::map<u32, TimePoint> repair_busy_until_;

  vmem::AddressSpace as_;
  ib::Hca hca_;
  ib::MrCache cache_;
  core::GroupRegistrar registrar_;
  core::NoncontigTransfer xfer_;
  // Metadata routing facade: cached shard map + retry/redirect machinery.
  // Declared after hca_ (it labels traces and sources requests with it).
  MetaClient meta_;
  // Client caching tier (attr + data). Distinct from cache_ — that is the
  // HCA's memory-registration pin-down cache.
  cache::ClientCache ccache_;
  // Write-back bookkeeping: file meta snapshot per handle with dirty
  // extents (the flush write needs stripe geometry), and whether the
  // staleness_bound flush timer is armed for the handle.
  std::map<Handle, FileMeta> wb_files_;
  std::map<Handle, bool> wb_timer_armed_;
  core::TransferEndpoint ep_;  // bounce buffer endpoint
  // copy_segments' pieces and copy_stream's batch, reused.
  std::vector<core::StreamPiece> copy_pieces_;
  std::vector<CopyOp> copy_batch_;
  TimePoint now_ = TimePoint::origin();
};

}  // namespace pvfsib::pvfs
