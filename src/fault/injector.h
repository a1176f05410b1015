// Deterministic, schedule-driven fault injector (the fault plane).
//
// One Injector per cluster sits below the fabric, the iods and the managers
// and answers "does this message/transfer/server fail right now?". Decisions
// come from two sources, both pure functions of the FaultConfig:
//
//   * explicit (time, target, kind) schedule entries — iod crashes with a
//     restart delay, one-shot request/reply drops — consumed in order, and
//   * seeded random draws (common/rng.h) at the configured rates.
//
// Because every query happens at a deterministic point of the event
// engine's total order, the xoshiro stream is consumed identically across
// runs: a faulty run is exactly as reproducible as a healthy one, which is
// what makes recovery behaviour unit-testable.
//
// The injector also collects fault-domain observability: per-round latency
// samples (for p99 under faults) and the fault.injected.* counters. Every
// layer of a cluster holds the injector and calls its hooks. With a trivial
// config enabled() is false and every hook answers "no fault" without a
// draw or a counter, and install_*_hooks schedule nothing, so zero-fault
// runs stay byte-identical to a build without the fault plane.
#pragma once

#include <functional>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/stats.h"

namespace pvfsib::sim {
class Engine;
}

namespace pvfsib::fault {

class Injector {
 public:
  Injector(const FaultConfig& cfg, Stats& stats);

  bool enabled() const { return enabled_; }
  const FaultConfig& config() const { return cfg_; }

  // --- Fabric hooks ---------------------------------------------------------
  // Extra cost charged to a transfer of `bytes` at bandwidth `mib_per_sec`
  // starting at `at`: transport retransmits (timeout + second wire pass)
  // and per-link latency spikes. Zero when nothing fires.
  Duration perturb_transfer(TimePoint at, u64 bytes, double mib_per_sec);

  // Should this RDMA work request complete in error? (Surfaced to the
  // consumer through TransferResult.status as kUnavailable.)
  bool completion_error();

  // --- PVFS round hooks -----------------------------------------------------
  // Is `iod` crashed (scheduled kIodCrash window) at time `at`?
  bool iod_down(u32 iod, TimePoint at) const;

  // Does the round request arriving at `iod` at `at` vanish? Combines the
  // explicit one-shot drops, crash windows and the random drop rate.
  bool request_lost(u32 iod, TimePoint at);
  // Does the round reply leaving `iod` at `at` vanish?
  bool reply_lost(u32 iod, TimePoint at);

  // --- Manager hooks --------------------------------------------------------
  // Is metadata shard `shard`'s primary manager crashed (scheduled
  // kManagerCrash window with that target) at `at`? (Standbys never crash;
  // once promoted they stay up. Shard 0 is the only shard on an unsharded
  // plane, matching legacy schedules whose target defaulted to 0.)
  bool manager_down(TimePoint at, u32 shard = 0) const;

  // Does the metadata request arriving at shard `shard`'s manager at `at`
  // vanish? Scheduled kDropMetaRequest events targeting the shard plus the
  // random drop rate; for the shard's primary (`primary` true) also its
  // kManagerCrash windows. Standbys only lose requests to drops, never to
  // crash windows.
  bool meta_request_lost(TimePoint at, bool primary = true, u32 shard = 0);

  // Did the in-flight migration target for metadata shard `shard` crash
  // (scheduled kMigrationTargetCrash with that target, one-shot) by `at`?
  // Consulted by the migration's stream rounds and its cutover check; a
  // `true` aborts the migration and falls back to the source. Runs without
  // migrations never call this, so the schedule entry is inert for them.
  bool migration_target_crashed(u32 shard, TimePoint at);

  // Schedule `hook(shard, takeover_time)` on the engine `delay` after every
  // kManagerCrash window *opens* (failure detection + rebuild time — the
  // standby does not wait for the primary to come back); `shard` is the
  // event's target. Cluster installs these when FaultConfig::standby_takeover
  // is set; without a call the schedule drives nothing extra.
  using TakeoverHook = std::function<void(u32 shard, TimePoint at)>;
  void install_manager_takeover_hooks(sim::Engine& engine, Duration delay,
                                      TakeoverHook hook);

  // --- Iod hooks ------------------------------------------------------------
  // Disk service-time multiplier for `iod` at `at` (1.0 when healthy).
  double disk_factor(u32 iod, TimePoint at) const;

  // --- Silent-corruption hooks ---------------------------------------------
  // Consulted by the iod once per applied write round, in this fixed order
  // (lost, torn, flip) so the rng stream is consumed identically across
  // runs. A `true` return counts the fault.injected.* stat; the iod then
  // applies the corresponding corruption to the round. Scheduled
  // kLostWrite/kTornWrite events are one-shot per target like the drop
  // kinds; scheduled kBitFlip events fire through install_corruption_hooks
  // instead (they hit data at rest, not a round in flight).
  bool lost_write(u32 iod, TimePoint at);
  bool torn_write(u32 iod, TimePoint at);
  bool write_bit_flip(u32 iod, TimePoint at);

  // Deterministic placement draw for the corruption machinery (which byte
  // to flip, how much of a torn round to keep): a plain next-below-bound
  // pull from the injector's seeded stream.
  u64 draw(u64 bound) { return bound == 0 ? 0 : rng_.below(bound); }

  // Schedule `hook(iod, at)` on the engine for every scheduled kBitFlip
  // event: the iod then flips stored bytes chosen via draw(). Cluster
  // installs these whenever the fault plane is enabled; a schedule with no
  // kBitFlip entries schedules nothing.
  using CorruptionHook = std::function<void(u32 iod, TimePoint at)>;
  void install_corruption_hooks(sim::Engine& engine, CorruptionHook hook);

  // Schedule `hook(iod, restart_time)` on the engine for every kIodCrash
  // window's end (the moment the iod comes back up). The resync scanner
  // rides these (Cluster installs them when background re-replication is
  // on); without a call the schedule drives nothing extra, keeping all
  // other fault runs event-for-event identical.
  using RestartHook = std::function<void(u32 iod, TimePoint at)>;
  void install_restart_hooks(sim::Engine& engine, RestartHook hook);

  // --- Observability --------------------------------------------------------
  // The client records every recovered/settled round's issue-to-settle
  // latency here; benches derive tail percentiles from the samples.
  void note_round_latency(Duration d) { round_latencies_.push_back(d); }
  const std::vector<Duration>& round_latencies() const {
    return round_latencies_;
  }

 private:
  // Consume the first unconsumed schedule entry of `kind` for `target`
  // whose time has come; returns true if one fired.
  bool consume_scheduled(FaultKind kind, u32 target, TimePoint at);

  FaultConfig cfg_;
  Stats& stats_;
  bool enabled_;
  Rng rng_;
  std::vector<bool> consumed_;  // parallel to cfg_.schedule
  std::vector<Duration> round_latencies_;
};

}  // namespace pvfsib::fault
