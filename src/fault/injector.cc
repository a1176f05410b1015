#include "fault/injector.h"

#include "sim/engine.h"

namespace pvfsib::fault {

Injector::Injector(const FaultConfig& cfg, Stats& stats)
    : cfg_(cfg),
      stats_(stats),
      enabled_(cfg.enabled()),
      rng_(cfg.seed),
      consumed_(cfg.schedule.size(), false) {
  if (!enabled_) return;
  // Crashes are injected by construction of the schedule, not by a later
  // draw; count them up front so fault.injected.iod_crash reflects the
  // schedule even if no request ever lands in a down window.
  for (const FaultEvent& ev : cfg_.schedule) {
    if (ev.kind == FaultKind::kIodCrash) stats_.add(stat::kFaultIodCrash);
    if (ev.kind == FaultKind::kManagerCrash) {
      stats_.add(stat::kFaultManagerCrash);
    }
  }
}

Duration Injector::perturb_transfer(TimePoint at, u64 bytes,
                                    double mib_per_sec) {
  (void)at;
  if (!enabled_) return Duration::zero();
  Duration extra = Duration::zero();
  if (cfg_.retransmit_rate > 0.0 && rng_.chance(cfg_.retransmit_rate)) {
    // Corruption/loss on the wire: the RC transport times out and resends,
    // so the consumer sees success, late.
    extra += cfg_.retransmit_timeout + transfer_time(bytes, mib_per_sec);
    stats_.add(stat::kFaultRetransmit);
  }
  if (cfg_.latency_spike_rate > 0.0 && rng_.chance(cfg_.latency_spike_rate)) {
    extra += cfg_.latency_spike;
    stats_.add(stat::kFaultLatencySpike);
  }
  return extra;
}

bool Injector::completion_error() {
  if (!enabled_ || cfg_.completion_error_rate <= 0.0) return false;
  if (!rng_.chance(cfg_.completion_error_rate)) return false;
  stats_.add(stat::kFaultCompletionError);
  return true;
}

bool Injector::iod_down(u32 iod, TimePoint at) const {
  for (const FaultEvent& ev : cfg_.schedule) {
    if (ev.kind == FaultKind::kIodCrash && ev.target == iod && at >= ev.at &&
        at < ev.at + ev.duration) {
      return true;
    }
  }
  return false;
}

bool Injector::consume_scheduled(FaultKind kind, u32 target, TimePoint at) {
  for (size_t i = 0; i < cfg_.schedule.size(); ++i) {
    const FaultEvent& ev = cfg_.schedule[i];
    if (!consumed_[i] && ev.kind == kind && ev.target == target &&
        at >= ev.at) {
      consumed_[i] = true;
      return true;
    }
  }
  return false;
}

bool Injector::request_lost(u32 iod, TimePoint at) {
  if (!enabled_) return false;
  if (iod_down(iod, at)) {
    stats_.add(stat::kFaultIodDownDrop);
    return true;
  }
  if (consume_scheduled(FaultKind::kDropRequest, iod, at)) {
    stats_.add(stat::kFaultRequestDrop);
    return true;
  }
  if (cfg_.request_drop_rate > 0.0 && rng_.chance(cfg_.request_drop_rate)) {
    stats_.add(stat::kFaultRequestDrop);
    return true;
  }
  return false;
}

bool Injector::reply_lost(u32 iod, TimePoint at) {
  if (!enabled_) return false;
  if (iod_down(iod, at)) {
    stats_.add(stat::kFaultIodDownDrop);
    return true;
  }
  if (consume_scheduled(FaultKind::kDropReply, iod, at)) {
    stats_.add(stat::kFaultReplyDrop);
    return true;
  }
  if (cfg_.reply_drop_rate > 0.0 && rng_.chance(cfg_.reply_drop_rate)) {
    stats_.add(stat::kFaultReplyDrop);
    return true;
  }
  return false;
}

bool Injector::manager_down(TimePoint at, u32 shard) const {
  for (const FaultEvent& ev : cfg_.schedule) {
    if (ev.kind == FaultKind::kManagerCrash && ev.target == shard &&
        at >= ev.at && at < ev.at + ev.duration) {
      return true;
    }
  }
  return false;
}

bool Injector::meta_request_lost(TimePoint at, bool primary, u32 shard) {
  if (!enabled_) return false;
  if (primary && manager_down(at, shard)) {
    stats_.add(stat::kFaultManagerDownDrop);
    return true;
  }
  // Scheduled meta drops match on kind, shard and time (unsharded planes
  // are shard 0, matching the event target's default).
  for (size_t i = 0; i < cfg_.schedule.size(); ++i) {
    const FaultEvent& ev = cfg_.schedule[i];
    if (!consumed_[i] && ev.kind == FaultKind::kDropMetaRequest &&
        ev.target == shard && at >= ev.at) {
      consumed_[i] = true;
      stats_.add(stat::kFaultMetaRequestDrop);
      return true;
    }
  }
  if (cfg_.meta_request_drop_rate > 0.0 &&
      rng_.chance(cfg_.meta_request_drop_rate)) {
    stats_.add(stat::kFaultMetaRequestDrop);
    return true;
  }
  return false;
}

bool Injector::migration_target_crashed(u32 shard, TimePoint at) {
  if (!enabled_) return false;
  if (!consume_scheduled(FaultKind::kMigrationTargetCrash, shard, at)) {
    return false;
  }
  stats_.add(stat::kFaultMigrationTargetCrash);
  return true;
}

void Injector::install_restart_hooks(sim::Engine& engine, RestartHook hook) {
  if (!enabled_) return;
  for (const FaultEvent& ev : cfg_.schedule) {
    if (ev.kind != FaultKind::kIodCrash) continue;
    const TimePoint at = ev.at + ev.duration;
    engine.schedule_at(at, [hook, target = ev.target, at] {
      hook(target, at);
    });
  }
}

void Injector::install_manager_takeover_hooks(sim::Engine& engine,
                                              Duration delay,
                                              TakeoverHook hook) {
  if (!enabled_) return;
  for (const FaultEvent& ev : cfg_.schedule) {
    if (ev.kind != FaultKind::kManagerCrash) continue;
    const TimePoint at = ev.at + delay;
    engine.schedule_at(at, [hook, shard = ev.target, at] { hook(shard, at); });
  }
}

bool Injector::lost_write(u32 iod, TimePoint at) {
  if (!enabled_) return false;
  bool fire = consume_scheduled(FaultKind::kLostWrite, iod, at);
  if (!fire && cfg_.lost_write_rate > 0.0 &&
      rng_.chance(cfg_.lost_write_rate)) {
    fire = true;
  }
  if (fire) stats_.add(stat::kFaultLostWrite);
  return fire;
}

bool Injector::torn_write(u32 iod, TimePoint at) {
  if (!enabled_) return false;
  bool fire = consume_scheduled(FaultKind::kTornWrite, iod, at);
  if (!fire && cfg_.torn_write_rate > 0.0 &&
      rng_.chance(cfg_.torn_write_rate)) {
    fire = true;
  }
  if (fire) stats_.add(stat::kFaultTornWrite);
  return fire;
}

bool Injector::write_bit_flip(u32 iod, TimePoint at) {
  (void)iod;
  (void)at;
  if (!enabled_ || cfg_.bit_flip_rate <= 0.0) return false;
  if (!rng_.chance(cfg_.bit_flip_rate)) return false;
  stats_.add(stat::kFaultBitFlip);
  return true;
}

void Injector::install_corruption_hooks(sim::Engine& engine,
                                        CorruptionHook hook) {
  if (!enabled_) return;
  for (const FaultEvent& ev : cfg_.schedule) {
    if (ev.kind != FaultKind::kBitFlip) continue;
    engine.schedule_at(ev.at, [hook, target = ev.target, at = ev.at] {
      hook(target, at);
    });
  }
}

double Injector::disk_factor(u32 iod, TimePoint at) const {
  if (!enabled_) return 1.0;
  double factor = 1.0;
  for (const FaultConfig::DiskDegrade& d : cfg_.disk_degrade) {
    if (d.iod == iod && at >= d.from && at < d.until) factor *= d.factor;
  }
  return factor;
}

}  // namespace pvfsib::fault
