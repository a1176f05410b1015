#include "pvfs/meta_client.h"

#include <string>

#include "fault/injector.h"
#include "pvfs/manager.h"
#include "sim/engine.h"
#include "sim/trace.h"

namespace pvfsib::pvfs {

namespace {
// Manager ops only surface kUnavailable when the fault plane swallowed the
// request; everything else is a real (terminal) metadata answer.
bool meta_lost(const MetaReply& r) {
  return r.status.code() == ErrorCode::kUnavailable;
}
// A demoted or not-yet-promoted manager answers kFailedPrecondition
// ("manager not active") — a fast redirect, not a timeout: the client
// re-targets the request at the shard's other candidate without waiting.
bool meta_redirected(const MetaReply& r) {
  return r.status.code() == ErrorCode::kFailedPrecondition;
}
bool meta_wrong_shard(const MetaReply& r) {
  return r.status.code() == ErrorCode::kWrongShard;
}
}  // namespace

MetaClient::MetaClient(ib::Hca& hca, sim::Engine& engine, Stats& stats,
                       fault::Injector& faults, const MetaRegistry* registry,
                       MigrationParams mig)
    : hca_(hca),
      engine_(engine),
      stats_(stats),
      faults_(faults),
      registry_(registry),
      mig_(mig) {
  // Mount-time config fetch: the cached map starts correct and free (no
  // pvfs.shard_map_refreshes — the counter tracks redirect-driven
  // refreshes, which never happen in fault-free runs).
  load_map();
}

void MetaClient::load_map() {
  shards_.clear();
  for (u32 s = 0; s < registry_->shard_count(); ++s) {
    const MetaRegistry::Shard& sh = registry_->shard(s);
    shards_.push_back(CachedShard{sh.candidates, sh.active});
  }
  version_ = registry_->version();
}

void MetaClient::refresh_map() {
  if (stale_refreshes_ > 0) {
    // Test hook: this refresh raced a reshard and fetched an
    // already-superseded map generation — model it by collapsing to the
    // stale single-shard view again. The refresh itself still happened
    // (and counts), which is exactly the situation the bounded re-refresh
    // loop must survive.
    --stale_refreshes_;
    invalidate_map();
    stats_.add(stat::kPvfsShardMapRefreshes);
    return;
  }
  load_map();
  stats_.add(stat::kPvfsShardMapRefreshes);
}

void MetaClient::invalidate_map() {
  // A stale mount: one shard, its current candidates, pre-reshard version.
  CachedShard only = shards_.empty()
                         ? CachedShard{}
                         : CachedShard{shards_[0].candidates, shards_[0].active};
  shards_.assign(1, std::move(only));
  version_ = 0;
}

Manager& MetaClient::route(std::string_view name) {
  return active_of(shard_of(name, shard_count()));
}

MetaClient::Outcome MetaClient::call(const MetaRequest& rq, TimePoint issue) {
  u32 shard = shard_of(rq.name, shard_count());
  Timed<MetaReply> r = active_of(shard).serve(hca_, issue, rq);
  u32 refreshes = 0;
  u32 retries = 0;
  for (;;) {
    // Stale-map redirect: a fast reply carrying the fresh shard map.
    // Handled outside the fault-retry loop — it is protocol, not failure —
    // and bounded, not at-most-once: a refresh can itself land an
    // already-stale map while a migration/split is flipping the registry
    // (two generations in flight), so the client re-refreshes up to
    // map_refresh_attempts times with capped backoff instead of stranding
    // the call on its first stale refresh. The first redirect refreshes
    // immediately (the classic path, timeline-identical).
    if (meta_wrong_shard(r.value)) {
      if (refreshes >= mig_.map_refresh_attempts) {
        return {std::move(r.value), issue + r.cost};
      }
      stats_.add(stat::kPvfsShardRedirects);
      TimePoint noticed = issue + r.cost;
      if (refreshes > 0) {
        noticed = noticed + capped_backoff(mig_.map_refresh_backoff, 2.0,
                                           mig_.map_refresh_backoff_cap,
                                           refreshes);
      }
      const u64 stale_version = version_;
      refresh_map();
      ++refreshes;
      const u32 owner = shard_of(rq.name, shard_count());
      sim::Trace::instance().emitf(
          noticed, hca_.name(),
          "metadata wrong shard (map v%llu -> v%llu), re-routing to %s",
          static_cast<unsigned long long>(stale_version),
          static_cast<unsigned long long>(version_),
          active_of(owner).hca().name().c_str());
      shard = owner;
      issue = noticed;
      r = active_of(shard).serve(hca_, issue, rq);
      continue;
    }
    if (!faults_.enabled() ||
        !(meta_lost(r.value) || meta_redirected(r.value))) {
      return {std::move(r.value), issue + r.cost};
    }
    const FaultConfig& fc = faults_.config();
    if (retries >= fc.max_retries) {
      // The final attempt failed too: the client waits out its timeout (or
      // takes the redirect reply on the chin) and gives up.
      const TimePoint done =
          meta_lost(r.value) ? issue + fc.round_timeout : issue + r.cost;
      MetaReply rep;
      rep.status = unavailable("metadata op failed after " +
                               std::to_string(retries) + " retries");
      return {std::move(rep), done};
    }
    CachedShard& cs = shards_[shard];
    stats_.add(stat::kPvfsMetaRetries);
    ++retries;
    const Duration backoff = capped_backoff(fc.backoff_base, fc.backoff_mult,
                                            fc.backoff_cap, retries);
    // A lost request is only noticed when the timeout fires; a redirect is
    // a real (fast) reply.
    const bool lost = meta_lost(r.value);
    const TimePoint noticed = lost ? issue + fc.round_timeout : issue + r.cost;
    if (cs.candidates.size() > 1) {
      cs.active = (cs.active + 1) % cs.candidates.size();
      stats_.add(stat::kPvfsMetaFailovers);
      if (sim::Trace::instance().enabled()) {
        sim::Trace::instance().emitf(
            noticed, hca_.name(),
            "metadata %s, failing over to %s (retry %u in %s)",
            lost ? "timeout" : "redirect",
            cs.candidates[cs.active]->hca().name().c_str(), retries,
            backoff.to_string().c_str());
      }
    } else if (sim::Trace::instance().enabled()) {
      sim::Trace::instance().emitf(
          issue + fc.round_timeout, hca_.name(), "metadata retry %u in %s",
          retries, backoff.to_string().c_str());
    }
    issue = noticed + backoff;
    r = cs.candidates[cs.active]->serve(hca_, issue, rq);
  }
}

Manager& MetaClient::authority(Handle h) {
  for (u32 attempt = 0;; ++attempt) {
    const u32 shard = shard_of_handle(h, shard_count());
    CachedShard& cs = shards_[shard];
    if (cs.candidates.size() > 1 && cs.candidates[cs.active]->epoch_stale()) {
      // The believed-active manager was superseded by a takeover this
      // client never witnessed. Minting from it (or feeding it notes)
      // would split the version plane, so the client refuses and
      // re-targets the epoch-current candidate.
      stats_.add(stat::kPvfsEpochRejections);
      for (size_t i = 0; i < cs.candidates.size(); ++i) {
        if (!cs.candidates[i]->epoch_stale()) {
          cs.active = i;
          break;
        }
      }
      sim::Trace::instance().emitf(
          engine_.now(), hca_.name(),
          "version authority stale, re-targeting %s (epoch %llu)",
          cs.candidates[cs.active]->hca().name().c_str(),
          static_cast<unsigned long long>(cs.candidates[cs.active]->epoch()));
    }
    Manager& m = *cs.candidates[cs.active];
    // A candidate that still holds the handle's slice of the version plane
    // under the current epoch is the authority — the fault-free fast path,
    // cost-free as before. After a migration or split, every cached
    // candidate can be epoch-stale or stripped of the handle (a retired
    // source would silently mint version 0 from its dropped namespace);
    // then the client refreshes from the registry and re-routes, bounded
    // like the wrong-shard path. Authority lookups are free host-side
    // calls, so the refresh costs no simulated time.
    if (!m.epoch_stale() && m.owns_handle(h)) return m;
    if (attempt >= mig_.map_refresh_attempts ||
        version_ == registry_->version()) {
      return m;
    }
    sim::Trace::instance().emitf(
        engine_.now(), hca_.name(),
        "version authority for handle %llu lost to a reshard, refreshing map",
        static_cast<unsigned long long>(h));
    refresh_map();
  }
}

}  // namespace pvfsib::pvfs
