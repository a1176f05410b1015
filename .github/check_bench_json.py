#!/usr/bin/env python3
"""Validate the machine-readable BENCH_*.json files the benches emit.

Schema-aware: dispatches on the top-level "bench" name, so one checker
covers every bench that emits JSON (load_harness, fault_sweep, ...). Fails
(exit 1) when a file does not parse as JSON or is missing the keys CI
depends on — the sweep itself plus, per point, the quantities documented
in EXPERIMENTS.md.
"""
import json
import sys

LOAD_POINT_KEYS = (
    "clients",
    "iods",
    "ok",
    "ops",
    "ops_per_s",
    "mib_per_s",
    "p50_us",
    "p99_us",
    "p999_us",
    "fairness",
    "intervals",
)

RATE_POINT_KEYS = (
    "rate",
    "mbps",
    "ok",
    "p50_us",
    "p99_us",
    "injected",
    "timeouts",
    "retries",
)

STORM_POINT_KEYS = (
    "shards",
    "ok",
    "create_ops_per_s",
    "create_p50_us",
    "create_p99_us",
    "create_p999_us",
    "open_ops_per_s",
    "open_p50_us",
    "open_p99_us",
    "open_p999_us",
    "remove_ops_per_s",
    "remove_p50_us",
    "remove_p99_us",
    "remove_p999_us",
    "redirects",
)

MIGRATION_KEYS = (
    "shard",
    "shards",
    "windows",
    "window_us",
    "migrate_at_us",
    "baseline_ops_per_s",
    "dip_min_ops_per_s",
    "dip_depth_pct",
    "dip_windows",
    "others_baseline_ops_per_s",
    "others_dip_depth_pct",
    "redirects",
    "wrong_shard_during_migration",
    "migrations",
    "migration_rounds",
    "aborts",
    "splits",
    "shards_after_split",
    "post_split_ok",
    "ok",
)

CACHE_POINT_KEYS = (
    "cache_bytes",
    "ok",
    "hit_rate",
    "hits",
    "misses",
    "wire_requests",
    "ops",
    "ops_per_s",
    "p50_us",
    "p99_us",
)

CORRUPTION_POINT_KEYS = (
    "flips_scheduled",
    "scrub",
    "flips_injected",
    "detect_latency_ms",
    "detections",
    "repairs",
    "read_ok",
    "data_ok",
)


def fail(msg: str) -> None:
    print(f"check_bench_json: {msg}", file=sys.stderr)
    sys.exit(1)


def require_points(path, doc, key, point_keys, allow_empty=False):
    if key not in doc:
        fail(f"{path}: missing key '{key}'")
    points = doc[key]
    if not isinstance(points, list) or (not points and not allow_empty):
        fail(f"{path}: '{key}' must be a non-empty list")
    for i, pt in enumerate(points):
        for k in point_keys:
            if k not in pt:
                fail(f"{path}: {key}[{i}] missing key '{k}'")
    return points


def check_load(path, doc):
    for key in ("config", "points"):
        if key not in doc:
            fail(f"{path}: missing top-level key '{key}'")
    points = require_points(path, doc, "points", LOAD_POINT_KEYS)
    for i, pt in enumerate(points):
        if not pt["ok"]:
            fail(f"{path}: points[{i}] (clients={pt['clients']}) reports ok=false")
        if pt["ops"] > 0 and not (pt["p50_us"] <= pt["p99_us"] <= pt["p999_us"]):
            fail(f"{path}: points[{i}] quantiles not monotone")
    # The --faults sweep is optional; validate it when present.
    if "fault_points" in doc:
        fpts = require_points(
            path, doc, "fault_points", LOAD_POINT_KEYS + ("scrub", "fault"),
            allow_empty=True)
        for i, pt in enumerate(fpts):
            if pt["ops"] > 0 and not (pt["p50_us"] <= pt["p99_us"] <= pt["p999_us"]):
                fail(f"{path}: fault_points[{i}] quantiles not monotone")
            # The migration point's disturbance must actually have fired:
            # the shard moved mid-measure and every op still completed.
            if pt["fault"] == "migration":
                if pt.get("migrations", 0) < 1:
                    fail(f"{path}: fault_points[{i}] migration point "
                         f"completed no migrations")
                if not pt["ok"]:
                    fail(f"{path}: fault_points[{i}] migration point "
                         f"reports ok=false")
    # The --cache sweep is optional; when present the first point must be
    # the uncached baseline (cache_bytes == 0, zero cache traffic), the
    # hit rate must be monotone nondecreasing in cache capacity, and every
    # cached point must beat the baseline's throughput — hits that do not
    # buy ops mean the tier is not short-circuiting the wire.
    n = len(points)
    if "cache" in doc:
        cache = doc["cache"]
        if not isinstance(cache, dict):
            fail(f"{path}: 'cache' must be an object")
        cpts = require_points(path, cache, "points", CACHE_POINT_KEYS)
        if cpts[0]["cache_bytes"] != 0:
            fail(f"{path}: cache.points[0] must be the uncached baseline")
        if cpts[0]["hits"] != 0 or cpts[0]["misses"] != 0:
            fail(f"{path}: uncached baseline counted cache traffic "
                 f"(hits={cpts[0]['hits']}, misses={cpts[0]['misses']})")
        baseline = cpts[0]["ops_per_s"]
        prev_bytes, prev_rate = 0, 0.0
        for i, pt in enumerate(cpts):
            if not pt["ok"]:
                fail(f"{path}: cache.points[{i}] reports ok=false")
            if pt["cache_bytes"] < prev_bytes:
                fail(f"{path}: cache.points[{i}] capacities not ascending")
            if i > 0:
                if pt["hit_rate"] + 1e-9 < prev_rate:
                    fail(f"{path}: cache.points[{i}] hit_rate "
                         f"{pt['hit_rate']} fell below {prev_rate} at a "
                         f"larger capacity")
                if pt["hit_rate"] <= 0.0:
                    fail(f"{path}: cache.points[{i}] cached run had no hits")
                if pt["ops_per_s"] < baseline:
                    fail(f"{path}: cache.points[{i}] throughput "
                         f"{pt['ops_per_s']} below uncached baseline "
                         f"{baseline}")
                prev_rate = pt["hit_rate"]
            prev_bytes = pt["cache_bytes"]
        n += len(cpts)
    return n


def check_fault(path, doc):
    if "config" not in doc:
        fail(f"{path}: missing top-level key 'config'")
    n = 0
    for key in ("write_rate_points", "read_rate_points"):
        points = require_points(path, doc, key, RATE_POINT_KEYS)
        for i, pt in enumerate(points):
            if not pt["ok"]:
                fail(f"{path}: {key}[{i}] (rate={pt['rate']}) reports ok=false")
            if not pt["p50_us"] <= pt["p99_us"]:
                fail(f"{path}: {key}[{i}] quantiles not monotone")
        n += len(points)
    corr = doc.get("corruption")
    if not isinstance(corr, dict):
        fail(f"{path}: missing 'corruption' section")
    points = require_points(path, corr, "points", CORRUPTION_POINT_KEYS)
    for i, pt in enumerate(points):
        # The sweep stays in the recoverable regime (one chain member
        # corrupted), so reads must succeed and return intact bytes —
        # scrubber or not — and the scrubbed runs must actually repair.
        if not pt["read_ok"] or not pt["data_ok"]:
            fail(f"{path}: corruption.points[{i}] lost data "
                 f"(read_ok={pt['read_ok']}, data_ok={pt['data_ok']})")
        if pt["scrub"] and pt["flips_injected"] > 0 and pt["repairs"] < 1:
            fail(f"{path}: corruption.points[{i}] scrubbed run repaired nothing")
    return n + len(points)


def check_storm(path, doc):
    for key in ("clients", "ops_per_client"):
        if key not in doc:
            fail(f"{path}: missing top-level key '{key}'")
    points = require_points(path, doc, "points", STORM_POINT_KEYS)
    for i, pt in enumerate(points):
        if not pt["ok"]:
            fail(f"{path}: points[{i}] (shards={pt['shards']}) reports ok=false")
        for op in ("create", "open", "remove"):
            if not (pt[f"{op}_p50_us"] <= pt[f"{op}_p99_us"]
                    <= pt[f"{op}_p999_us"]):
                fail(f"{path}: points[{i}] {op} quantiles not monotone")
    # The --migrate scenario is optional; when present the migration must
    # have completed exactly once without aborting, the post-storm split
    # must have doubled the plane, and redirects must actually have flowed
    # (stale clients converge through kWrongShard, not magic).
    n = len(points)
    if "migration" in doc:
        mig = doc["migration"]
        if not isinstance(mig, dict):
            fail(f"{path}: 'migration' must be an object")
        for k in MIGRATION_KEYS:
            if k not in mig:
                fail(f"{path}: migration missing key '{k}'")
        if not mig["ok"] or not mig["post_split_ok"]:
            fail(f"{path}: migration reports ok={mig['ok']} "
                 f"post_split_ok={mig['post_split_ok']}")
        if mig["migrations"] != 1 or mig["aborts"] != 0:
            fail(f"{path}: migration expected 1 completed migration, got "
                 f"migrations={mig['migrations']} aborts={mig['aborts']}")
        if mig["splits"] != 1 or mig["shards_after_split"] != 2 * mig["shards"]:
            fail(f"{path}: split did not double the plane "
                 f"(splits={mig['splits']}, "
                 f"shards_after_split={mig['shards_after_split']})")
        if mig["redirects"] < 1:
            fail(f"{path}: migration saw no shard redirects")
        if mig["baseline_ops_per_s"] <= 0:
            fail(f"{path}: migration baseline throughput is zero")
        if mig["dip_min_ops_per_s"] > mig["baseline_ops_per_s"]:
            fail(f"{path}: migration dip minimum exceeds baseline")
        n += 1
    return n


SIM_RUN_KEYS = ("wall_ms", "peak_rss_mib", "events", "events_per_s")


def check_sim(path, doc):
    # BENCH_sim.json: one host-cost row per bench that ran in the directory.
    runs = doc.get("runs")
    if not isinstance(runs, dict) or not runs:
        fail(f"{path}: 'runs' must be a non-empty object")
    for name, run in runs.items():
        for k in SIM_RUN_KEYS:
            if k not in run:
                fail(f"{path}: runs.{name} missing key '{k}'")
        if run["wall_ms"] <= 0 or run["peak_rss_mib"] <= 0:
            fail(f"{path}: runs.{name} recorded no host cost")
    return len(runs)


CHECKERS = {
    "load_harness": check_load,
    "fault_sweep": check_fault,
    "meta_storm": check_storm,
    "sim": check_sim,
}


def main() -> None:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_load.json"
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")

    bench = doc.get("bench")
    checker = CHECKERS.get(bench)
    if checker is None:
        fail(f"{path}: unknown bench name {bench!r}")
    n = checker(path, doc)
    print(f"{path}: OK ({n} sweep points)")


if __name__ == "__main__":
    main()
