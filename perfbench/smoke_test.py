#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size.

Run from the root of a checkout:  python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it checks that
  * an untraced run verifies its bytes and prints every end-to-end metric,
    with the unit BENCHMARK.json declares;
  * a traced run prints every per-layer metric and writes a Chrome
    trace-event file;
  * two runs at one seed give the same sim fingerprint and the same
    sim-clock metrics;
  * flipping one expected byte makes verification fail (nonzero exit,
    "correct": false).
Exits nonzero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


def run(workload, trace=0, flip=False):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "0",
           "--trace", str(trace), "--tiny"]
    if flip:
        cmd.append("--flip-byte")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    fingerprint = next((l.split()[1] for l in lines
                        if l.startswith("sim_fingerprint ")), None)
    return proc.returncode, result, fingerprint, proc


def check(cond, msg):
    if not cond:
        print(f"FAIL: {msg}")
        sys.exit(1)
    print(f"ok    {msg}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in (w["name"] for w in spec["workloads"]):
        code, res, fp, proc = run(wl)
        check(code == 0 and res is not None and res["correct"],
              f"{wl}: verifies ({proc.stderr.strip()[-300:]})")
        check(res["attempted"] >= 1 and res["failed"] == 0,
              f"{wl}: attempted {res['attempted']}, failed {res['failed']}")
        for m in spec["end_to_end"]:
            got = res["metrics"].get(m["name"])
            check(got is not None and got["unit"] == m["unit"] and
                  got["value"] > 0,
                  f"{wl}: end-to-end {m['name']} present, nonzero, in "
                  f"{m['unit']}")

        code2, res2, fp2, _ = run(wl)
        check(code2 == 0 and fp is not None and fp == fp2,
              f"{wl}: sim fingerprint repeats at one seed ({fp})")
        for name, v in res["metrics"].items():
            if name.startswith("sim_"):
                check(res2["metrics"][name]["value"] == v["value"],
                      f"{wl}: {name} repeats bit for bit")

        code, res, _, _ = run(wl, trace=1)
        check(code == 0 and res["correct"], f"{wl}: traced run verifies")
        for m in spec["per_layer"]:
            got = res["metrics"].get(m["name"])
            check(got is not None and got["unit"] == m["unit"],
                  f"{wl}: per-layer {m['name']} present in {m['unit']}")
        trace = ROOT / ".bench_out" / f"{wl}-seed{SEED}-trace.chrome.json"
        events = json.loads(trace.read_text())["traceEvents"]
        check(any(e.get("ph") == "X" for e in events),
              f"{wl}: Chrome trace written with spans")

        code, res, _, _ = run(wl, flip=True)
        check(code != 0 and res is not None and not res["correct"],
              f"{wl}: a flipped expected byte fails verification")
    print("smoke test passed")


if __name__ == "__main__":
    main()
