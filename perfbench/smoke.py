#!/usr/bin/env python3
"""Smoke tests of the benchmark itself (about two minutes on 4 cores).

    python3 perfbench/smoke.py

1. Every workload at minimal length, untraced and traced, prints exactly the
   declared metrics with their units, and every op is correct.
2. A deliberately corrupted reference answer makes the answer check fail.
3. A second seed changes the inputs (the CG answers move) but leaves the
   metric set and the flows-per-solve regime unchanged: about 52 re-rated
   flows per solve on the backbone, about 1 on the torus.
4. serve-mixed's request stream keeps naming new scenarios, about one
   request in ten, for a million requests (a hundred times what a 20 s run
   issues), so a faster service never runs out of novel scenarios.
Exits 0 when every check passes, 1 otherwise.
"""
import json
import subprocess
import sys
from pathlib import Path

import run as bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILURES = []


def run(workload, seed=1, trace=0, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--reps", "1", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[2:])} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2][len("context "):]), json.loads(lines[-1])


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def declared(trace):
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    results = {}
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            ctx, res = run(w["name"], 1, trace)
            results[(w["name"], trace)] = (ctx, res)
            tag = f"{w['name']} trace={trace}"
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == declared(trace), f"{tag}: every declared metric "
                  "with its unit")
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] >= 1, f"{tag}: every op correct")

    bad = ROOT / ".bench_build" / "smoke-corrupt-reference.txt"
    bad.parent.mkdir(parents=True, exist_ok=True)
    lines = (HERE / "reference" / "cg256-torus.txt").read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("makespan "):
            value = float(line.split()[1])
            lines[i] = f"makespan {value * (1 + 1e-6)!r}"
    bad.write_text("\n".join(lines) + "\n")
    _, res = run("cg256-torus", 1, 0, "--reference", str(bad))
    check(not res["correct"] and res["failed"] == res["attempted"],
          "corrupted reference: every op fails the answer check")

    regimes = {"cg256-backbone": (40.0, 65.0), "cg256-torus": (0.9, 1.3)}
    for name, (lo, hi) in regimes.items():
        ctx1, res1 = results[(name, 1)]
        ctx2, res2 = run(name, 2, 1)
        check(ctx1["params"]["makespan"] != ctx2["params"]["makespan"],
              f"{name}: seed 2 changes the inputs")
        check(set(res1["metrics"]) == set(res2["metrics"]),
              f"{name}: seed 2 keeps the metric set")
        for res in (res1, res2):
            flows = res["metrics"]["simkern.flows_rerated_per_solve"]["value"]
            check(lo <= flows <= hi,
                  f"{name}: {flows:.2f} flows re-rated per solve "
                  f"in [{lo}, {hi}]")

    requests = 1_000_000
    proc = subprocess.run([str(bench.build_dir() / "perfbench"), "stream",
                           "--seed", "1", "--requests", str(requests)],
                          capture_output=True, text=True, timeout=300)
    novel = json.loads(proc.stdout)["novel"] if proc.returncode == 0 else 0
    check(0.09 * requests <= novel <= 0.11 * requests,
          f"serve stream: {novel} novel scenarios in {requests} requests")

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
