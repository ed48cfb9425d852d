#!/usr/bin/env python3
"""Runs one perfbench workload and prints its metrics.

    python3 perfbench/run.py --workload lu-b64 --seed 1 --seconds 20 --trace 0

Builds the benchmark program (perfbench/CMakeLists.txt) from the sources,
generates the workload's inputs from the seed (several times, each in its own
process, to time set-up), then runs the timed phase. Every op's answer is
checked. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The line
before it ("context {...}") records the host, build, commit, seed and
workload parameters. Build output and progress go to standard error.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1  # the seed the committed reference answers belong to
SETUP_REPS = 4
REPLAY_WORKLOADS = ("lu-b64", "cg256-backbone", "cg256-torus")
WORKLOADS = REPLAY_WORKLOADS + ("serve-mixed",)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(bdir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", str(bdir), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, timeout=1200)
    return bdir / "perfbench"


def run_json(cmd, timeout):
    """Runs one benchmark process; returns the JSON object on its last line."""
    proc = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reps", type=int, default=SETUP_REPS,
                    help="set-up repetitions; setup_s is their median")
    ap.add_argument("--reference", default=None,
                    help="reference answer file (default: the committed one "
                         "at the default seed, none at other seeds)")
    ap.add_argument("--write-reference", action="store_true",
                    help="write the committed reference from this run")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return 2

    exe = build(build_dir())
    work = build_dir().parent / "perfbench-work"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = work / tag
    common = ["--workload", args.workload, "--seed", args.seed,
              "--dir", inputs, "--trace", args.trace]

    try:
        return measure(args, spec, exe, work, tag, common)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def measure(args, spec, exe, work, tag, common):
    """Set-up processes, then the timed process; prints context and result."""
    gens, setup_layers = [], []
    for k in range(args.reps):
        out = run_json([exe, "setup", *common,
                        "--spans", work / f"spans-{tag}-setup{k}.json"], 150)
        gens.append((out["gen_s"], out["slowdown"]))
        setup_layers.append(out["metrics"])

    run_cmd = [exe, "run", *common, "--seconds", args.seconds,
               "--reps", args.reps, "--spans", work / f"spans-{tag}.json"]
    reference = args.reference
    if reference is None and args.seed == DEFAULT_SEED and \
            args.workload in REPLAY_WORKLOADS and not args.write_reference:
        reference = HERE / "reference" / f"{args.workload}.txt"
    if reference:
        run_cmd += ["--reference", reference]
    if args.write_reference:
        run_cmd += ["--write-reference",
                    HERE / "reference" / f"{args.workload}.txt"]
    out = run_json(run_cmd, args.seconds + 150)

    values = dict(out["metrics"])
    for name in setup_layers[-1]:
        vals = [layer[name]["value"] for layer in setup_layers]
        values[name] = {"value": statistics.median(vals),
                        "unit": setup_layers[-1][name]["unit"]}
    # End-to-end times are reported at the reference host speed: each part
    # is divided by the slowdown of a host-speed probe run right before it
    # (see HostSpeed in perfbench.cpp). Raw values go to the context line.
    per_rep = [g + r["platform_s"] + r["warmup_s"]
               for (g, _), r in zip(gens, out["setup_reps"])]
    at_ref = [g / sd + (r["platform_s"] + r["warmup_s"]) / r["slowdown"]
              for (g, sd), r in zip(gens, out["setup_reps"])]
    values["setup_s"] = {"value": statistics.median(at_ref), "unit": "s"}
    raw = {k[len("raw."):]: v["value"] for k, v in values.items()
           if k.startswith("raw.")}
    raw["setup_s"] = statistics.median(per_rep)

    declared = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    metrics = {}
    for m in declared:
        got = values.get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or with the wrong unit: {got}")
            return 3
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "build_type": out["build_type"],
        "compiler": out["compiler"], "commit": commit(),
        "source_digest": source_digest(), "params": out["params"],
        "samples": values["samples"]["value"], "setup_reps": per_rep,
        "host_slowdown": values["bench.host_slowdown"]["value"], "raw": raw,
        "reference": str(reference) if reference else None,
        "errors": out["errors"],
    }
    result = {"correct": out["failed"] == 0 and out["attempted"] > 0,
              "attempted": out["attempted"], "failed": out["failed"],
              "metrics": metrics}
    (work / f"result-{tag}.json").write_text(
        json.dumps({"context": context, **result}, indent=1) + "\n")
    print("context " + json.dumps(context))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        sys.exit(1)
