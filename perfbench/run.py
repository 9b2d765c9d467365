#!/usr/bin/env python3
"""Benchmark entry point for kgdta.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Generates the workload's inputs from the seed in one
child process, then measures the workload in a fresh child process with BLAS pinned
to one thread and the package imported from `src/`. With `--trace 1` it measures once
untraced and once with the layer timer installed, and reports per-layer metrics and
the tracing overhead; with `--trace 0` it reports the end-to-end metrics. The last
line of standard output is the JSON result. The exit code is 0 only when every
output check passed. Work files go to `.perfbench-out/` under the root.

This process never imports numpy, so nothing here depends on the BLAS settings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("dta-grid", "kg-partitioned", "cold-infer")
BLAS_THREADS = "1"
RUN_DEADLINE_S = 175.0

# The run's times are scaled to a machine on which the reference unit (workloads.Reference)
# takes this long. The shared 2-vCPU host used to write the benchmark changes speed by
# up to 1.5x and stays slow or fast for minutes at a time, so that unscaled times differed
# by up to 33% between two sets of runs of the same code; see perfbench/README.md.
REFERENCE_MS = 4.0
TIMES = ("setup_s", "pretrain_s", "total_s", "ckpt_load_ms", "infer_p50_ms", "infer_p90_ms")

END_TO_END = {
    "setup_s": "s",
    "pretrain_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "ckpt_load_ms": "ms",
    "infer_p50_ms": "ms",
    "infer_p90_ms": "ms",
}

# per-layer metric -> (unit, how it is read from the traced child's result)
PER_LAYER = {
    **{f"{layer}.s": ("s", ("total_s", layer)) for layer in (
        "pretrain.partition", "pretrain.sample_negatives", "pretrain.pretrain_loss",
        "pretrain.save_checkpoint", "pretrain.load_checkpoint", "gnn.build_mp",
        "gnn.encode_layers", "gnn.infer", "numerics.backward", "numerics.adam_step",
        "downstream.train_downstream", "downstream.evaluate", "downstream.CheckpointProvider",
        "schema.build_graph", "schema.parse_ntriples", "schema.to_ntriples",
        "handlers.compute_initial_embeddings",
    )},
    **{f"{layer}.calls": ("count", ("calls", layer)) for layer in (
        "pretrain.sample_negatives", "gnn.build_mp", "gnn.encode_layers",
        "numerics.backward", "numerics.adam_step", "downstream.train_downstream",
    )},
    "gnn.closure_nodes": ("count", ("counter", "gnn.closure_nodes")),
    "gnn.adjacency_bytes": ("B-computed", ("counter", "gnn.adjacency_bytes")),
    "gnn.infer.p99_ms": ("ms", ("infer_p99", None)),
    "trace.overhead_s": ("s", ("overhead", None)),
}


def median(values):
    return percentile(values, 50.0)


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def source_digest(paths) -> str:
    """sha256 over source files, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def child(args: list[str], deadline: float):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("run deadline passed before the next step")
    subprocess.run([sys.executable, str(BENCH / "workloads.py"), *args], env=env, cwd=ROOT,
                   stdout=sys.stderr, timeout=remaining, check=True)


def measure(workload: str, work: Path, seconds: float, traced: bool, deadline: float) -> dict:
    tag = "traced" if traced else "plain"
    result_path = work / f"{tag}.json"
    child(["measure", "--workload", workload, "--inputs", str(work / "inputs"),
           "--out", str(work / tag), "--seconds", str(seconds), "--trace", str(int(traced)),
           "--result", str(result_path)], deadline)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if "error" in result:
        raise RuntimeError(f"{tag} measurement of {workload} raised:\n{result['error']}")
    return result


def measured(plain: dict) -> dict[str, float]:
    """The end-to-end metrics as timed, before scaling."""
    s = plain["samples"]
    return {
        "setup_s": median(s["setup_s"]),
        "pretrain_s": median(s["pretrain_s"]),
        "total_s": median(s["total_s"]),
        "peak_rss_mb": plain["peak_rss_mb"],
        "ckpt_load_ms": median(s["ckpt_load_ms"]),
        "infer_p50_ms": percentile(s["infer_ms"], 50.0),
        "infer_p90_ms": percentile(s["infer_ms"], 90.0),
    }


def speed_scale(plain: dict) -> float:
    return REFERENCE_MS / median(plain["samples"]["ref_ms"])


def end_to_end(plain: dict) -> dict[str, float]:
    """The end-to-end metrics with every time scaled to the reference speed: each
    latency by the reference time stored with it, set-up, pretrain and pass times by
    the run's median reference time."""
    s = plain["samples"]

    def scaled(name):
        return [v * REFERENCE_MS / ref for v, ref in zip(s[name], s[f"{name}_ref"])]

    out = {name: value * speed_scale(plain) if name in TIMES else value
           for name, value in measured(plain).items()}
    infer = scaled("infer_ms")
    out.update(ckpt_load_ms=median(scaled("ckpt_load_ms")), infer_p50_ms=percentile(infer, 50.0),
               infer_p90_ms=percentile(infer, 90.0))
    return out


def per_layer(traced: dict, plain: dict) -> dict[str, float]:
    out = {}
    for name, (_, (kind, key)) in PER_LAYER.items():
        if kind in ("total_s", "calls"):
            out[name] = traced["layers"].get(key, {}).get(kind, 0)
        elif kind == "counter":
            out[name] = traced["counters"].get(key, 0)
        elif kind == "infer_p99":
            durations = traced["infer_durations_ms"]
            out[name] = percentile(durations, 99.0) if durations else 0.0
        else:
            out[name] = traced["samples"]["total_s"][0] - median(plain["samples"]["total_s"])
    return out


def check_repeatable(key: str, digests: dict[str, str]) -> str | None:
    """Compare with the digests an earlier run of the same code and seed recorded."""
    store = OUT / "digests.json"
    known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    if key in known and known[key] != digests:
        return f"outputs differ from an earlier run of the same code and seed ({key})"
    known[key] = digests
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    tmp.replace(store)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kgdta benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (ROOT / "src" / "kgdta" / "__init__.py").is_file():
        print(f"error: no kgdta sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        child(["generate", "--workload", args.workload, "--seed", str(args.seed),
               "--out", str(work / "inputs")], deadline)
        plain = measure(args.workload, work, args.seconds, False, deadline)
        traced = measure(args.workload, work, args.seconds, True, deadline) if args.trace else None
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, TimeoutError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = list(plain["problems"])
    attempted, failed = plain["attempted"], plain["failed"]
    if traced is not None:
        problems += traced["problems"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        if traced["digests"] != plain["digests"]:
            problems.append("traced run wrote different bytes than the untraced run")
            failed += 1
    src_sha = source_digest((ROOT / "src").rglob("*.py"))
    bench_sha = source_digest([BENCH / "workloads.py"])
    key = f"{args.workload} seed={args.seed} src={src_sha[:16]} workloads={bench_sha[:16]}"
    repeat_problem = check_repeatable(key, plain["digests"])
    if repeat_problem:
        problems.append(repeat_problem)
        failed += 1

    env = {**plain["env"], "git_revision": git_revision(), "src_sha256": src_sha,
           "platform": platform.platform(), "passes": plain["passes"]}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("sha256 " + json.dumps(plain["digests"], sort_keys=True))
    raw, e2e = measured(plain), end_to_end(plain)
    ref = plain["samples"]["ref_ms"]
    print(f"reference unit: median {median(ref):.3f} ms over {len(ref)} samples; set-up, pretrain "
          f"and pass times below are scaled by {REFERENCE_MS:g} / {median(ref):.3f} = "
          f"{speed_scale(plain):.4f}, latencies by {REFERENCE_MS:g} over the latest reference times")
    for name, value in e2e.items():
        note = f"  (measured {raw[name]:.4f})" if name in TIMES else ""
        print(f"{name:<16}{value:>14.4f} {END_TO_END[name]}{note}")
    if "downstream_s" in plain["samples"]:
        print(f"{'downstream_s':<16}{median(plain['samples']['downstream_s']):>14.4f} s")
    if "pearson_gain" in plain["values"]:
        gains = ", ".join(f"{k[5:]} {v:+.4f}" for k, v in sorted(plain["values"].items())
                          if k.startswith("gain_"))
        print(f"{'pearson_gain':<16}{plain['values']['pearson_gain']:>14.4f} Pearson r "
              f"(smallest enhanced-minus-baseline test Pearson; {gains})")
    print(f"{'error_rate':<16}{failed / max(attempted, 1):>14.4f} ratio ({failed} failed of {attempted} operations)")
    for problem in problems:
        print(f"check failed: {problem}")

    if traced is not None:
        metrics = per_layer(traced, plain)
        print(f"{'layer':<40}{'total_s':>10}{'self_s':>10}{'calls':>10}")
        for name, row in sorted(traced["layers"].items(), key=lambda kv: -kv[1]["total_s"]):
            print(f"{name:<40}{row['total_s']:>10.4f}{row['self_s']:>10.4f}{row['calls']:>10d}")
        print(f"tracing overhead {metrics['trace.overhead_s']:.4f} s "
              f"(traced total_s minus untraced total_s); spans in {work / 'traced' / 'trace.jsonl'}")
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = e2e
        units = END_TO_END
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
