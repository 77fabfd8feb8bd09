"""ctxclf benchmark: cross-validated runs, C=8 EA search and online decisions.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk-gnb --seed 0 --trace 0
    python3 perfbench/run.py --workload all --out bench.json   # every workload
    python3 perfbench/run.py --smoke                             # seconds-long self-check
    python3 perfbench/run.py --workload desk-gnb --size roadmap --trace 1

Each run makes its inputs from --seed, then starts one fresh child process
after another, BLAS threads pinned to 1, for run_seconds of BENCHMARK.json.
Every child sets up (import, config load; online: ensemble fit) and runs a
fixed job: one run_experiment, or one stream of windows it has not seen. It
prints every metric with its unit and, last, one JSON line {"correct",
"attempted", "failed", "metrics"}: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. Every child's output
digest is checked against expected.json at the default seed and against the
first child's otherwise; any failure makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
NOTE = "closed loop, one client; the program is one thread with no queues, so no wait or retry time"
# harness checks of a traced run: span sums and root spans within 1%, no negative self time
SPAN_TOLERANCE = 0.01
SELF_FLOOR_S = -1e-6
# setup_s is set-up time scaled to a machine on which the reference loop takes
# this long (about its time on a 2-vCPU x86 VM): the loop runs right after
# set-up in the same process, and scaling by it removes most of the drift in
# machine speed between runs that raw set-up time shows
NOMINAL_REFERENCE_MS = 12.0


def fail(message: str) -> int:
    print(f"ERROR: {message}", file=sys.stderr)
    return 2


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(args: dict, deadline: float) -> dict:
    """Run child.py with args; return its last output line as a dict."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for another child process")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(args)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"child exited with {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_children(args: dict, seconds: float, min_children: int, deadline: float) -> list:
    """Start children one at a time until the next one would overrun `seconds`."""
    children = []
    t_end = time.monotonic() + seconds
    while True:
        t0 = time.monotonic()
        children.append(run_child(dict(args, spans_file=spans_file(args, len(children))), deadline))
        took = time.monotonic() - t0
        if len(children) >= min_children and time.monotonic() + took > t_end:
            return children


def spans_file(args: dict, index: int) -> str:
    return str(Path("perfbench") / "_out" / f"spans-{args['workload']}-s{args['seed']}-{index}.npz")


def check_outputs(children: list, expected: str | None) -> dict:
    """Totals over the children; a digest that differs from the reference fails its requests."""
    reference = expected or next((c["digest"] for c in children if c["digest"]), None)
    out = {"attempted": 0, "failed": 0, "hits": 0, "errors": []}
    for c in children:
        out["attempted"] += c["attempted"]
        out["failed"] += c["failed"]
        out["hits"] += c["hits"]
        out["errors"] += c["errors"]
        if c["digest"] is not None and c["digest"] != reference:
            out["failed"] += c["attempted"]
            out["errors"].append(f"output digest {c['digest']} != expected {reference}")
    out["digest"] = reference
    return out


def latency_summary(children: list) -> dict:
    ms = sorted(v for c in children for v in c["latencies_ms"])
    p99 = statistics.quantiles(ms, n=100, method="exclusive")[98] if len(ms) > 1 else ms[0]
    return {
        "p50_ms": statistics.median(ms),
        "p99_ms": p99,
        "samples": len(ms),
        "beyond_p99": sum(1 for v in ms if v > p99),
        "reference_ms": statistics.median(v for c in children for v in c["reference_ms"]),
        "throughput_per_s": len(ms) / sum(s for c in children for s in c["job_s"]),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """One benchmark run of one workload; returns the numbers and the checks.

    Untraced, every child of the run is measured. Traced, the first half of
    the time goes to untraced children (the reference for tracing overhead)
    and the second half to traced ones.
    """
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    workload = workloads.WORKLOADS[name]
    expected = json.loads((HERE / "expected.json").read_text())
    workdir = Path("perfbench") / "_work" / f"{name}-{size}-s{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (Path("perfbench") / "_out").mkdir(parents=True, exist_ok=True)
    try:
        config_path, inputs = workloads.make_inputs(workload, size, seed, workdir)
        args = {
            "workload": name,
            "kind": workload.kind,
            "config": str(config_path),
            "seed": seed,
            "trace": 0,
        }
        if workload.kind == "online":
            args["stream"] = dict(
                workloads.stream_files(workdir),
                chunk_sequences=workload.sizes[size].online["chunk_sequences"],
            )
        if not trace:
            children = run_children(args, seconds, 2, deadline)
            traced = []
        else:
            children = run_children(args, seconds / 2, 1, deadline)
            traced = run_children(dict(args, trace=1), seconds / 2, 1, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    want = expected.get(size, {}).get(name) if seed == expected["seed"] else None
    result = check_outputs(children + traced, want)
    if not all(c["latencies_ms"] for c in children + traced):
        raise RuntimeError(f"a job failed before it returned: {result['errors'][:1]}")
    result.update(latency_summary(children))
    result["setup_samples"] = [c["setup_s"] for c in children]
    result["setup_scaled"] = [
        c["setup_s"] * NOMINAL_REFERENCE_MS / c["reference_ms"][0] for c in children
    ]
    result["maxrss_kb"] = statistics.median(c["maxrss_kb"] for c in children)
    result["children"] = len(children) + len(traced)
    result["inputs_sha256"] = inputs
    result["threads_env"] = children[0]["threads_env"]
    result["cpus"] = children[0]["cpus"]
    if traced:
        result.update(trace_summary(traced, result))
    return result


def trace_summary(traced: list, untraced: dict) -> dict:
    """Per-layer metrics (median over traced children), overhead and span checks.

    The overhead compares latencies over the reference loop of their own half
    of the run, since machine speed can drift between the halves.
    """
    out = {"stale_wrappers": sorted({w for c in traced for w in c["stale_wrappers"]})}
    layers = [c["per_layer"] for c in traced if "per_layer" in c]
    if not layers:
        return out
    per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    traced_lat = latency_summary(traced)
    ratio = (traced_lat["p50_ms"] / traced_lat["reference_ms"]) / (
        untraced["p50_ms"] / untraced["reference_ms"]
    )
    per_layer["tracing.overhead_ms"] = (ratio - 1.0) * untraced["p50_ms"]
    per_layer["tracing.overhead_ratio"] = ratio - 1.0
    out["per_layer"] = per_layer
    problems = []
    for c in traced:
        if "per_layer" not in c:
            continue
        checks = dict(c.get("span_checks", {}), self_sum_error=c["per_layer"]["root.self_sum_error"])
        if checks["self_sum_error"] > SPAN_TOLERANCE:
            problems.append(f"reported self times miss the root spans by {checks['self_sum_error']:.3%}")
        if checks["root_vs_outer_error"] > SPAN_TOLERANCE:
            problems.append(
                f"root spans miss the job time taken outside them by "
                f"{checks['root_vs_outer_error']:.3%}"
            )
        if checks["min_self_s"] < SELF_FLOOR_S:
            problems.append(f"a span has self time {checks['min_self_s']:.3g} s < 0")
    out["span_problems"] = sorted(set(problems))
    return out


def end_to_end(result: dict) -> dict:
    return {
        "latency_norm.p50": result["p50_ms"] / result["reference_ms"],
        "setup_s": statistics.median(result["setup_scaled"]),
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
    }


def environment(seed: int, result: dict) -> dict:
    import numpy

    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "inputs_sha256": result["inputs_sha256"],
        "child_threads": result["threads_env"],
        "child_cpus": result["cpus"],
    }


def report(name: str, seed: int, trace: int, result: dict, units: dict) -> dict:
    """Print one run's metrics with units; return the object for the last output line."""
    import workloads

    online = workloads.WORKLOADS[name].kind == "online"
    kind = "decisions" if online else "run_experiment calls, one per process"
    print(f"workload {name}  seed {seed}  trace {trace}  ({NOTE})")
    metrics = end_to_end(result) if not trace else result.get("per_layer", {})
    notes = {
        "latency_norm.p50": f"n={result['samples']} {kind}, over the reference loop",
        "setup_s": f"median of {len(result['setup_samples'])} set-ups, one per process, "
        f"at {NOMINAL_REFERENCE_MS} ms per reference loop",
        "peak_rss_mb": f"median of {len(result['setup_samples'])} processes",
    }
    for key, value in metrics.items():
        print(f"  {key:<44} {value:>14.6g} {units.get(key, '?'):<6} {notes.get(key, '')}")
    if not trace:
        print(f"  {'latency_ms.p50':<44} {result['p50_ms']:>14.6g} ms     n={result['samples']}")
        print(
            f"  {'latency_ms.p99':<44} {result['p99_ms']:>14.6g} ms     "
            f"n={result['samples']}, {result['beyond_p99']} beyond"
        )
        print(f"  {'reference_ms.p50':<44} {result['reference_ms']:>14.6g} ms")
        setup_raw = statistics.median(result["setup_samples"])
        print(f"  {'setup_raw_s':<44} {setup_raw:>14.6g} s      as measured, not scaled")
        print(f"  {'throughput_per_s':<44} {result['throughput_per_s']:>14.6g} 1/s    {kind}")
    failed_fraction = result["failed"] / max(result["attempted"], 1)
    print(
        f"  {'failed_fraction':<44} {failed_fraction:>14.6g} ratio  "
        f"{result['failed']} of {result['attempted']}, {result['children']} processes"
    )
    if online:
        print(f"  {'decision_hit_rate':<44} {result['hits'] / max(result['attempted'], 1):>14.6g} ratio")
    for err in result["errors"][:5]:
        print(f"  error: {err}")
    for problem in result.get("span_problems", []):
        print(f"  span check: {problem}")
    print(f"  output digest {result['digest']}")
    print("# env " + json.dumps(environment(seed, result)))
    return {
        "correct": result["failed"] == 0 and not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units},
    }


def smoke(units: dict, bench: dict, names) -> int:
    """Run every workload at tiny sizes, traced and untraced, and check the harness."""
    problems = []
    for name in names:
        for trace in (0, 1):
            try:
                result = run_workload(name, 0, 1.0, trace, "smoke")
            except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
                problems.append(f"{name} trace {trace}: {exc}")
                continue
            out = report(name, 0, trace, result, units)
            wanted = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
            if set(out["metrics"]) != wanted:
                problems.append(f"{name}: metrics {sorted(wanted ^ set(out['metrics']))} differ")
            if not out["correct"]:
                problems.append(f"{name} trace {trace}: {result['errors']}")
            if trace:
                if result["stale_wrappers"]:
                    problems.append(f"{name}: not restored: {result['stale_wrappers']}")
                problems += [f"{name}: {p}" for p in result.get("span_problems", [])]
    for p in problems:
        print(f"SMOKE FAIL: {p}")
    print("SMOKE PASS" if not problems else "SMOKE FAIL")
    return 0 if not problems else 1


def main(argv=None) -> int:
    # SIGTERM unwinds through subprocess.run, which then kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload of workloads.py, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="must equal run_seconds of BENCHMARK.json, which sets the run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "roadmap"), default="default",
                        help="roadmap: the ROADMAP baseline sizes (desk-gnb and grips-ea)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, with harness checks")
    parser.add_argument("--out", help="with --workload all: write every result here as JSON")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ctxclf" / "__init__.py").is_file():
        return fail(f"no ctxclf package under {ROOT / 'src'}")
    os.chdir(ROOT)
    for k in THREAD_VARS:
        os.environ[k] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.smoke:
        return smoke(units, bench, workloads.WORKLOADS)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not args.workload or any(n not in workloads.WORKLOADS for n in names):
        return fail(f"--workload must be one of {list(workloads.WORKLOADS)} or all")
    missing = [n for n in names if args.size not in workloads.WORKLOADS[n].sizes]
    if missing:
        return fail(f"no {args.size} size for {missing}")
    seconds = bench["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        return fail(f"--seconds must be {seconds}: the bounds hold for runs of that length")
    outs = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, seconds, args.trace, args.size)
        except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
            return fail(f"{name}: {exc}")
        outs[name] = report(name, args.seed, args.trace, result, units)
        outs[name]["env"] = environment(args.seed, result)
    if args.out:
        Path(args.out).write_text(json.dumps(outs, indent=2) + "\n")
    ok = all(o["correct"] for o in outs.values())
    if len(names) == 1:
        print(json.dumps({k: outs[names[0]][k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
