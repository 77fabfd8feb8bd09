"""One benchmark process: set up once, then run this process's fixed share of work.

Started by run.py in a fresh interpreter with BLAS threads pinned to 1, once
per job, as a user runs one experiment per process. The argument is a JSON
object; the last line of standard output is the result. A cross-validated
child runs one ``run_experiment``. An online child trains the controller,
then streams a fixed list of windows, none of them seen twice, one at a time
through ``extract_features`` and ``step``. With trace=1 the package's public
functions are wrapped (spans.py) before set-up. The program is driven only
through its public functions.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter

T_START = perf_counter()  # before ctxclf (and numpy) is imported: part of set-up

# Span-based per-layer metrics of a traced run, as (span name, field). Each is
# per job, except spans in SETUP_SPANS, which are per set-up.
SPAN_METRICS = [
    ("signals.load_signalset", "self_s"),
    ("wavelet.dwt_db6", "calls"), ("wavelet.dwt_db6", "self_s"),
    ("features.extract_features", "calls"), ("features.extract_features", "self_s"),
    ("features.feature_matrix", "self_s"),
    ("features.select_features", "calls"), ("features.select_features", "self_s"),
    ("features.mutual_information", "calls"), ("features.mutual_information", "self_s"),
    ("classifiers.train", "calls"), ("classifiers.train", "self_s"),
    ("classifiers.predict", "calls"), ("classifiers.predict", "self_s"),
    ("context.enumerate_feasible", "self_s"),
    ("optimize.exhaustive_search", "self_s"),
    ("optimize.ea_search", "self_s"),
    ("optimize.repair", "calls"), ("optimize.repair", "self_s"),
    ("optimize.fitness", "calls"),
    ("runtime.train_ensemble", "calls"), ("runtime.train_ensemble", "self_s"),
    ("runtime.train_plain", "calls"), ("runtime.train_plain", "self_s"),
    ("runtime.step", "calls"), ("runtime.step", "self_s"),
    ("evaluation.run_experiment", "self_s"),
    ("evaluation.evaluate_sequence", "calls"), ("evaluation.evaluate_sequence", "self_s"),
    ("evaluation.sample_object_sequences", "self_s"),
    ("perfbench.hook", "self_s"),
]
SETUP_SPANS = {"signals.load_signalset"}
STREAM_ROOT = "perfbench.stream_chunk"
REFERENCE_REPEATS = 3
SETUP_ROOT = "perfbench.setup"


def reference_loop() -> float:
    """Time a fixed mix of small numpy calls and a Python dict loop.

    On a virtual machine that shares its cores with other load, speed can
    change by up to a half over minutes. The reference loop runs before and
    after every job, so it tracks the speed the job ran at, and latency
    divided by it is steadier than latency alone. The loop is the benchmark's own
    code: it is the same for every commit measured.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal(128)
    y = rng.integers(0, 6, 128).tolist()
    q = np.linspace(0.0, 1.0, 11)[1:-1]
    taps = rng.standard_normal(12)
    t0 = perf_counter()
    for _ in range(100):
        # the kinds of work the workloads do: binning and counting (MI),
        # sorting and prefix sums (tree splits), a short filter (DWT)
        bins = np.searchsorted(np.quantile(x, q), x).tolist()
        counts: dict = {}
        for key in zip(bins, y):
            counts[key] = counts.get(key, 0) + 1
        np.cumsum(x[np.argsort(x)])
        np.convolve(x, taps)
    return perf_counter() - t0


# -- set-up ----------------------------------------------------------------------


def setup(args):
    """Import the package and load the run config (online: also train the ensemble)."""
    import ctxclf  # noqa: F401  (import time is part of set-up)
    from ctxclf import cli

    config, _, _ = cli.load_run_config(args["config"])
    if args["kind"] == "online":
        return config, online_setup(config)
    return config, None


def online_setup(config):
    """Train one RCtx ensemble on every record with the first feasible binding."""
    from ctxclf import features, optimize, runtime

    X, y = features.feature_matrix(config.signalset)
    binding = min(optimize.feasible_set(config.structure), key=lambda b: b.secondary)
    return runtime.train_ensemble(
        config.structure, binding, X, y, config.classifier_specs[0], config.feature_fraction
    )


def load_stream(args, config):
    """The windows to stream, as chunks of (records, true classes) sequences.

    workloads.make_stream wrote them: fresh windows cut from long recordings,
    in stream order, each used once.
    """
    import numpy as np

    from ctxclf.signals import SignalRecord

    stream = args["stream"]
    windows = np.load(stream["windows"])
    labels = np.load(stream["labels"]).tolist()
    lengths = np.load(stream["lengths"]).tolist()
    rate = config.signalset.sample_rate_hz
    records = [
        SignalRecord(f"w{i}", windows[i], rate, labels[i]) for i in range(len(labels))
    ]
    sequences, pos = [], 0
    for n in lengths:
        sequences.append((records[pos : pos + n], labels[pos : pos + n]))
        pos += n
    per = stream["chunk_sequences"]
    return [sequences[i : i + per] for i in range(0, len(sequences), per)]


# -- jobs --------------------------------------------------------------------------


def check_table(table, config) -> None:
    expected_rows = len(config.methods) * config.cv_folds * len(config.classifier_specs)
    if len(table.rows) != expected_rows:
        raise AssertionError(f"{len(table.rows)} metric rows, expected {expected_rows}")
    for r in table.rows:
        if not 0.0 <= r.zo <= r.sqcov <= 1.0:
            raise AssertionError(f"row {r}: need 0 <= zo <= sqcov <= 1")


def cv_job(config, latencies):
    """One run_experiment; returns (output bytes, requests, hits)."""
    from ctxclf import evaluation

    t0 = perf_counter()
    table = evaluation.run_experiment(config)
    latencies.append(perf_counter() - t0)
    check_table(table, config)
    return table.to_csv().encode(), 1, 0


def online_chunk(ensemble, state, chunk, latencies):
    """Stream one chunk of sequences one window at a time; reset after each."""
    from ctxclf import features, runtime

    predicted = bytearray()
    hits = 0
    for records, classes in chunk:
        for record, truth in zip(records, classes):
            t0 = perf_counter()
            vec = features.extract_features(record)
            j, _, state = runtime.step(ensemble, state, vec.values)
            latencies.append(perf_counter() - t0)
            predicted.append(j)
            hits += j == truth
        runtime.reset(state)
    return bytes(predicted), len(predicted), hits


def jobs_of(args, config, ensemble):
    """This process's jobs, each a function of the latency list."""
    if args["kind"] != "online":
        return [lambda lat: cv_job(config, lat)]
    from ctxclf import runtime

    state = runtime.initial_state(ensemble)
    return [
        (lambda lat, c=chunk: online_chunk(ensemble, state, c, lat))
        for chunk in load_stream(args, config)
    ]


def reference() -> float:
    """Median of a few reference loops: one is sometimes hit by a context switch."""
    return statistics.median(reference_loop() for _ in range(REFERENCE_REPEATS))


def run_jobs(jobs, root=None) -> dict:
    """Run the jobs between reference loops; hash their outputs in order.

    The first reference follows set-up directly (run.py scales set-up time by
    it). With a recorder, job i is span run i (set-up is run 0).
    """
    digest = hashlib.sha256()
    latencies: list[float] = []
    reference_s: list[float] = []
    job_s: list[float] = []
    out = {"attempted": 0, "failed": 0, "hits": 0, "errors": []}
    reference_loop()  # the first call pays numpy's one-off set-up
    reference_s.append(reference())
    for i, job in enumerate(jobs, start=1):
        if root is not None:
            rec, name = root
            rec.run_id = i
            job = rec.wrap(job, name) if name else job
        t0 = perf_counter()
        try:
            data, requests, hits = job(latencies)
        except Exception as exc:  # a failed job is reported, not fatal
            out["attempted"] += 1
            out["failed"] += 1
            out["errors"].append(f"{type(exc).__name__}: {exc}")
            break
        job_s.append(perf_counter() - t0)
        reference_s.append(reference())
        digest.update(data)
        out["attempted"] += requests
        out["hits"] += hits
    out.update(
        digest=digest.hexdigest() if not out["failed"] else None,
        latencies_ms=[v * 1000.0 for v in latencies],
        reference_ms=[v * 1000.0 for v in reference_s],
        job_s=job_s,
    )
    return out


# -- per-layer metrics ----------------------------------------------------------------


def traced_metrics(rec, jobs: int, job_s: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, and the span checks.

    Values are per job, except set-up spans (per set-up). The checks compare
    what is reported with what was measured without the spans: the reported
    self times plus the unreported remainder (other.self_s) against the root
    spans, the root spans against the job times taken outside them (both as
    a share of the latter), and the smallest self time of any span, which is
    negative if spans overlap.
    """
    import numpy as np

    names, parent, run, dur, self_t = rec.arrays()
    ids = {n: i for i, n in enumerate(rec.names)}
    in_jobs = run >= 1
    in_setup = run == 0

    def per(name, field, mask, divisor):
        if name not in ids:
            return 0.0
        sel = mask & (names == ids[name])
        value = float(np.sum(self_t[sel])) if field == "self_s" else float(np.count_nonzero(sel))
        return value / divisor

    def counter(key, runs):
        return sum(rec.counters.get((r, key), 0.0) for r in runs)

    out = {}
    for name, field in SPAN_METRICS:
        if name in SETUP_SPANS:
            out[f"{name}.{field}"] = per(name, field, in_setup, 1)
        else:
            out[f"{name}.{field}"] = per(name, field, in_jobs, jobs)

    job_runs = range(1, jobs + 1)
    out["signals.records"] = counter("signals.records", [0])
    feas_calls = counter("context.feasible.calls", job_runs)
    out["context.feasible.count"] = (
        counter("context.feasible.count", job_runs) / feas_calls if feas_calls else 0.0
    )
    sel_calls = out["features.select_features.calls"] * jobs
    distinct = counter("features.select_features.distinct", job_runs)
    out["features.select_features.distinct"] = distinct / jobs
    out["features.select_features.useful_ratio"] = distinct / sel_calls if sel_calls else 0.0
    repairs = out["optimize.repair.calls"] * jobs
    out["optimize.repair.already_feasible_ratio"] = (
        counter("optimize.repair.already_feasible", job_runs) / repairs if repairs else 0.0
    )
    fit_calls = out["optimize.fitness.calls"] * jobs
    evaluations = counter("optimize.fitness.evaluations", job_runs)
    out["optimize.fitness.evaluations"] = evaluations / jobs
    out["optimize.fitness.hit_ratio"] = 1.0 - evaluations / fit_calls if fit_calls else 0.0

    job_self = [(n, f) for n, f in SPAN_METRICS if f == "self_s" and n not in SETUP_SPANS]
    listed = [ids[n] for n, _ in job_self if n in ids]
    out["other.self_s"] = float(np.sum(self_t[in_jobs & ~np.isin(names, listed)])) / jobs
    roots = in_jobs & (parent < 0)
    out["root.s"] = float(np.sum(dur[roots])) / jobs
    run_experiment = names == ids.get("evaluation.run_experiment", -1)
    out["evaluation.run_experiment.s"] = float(np.sum(dur[roots & run_experiment])) / jobs
    reported = sum(out[f"{n}.{f}"] for n, f in job_self) + out["other.self_s"]
    outer = statistics.fmean(job_s)  # > 0, unlike root.s when spans misnest
    out["root.self_sum_error"] = abs(reported - out["root.s"]) / outer
    checks = {
        "root_vs_outer_error": abs(out["root.s"] - outer) / outer,
        "min_self_s": float(np.min(self_t)),
    }
    return out, checks


# -- main --------------------------------------------------------------------------------


def main() -> int:
    args = json.loads(sys.argv[1])
    # one CPU for the whole run, so the scheduler does not move it between cores
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    rec = None
    if args["trace"]:
        import spans

        rec = spans.SpanRecorder()
        spans.install_package_spans(rec)
    try:
        if rec is None:
            config, ensemble = setup(args)
        else:
            config, ensemble = rec.span(SETUP_ROOT, setup, args)
        result = {"setup_s": perf_counter() - T_START}
        jobs = jobs_of(args, config, ensemble)
        root = None if rec is None else (rec, STREAM_ROOT if args["kind"] == "online" else None)
        result.update(run_jobs(jobs, root))
    finally:
        stale = rec.uninstall() if rec is not None else []
    if rec is not None:
        result["stale_wrappers"] = stale
        if not result["failed"]:
            result["per_layer"], result["span_checks"] = traced_metrics(
                rec, len(result["job_s"]), result["job_s"]
            )
        rec.save(args["spans_file"])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["threads_env"] = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    result["cpus"] = sorted(os.sched_getaffinity(0))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
