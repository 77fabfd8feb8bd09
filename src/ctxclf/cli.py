"""Command-line interface.

Subcommands: validate, enumerate, optimize, run, report. Runs are driven
by a JSON config file; every run writes a manifest (config hash, master
seed, package version) so it can be replayed exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import typing
from dataclasses import fields
from pathlib import Path

import ctxclf
from ctxclf.classifiers import ClassifierSpec
from ctxclf.context import (
    ConstraintTable,
    derive_constraints,
    enumerate_feasible,
    load_structure,
    validate_structure,
)
from ctxclf.errors import CtxclfError, InfeasibleStructure
from ctxclf.evaluation import (
    METRICS_CSV_HEADER,
    MetricsRow,
    MetricsTable,
    RunConfig,
    run_experiment,
    search_binding,
)
from ctxclf.features import feature_matrix
from ctxclf.optimize import EAParams, feasible_set, trace_to_csv
from ctxclf.signals import load_signalset
from ctxclf.stats import average_ranks, wilcoxon_holm

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


class ConfigError(CtxclfError):
    """Config schema violation; message carries the offending field path."""


def _expect(d: dict, key: str, kind, path: str, default=None, required=False):
    if key not in d:
        if required:
            raise ConfigError(f"{path}{key}: required field missing")
        return default
    value = d[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(
            f"{path}{key}: expected {getattr(kind, '__name__', kind)}, got {type(value).__name__}"
        )
    return value


def _from_fields(cls, d: dict, path: str, keys=(), required=(), **given):
    """Build dataclass `cls` from the config object `d`.

    Each int/float/str field not in `given` is read from the key of its name,
    with the field's own default. `keys` are the other keys the caller reads;
    any other key is an unknown field.
    """
    hints = typing.get_type_hints(cls)
    scalars = [f for f in fields(cls) if f.name not in given and hints[f.name] in (int, float, str)]
    unknown = set(d) - {f.name for f in scalars} - set(keys)
    if unknown:
        raise ConfigError(f"{path}{sorted(unknown)[0]}: unknown field")
    for f in scalars:
        given[f.name] = _expect(d, f.name, hints[f.name], path, f.default, f.name in required)
    try:
        return cls(**given)
    except ValueError as exc:  # the dataclass checks name the field first
        raise ConfigError(f"{path}{exc}")


def load_run_config(path) -> tuple[RunConfig, dict, Path]:
    """Parse a run config file; returns (config, raw dict, output dir).

    Defaults and range checks are those of RunConfig, EAParams and
    ClassifierSpec; a key that names none of their fields is an error.
    """
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise ConfigError("config root: expected an object")

    sset = load_signalset(_expect(raw, "signalset", str, "", required=True))
    structure = load_structure(_expect(raw, "structure", str, "", required=True))
    if structure.num_classes != sset.num_classes:
        raise ConfigError(
            f"structure: {structure.num_classes} classes, but the signalset has {sset.num_classes}"
        )
    given = {"signalset": sset, "structure": structure}
    if "methods" in raw:
        given["methods"] = tuple(_expect(raw, "methods", list, ""))
    if "classifiers" in raw:
        specs = []
        for i, entry in enumerate(_expect(raw, "classifiers", list, "")):
            at = f"classifiers[{i}]"
            if not isinstance(entry, dict):
                raise ConfigError(f"{at}: expected an object")
            specs.append(_from_fields(ClassifierSpec, entry, f"{at}.", required=("algorithm",)))
        given["classifier_specs"] = tuple(specs)
    if "ea" in raw:  # the EA seed is derived from the master seed, never read
        ea = _expect(raw, "ea", dict, "")
        given["ea_params"] = _from_fields(EAParams, ea, "ea.", seed=EAParams.seed)
    keys = ("signalset", "structure", "classifiers", "methods", "ea", "output_dir")
    config = _from_fields(RunConfig, raw, "", keys, **given)
    out_dir = Path(_expect(raw, "output_dir", str, "", default="out"))
    return config, raw, out_dir


def _config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_manifest(out_dir: Path, raw: dict, seed: int) -> None:
    manifest = {
        "config_hash": _config_hash(raw),
        "master_seed": seed,
        "version": ctxclf.__version__,
        "config": raw,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def cmd_validate(args) -> int:
    structure = load_structure(args.structure)
    violations = validate_structure(structure)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_ERROR
    c = structure.num_classes
    print(f"OK, C={c}, M={2 * c}, L={structure.num_boxes}")
    return EXIT_OK


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}")


def _table_from_file(path) -> ConstraintTable:
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise ConfigError("table root: expected an object")
    num_classes = _expect(raw, "num_classes", int, "", required=True)
    permitted_raw = _expect(raw, "permitted", dict, "", required=True)
    permitted = {}
    for key, classes in permitted_raw.items():
        if not isinstance(classes, list):
            raise ConfigError(f"permitted.{key}: expected a list of classes")
        try:
            permitted[int(key)] = tuple(int(c) for c in classes)
        except (TypeError, ValueError):
            raise ConfigError(f"permitted.{key}: expected an integer movement id and classes")
        if not set(permitted[int(key)]) <= set(range(1, num_classes + 1)):
            raise ConfigError(f"permitted.{key}: classes must be in 1..{num_classes}")
    if set(permitted) != set(range(1, num_classes + 1)):
        raise ConfigError(f"permitted: expected movement ids 1..{num_classes}")
    return ConstraintTable(num_classes=num_classes, permitted=permitted)


def cmd_enumerate(args) -> int:
    if args.table:
        table = _table_from_file(args.table)
    else:
        structure = load_structure(args.structure)
        violations = validate_structure(structure)
        if violations:
            for v in violations:
                print(f"violation: {v}", file=sys.stderr)
            return EXIT_ERROR
        try:
            table = derive_constraints(structure)
        except InfeasibleStructure as exc:
            print(0)
            print(f"infeasible: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
    feasible = enumerate_feasible(table)
    print(len(feasible))
    if args.out:
        payload = {
            "num_classes": table.num_classes,
            "count": len(feasible),
            "bindings": [list(b.secondary) for b in feasible],
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def cmd_optimize(args) -> int:
    """Search the best binding on the full dataset and write it with its trace."""
    config, raw, out_dir = load_run_config(args.config)
    _check_fold_counts(config, outer=False)
    X, y = feature_matrix(config.signalset)
    feasible = feasible_set(config.structure)
    results, traces = {}, {}
    for spec in config.classifier_specs:
        best, value, evaluations, trace = search_binding(
            config, spec, X, y, range(len(y)), 0, feasible
        )
        mode = "exhaustive" if trace is None else "ea"
        if trace is not None:
            traces[spec.algorithm] = trace
        results[spec.algorithm] = {
            "binding": list(best.secondary),
            "fitness": value,
            "mode": mode,
            "evaluations": evaluations,
        }
        print(f"{spec.algorithm}: binding={list(best.secondary)} fitness={value:.4f} ({mode})")
    out_dir.mkdir(parents=True, exist_ok=True)
    for alg, trace in traces.items():
        (out_dir / f"trace_{alg}.csv").write_text(trace_to_csv(trace))
    (out_dir / "bindings.json").write_text(json.dumps(results, indent=2) + "\n")
    _write_manifest(out_dir, raw, config.master_seed)
    return EXIT_OK


def _check_fold_counts(config: RunConfig, outer: bool) -> None:
    """Each fold needs a record of every class.

    `run` (outer) deals all records into `cv_folds` folds and, for OCtx, the
    records of an outer training fold into `inner_folds`; `optimize` deals all
    records into `inner_folds`.
    """
    cls, count = min(config.signalset.class_counts.items(), key=lambda item: item[1])
    where = ""
    if outer:
        if config.cv_folds > count:
            raise ConfigError(
                f"cv_folds: {config.cv_folds} folds, but class {cls} has {count} records"
            )
        if "octx" not in config.methods:
            return
        count -= math.ceil(count / config.cv_folds)  # the fewest in an outer training fold
        where = " in an outer training fold"
    if config.inner_folds > count:
        raise ConfigError(
            f"inner_folds: {config.inner_folds} folds, but class {cls} has {count} records{where}"
        )


def cmd_run(args) -> int:
    config, raw, out_dir = load_run_config(args.config)
    _check_fold_counts(config, outer=True)
    table = run_experiment(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.csv").write_text(table.to_csv())
    (out_dir / "summary.json").write_text(json.dumps(table.summary(), indent=2) + "\n")
    for (alg, fold), trace in table.optimizer_traces.items():
        (out_dir / f"trace_{alg}_fold{fold}.csv").write_text(trace_to_csv(trace))
    _write_manifest(out_dir, raw, config.master_seed)
    print(f"wrote {out_dir / 'metrics.csv'} ({len(table.rows)} rows)")
    return EXIT_OK


def _read_metrics_csv(path) -> MetricsTable:
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != METRICS_CSV_HEADER:
            raise ConfigError(f"{path}: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            try:
                method, clf, fold, zo, sqcov = line.strip().split(",")
                row = MetricsRow(
                    method=method, classifier=clf, fold=int(fold),
                    zo=float(zo), sqcov=float(sqcov),
                )
            except ValueError:
                raise ConfigError(f"{path}: line {lineno}: expected {header}, got {line.strip()!r}")
            rows.append(row)
    table = MetricsTable(rows=tuple(rows), sequences_per_fold=0)
    methods = sorted({r.method for r in rows})
    for clf in sorted({r.classifier for r in rows}):
        counts = {m: len(table.values(m, clf, "zo")) for m in methods}
        if len(set(counts.values())) > 1:  # ranks and paired tests need every method per fold
            raise ConfigError(f"{path}: {clf}: unequal rows per method {counts}")
    return table


def report_from_table(table: MetricsTable, alpha: float = 0.05) -> dict:
    """Means, stds, average ranks, and Holm-corrected pairwise tests."""
    out: dict = {"summary": table.summary()["cells"], "ranks": {}, "tests": {}}
    classifiers = sorted({r.classifier for r in table.rows})
    methods = sorted({r.method for r in table.rows})
    for clf in classifiers:
        for criterion in ("zo", "sqcov"):
            per_fold = {m: table.values(m, clf, criterion) for m in methods}
            n = min(len(v) for v in per_fold.values())
            subjects = [{m: per_fold[m][i] for m in methods} for i in range(n)]
            out["ranks"].setdefault(clf, {})[criterion] = average_ranks(subjects)
            if len(methods) >= 2 and n >= 6:
                paired = {
                    f"{a} vs {b}": (per_fold[a], per_fold[b])
                    for i, a in enumerate(methods)
                    for b in methods[i + 1 :]
                }
                out["tests"].setdefault(clf, {})[criterion] = wilcoxon_holm(paired, alpha=alpha)
    return out


def cmd_report(args) -> int:
    table = _read_metrics_csv(args.metrics)
    report = report_from_table(table, alpha=args.alpha)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for clf, crits in sorted(report["summary"].items()):
        for method, metrics in sorted(crits.items()):
            zo, sq = metrics["zo"], metrics["sqcov"]
            print(
                f"{clf:<16} {method:<6} "
                f"ZO {zo['mean']:.3f}±{zo['std']:.3f}  "
                f"SqCov {sq['mean']:.3f}±{sq['std']:.3f}"
            )
    for clf, crits in sorted(report["ranks"].items()):
        for criterion, ranks in sorted(crits.items()):
            pretty = ", ".join(f"{m}={r:.2f}" for m, r in sorted(ranks.items()))
            print(f"{clf:<16} avg rank ({criterion}): {pretty}")
    for clf, crits in sorted(report["tests"].items()):
        for criterion, tests in sorted(crits.items()):
            for name, res in sorted(tests.items()):
                mark = "*" if res["significant"] else " "
                print(f"{clf:<16} {criterion} {name}: p={res['p_value']:.4f}{mark}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxclf",
        description="Context-dependent classification of multichannel biosignal records.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a structure file")
    p.add_argument("structure")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("enumerate", help="enumerate feasible secondary bindings")
    p.add_argument("structure", nargs="?", help="structure JSON file")
    p.add_argument("--table", help="raw permitted-class table JSON instead of a structure")
    p.add_argument("--out", help="write the feasible set to this JSON file")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("optimize", help="search the best binding for a config")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("run", help="run the cross-validated experiment")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("report", help="aggregate a metrics CSV into ranks and tests")
    p.add_argument("--metrics", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", help="write the full report JSON here")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "enumerate" and not (args.structure or args.table):
        print("ERROR: provide a structure file or --table", file=sys.stderr)
        return EXIT_ERROR
    try:
        return args.fn(args)
    except InfeasibleStructure as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, UnicodeDecodeError, CtxclfError) as exc:  # decode: an input file is not text
        print(f"ERROR: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
