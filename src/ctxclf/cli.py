"""Command-line interface.

Subcommands: validate, enumerate, optimize, run, report. Runs are driven
by a JSON config file; every run writes a manifest (config hash, master
seed, package version, output digests) so it can be replayed exactly.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import ctxclf
from ctxclf.classifiers import ClassifierSpec
from ctxclf.context import (
    count_feasible,
    derive_constraints,
    enumerate_feasible,
    load_structure,
    load_table,
    validate_structure,
)
from ctxclf.errors import CtxclfError, InfeasibleStructure
from ctxclf.evaluation import MetricsTable, RunConfig, check_folds, run_experiment, search_binding
from ctxclf.features import feature_matrix
from ctxclf.jsonfile import expect, read_field, read_json
from ctxclf.optimize import EAParams, feasible_set, trace_to_csv
from ctxclf.signals import load_signalset

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
MANIFEST_TMP = "manifest.json.tmp"


class ConfigError(CtxclfError):
    """Config schema violation; message carries the offending field path."""


def _from_fields(cls, d: dict, path: str, keys=(), required=(), **given):
    """Build dataclass `cls` from the config object `d`.

    Each field whose default is an int, float or str takes the key of its name
    as it is, and `cls` checks it. `keys` are the other keys the caller reads;
    any other key is an unknown field.
    """
    scalars = {f.name for f in fields(cls) if isinstance(f.default, (int, float, str))}
    unknown = set(d) - scalars - set(keys)
    if unknown:
        raise ConfigError(f"{path}{sorted(unknown)[0]}: unknown field")
    for key in required:
        if key not in d:
            raise ConfigError(f"{path}{key}: missing")
    try:
        return cls(**{key: d[key] for key in scalars & set(d)}, **given)
    except ValueError as exc:  # the dataclass checks name the field first
        raise ConfigError(f"{path}{exc}")


def load_run_config(path) -> tuple[RunConfig, dict, Path]:
    """Parse a run config file; returns (config, raw dict, output dir).

    Defaults and checks are those of RunConfig, EAParams and ClassifierSpec;
    a key that names none of their fields is an error.
    """
    raw = expect(read_json(path, ConfigError), dict, "config root", ConfigError)
    sset = load_signalset(read_field(raw, "signalset", str, "", ConfigError))
    structure = load_structure(read_field(raw, "structure", str, "", ConfigError))
    given = {"signalset": sset, "structure": structure}
    if "methods" in raw:
        given["methods"] = tuple(read_field(raw, "methods", list, "", ConfigError))
    if "classifiers" in raw:
        specs = []
        for i, entry in enumerate(read_field(raw, "classifiers", list, "", ConfigError)):
            at = f"classifiers[{i}]"
            expect(entry, dict, at, ConfigError)
            specs.append(_from_fields(ClassifierSpec, entry, f"{at}.", required=("algorithm",)))
        given["classifier_specs"] = tuple(specs)
    if "ea" in raw:
        ea = read_field(raw, "ea", dict, "", ConfigError)
        given["ea_params"] = _from_fields(EAParams, ea, "ea.")
    keys = ("signalset", "structure", "classifiers", "methods", "ea", "output_dir")
    config = _from_fields(RunConfig, raw, "", keys, **given)
    out_dir = Path(read_field(raw, "output_dir", str, "", ConfigError, "out"))
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():  # refused now, not once the run is over and its files are written
        raise ConfigError(f"output_dir: {existing} is not a directory")
    return config, raw, out_dir


def _write_outputs(out_dir: Path, raw: dict, seed: int, files: dict[str, str]) -> None:
    """Leave out_dir holding one command's `{name: text}` files. A provisional manifest.json
    lists the previous manifest's names and this command's with null digests; then the previous
    names this command does not write are removed (bare names of regular files only: a manifest
    whose `outputs` is missing or not an object removes nothing), the files are written in order
    and the final manifest lists each with its sha256. A failed file write leaves none unlisted,
    and a failed manifest write leaves the manifest before it whole."""
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    try:
        previous = json.loads(manifest_path.read_text())["outputs"]
    except (OSError, ValueError, RecursionError, TypeError, KeyError):  # no readable `outputs`
        previous = None
    previous = list(previous) if isinstance(previous, dict) else []

    def sha256(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    manifest = {
        "config_hash": sha256(json.dumps(raw, sort_keys=True, separators=(",", ":"))),
        "master_seed": seed,
        "version": ctxclf.__version__,
        "config": raw,
        "outputs": dict.fromkeys([*previous, *files]),  # provisional: null digests
    }
    tmp = out_dir / MANIFEST_TMP  # written whole, then renamed (os.replace) onto manifest.json
    tmp.write_text(json.dumps(manifest, indent=2) + "\n")
    tmp.replace(manifest_path)
    for name in previous:
        stale = out_dir / name  # `.` and `..` are no regular file
        if name not in files and Path(name).name == name and stale.is_file():
            if not stale.is_symlink():
                stale.unlink()
    for name, text in files.items():
        (out_dir / name).write_text(text)
    manifest["outputs"] = {name: sha256(text) for name, text in files.items()}
    tmp.write_text(json.dumps(manifest, indent=2) + "\n")
    tmp.replace(manifest_path)


def _refuse_directories(out_dir: Path, names: list[str]) -> None:
    """Refuse, before the run, an output name in out_dir that is a directory: `names` are
    the files the command may write, and `manifest.json` and MANIFEST_TMP are always written."""
    for name in [*names, "manifest.json", MANIFEST_TMP]:
        if (out_dir / name).is_dir():
            raise ConfigError(f"output_dir: {out_dir / name} is a directory")


def _out_file(out: str | None) -> Path | None:
    """The `--out` path, refused before any work when no file can be written there."""
    path = Path(out) if out else None  # an empty --out writes nothing, as it always has
    if path and path.is_dir():
        raise ConfigError(f"--out: {path} is a directory")
    if path and not path.parent.is_dir():
        raise ConfigError(f"--out: {path.parent} is not a directory")
    return path


def _valid_structure(path):
    """The structure file at path, or None once each of its violations is printed."""
    structure = load_structure(path)
    violations = validate_structure(structure)
    for v in violations:
        print(f"violation: {v}", file=sys.stderr)
    return None if violations else structure


def cmd_validate(args) -> int:
    structure = _valid_structure(args.structure)
    if structure is None:
        return EXIT_ERROR
    c = structure.num_classes
    print(f"OK, C={c}, M={2 * c}, L={structure.num_boxes}")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    """Print the count of the feasible set and list it with --out. A zero count exits 2
    and writes nothing, with one `infeasible:` line for a structure."""
    if bool(args.structure) == bool(args.table):
        raise ConfigError("provide exactly one of a structure file and --table")
    out = _out_file(args.out)
    if args.table:
        table, why = load_table(args.table), None
    else:
        structure = _valid_structure(args.structure)
        if structure is None:
            return EXIT_ERROR
        try:
            table, why = derive_constraints(structure), "feasible set is empty"
        except InfeasibleStructure as exc:
            table, why = None, exc
    count = 0 if table is None else count_feasible(table)
    print(count)
    if not count:
        if why:
            print(f"infeasible: {why}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if out:  # only a listing is bounded by the guard
        payload = {
            "num_classes": len(table),
            "count": count,
            "bindings": [list(b.secondary) for b in enumerate_feasible(table)],
        }
        out.write_text(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_optimize(args) -> int:
    """Search the best binding on the full dataset and write it with its trace."""
    config, raw, out_dir = load_run_config(args.config)
    check_folds(config, outer=False)
    algorithms = [spec.algorithm for spec in config.classifier_specs]
    _refuse_directories(out_dir, ["bindings.json", *(f"trace_{alg}.csv" for alg in algorithms)])
    feasible = feasible_set(config.structure)
    X, y = feature_matrix(config.signalset)
    results, files, lines = {}, {}, []
    for spec in config.classifier_specs:
        best, value, evaluations, trace = search_binding(config, spec, X, y, 0, feasible)
        mode, binding = "exhaustive" if trace is None else "ea", list(best.secondary)
        if trace is not None:
            files[f"trace_{spec.algorithm}.csv"] = trace_to_csv(trace)
        results[spec.algorithm] = {
            "binding": binding,
            "fitness": value,
            "mode": mode,
            "evaluations": evaluations,
        }
        lines.append(f"{spec.algorithm}: binding={binding} fitness={value:.4f} ({mode})")
    files["bindings.json"] = json.dumps(results, indent=2) + "\n"
    _write_outputs(out_dir, raw, config.master_seed, files)
    print("\n".join(lines))
    return EXIT_OK


def cmd_run(args) -> int:
    config, raw, out_dir = load_run_config(args.config)
    traces = [
        f"trace_{spec.algorithm}_fold{fold}.csv"
        for spec in config.classifier_specs
        for fold in range(config.cv_folds if "octx" in config.methods else 0)
    ]
    _refuse_directories(out_dir, ["metrics.csv", "summary.json", *traces])
    table = run_experiment(config)
    summary = json.dumps(table.summary(), indent=2) + "\n"
    files = {"metrics.csv": table.to_csv(), "summary.json": summary}
    for (alg, fold), trace in table.optimizer_traces.items():
        files[f"trace_{alg}_fold{fold}.csv"] = trace_to_csv(trace)
    _write_outputs(out_dir, raw, config.master_seed, files)
    print(f"wrote {out_dir / 'metrics.csv'} ({len(table.rows)} rows)")
    return EXIT_OK


def cmd_report(args) -> int:
    if not 0.0 < args.alpha < 1.0:  # nan fails the comparison too
        raise ConfigError(f"--alpha: must be in (0, 1), got {args.alpha}")
    out = _out_file(args.out)
    report = MetricsTable.from_csv(args.metrics).report(args.alpha)
    if out:
        out.write_text(json.dumps(report, indent=2) + "\n")
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


def build_parser():
    import argparse  # here, not at the top: a library caller of load_run_config needs no parser

    class _Parser(argparse.ArgumentParser):
        """A usage error is a ConfigError, so it ends as any bad input does (exit 1)."""

        def error(self, message):
            raise ConfigError(f"{self.prog}: {message}")

    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except InfeasibleStructure as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, UnicodeDecodeError, CtxclfError) as exc:  # decode: an input file is not text
        print(f"ERROR: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
