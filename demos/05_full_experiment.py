"""The full cross-validated Plain / RCtx / OCtx comparison.

Runs the sequence-level experiment on a synthetic signal set, prints the
per-method ZO and SqCov means, average ranks, and Wilcoxon-Holm tests.
The noise level is raised so the methods actually differ.
"""

from pathlib import Path

from ctxclf.classifiers import ClassifierSpec
from ctxclf.context import load_structure
from ctxclf.evaluation import RunConfig, run_experiment
from ctxclf.synth import synth_signalset

STRUCTURES = Path(__file__).resolve().parent.parent / "structures"


def main():
    sset = synth_signalset(
        num_classes=6, records_per_class=30, samples=128, noise=5.0, seed=11
    )
    config = RunConfig(
        signalset=sset,
        structure=load_structure(STRUCTURES / "six_class.json"),
        classifier_specs=(ClassifierSpec(algorithm="GaussianNB"),),
        cv_folds=6,
        repetitions=10,
        inner_repetitions=3,
        master_seed=11,
    )
    table = run_experiment(config)
    report = table.report()
    print(f"K = {table.sequences_per_fold} evaluated sequences per fold\n")

    for method, cell in report["summary"]["GaussianNB"].items():
        zo, sq = cell["zo"], cell["sqcov"]
        print(
            f"{method:<6} ZO {zo['mean']:.3f} +/- {zo['std']:.3f}   "
            f"SqCov {sq['mean']:.3f} +/- {sq['std']:.3f}"
        )

    print(f"\naverage SqCov ranks (3 = best): {report['ranks']['GaussianNB']['sqcov']}")
    for name, res in report["tests"]["GaussianNB"]["sqcov"].items():
        mark = " (significant)" if res["significant"] else ""
        print(f"  {name}: W={res['statistic']:.1f}, p={res['p_value']:.4f}{mark}")


if __name__ == "__main__":
    main()
