"""The full cross-validated Plain / RCtx / OCtx comparison.

Runs the sequence-level experiment on a synthetic signal set, prints the
per-method ZO and SqCov means, average ranks, and Wilcoxon-Holm tests.
The noise level is raised so the methods actually differ.
"""

from pathlib import Path

import numpy as np

from ctxclf.classifiers import ClassifierSpec
from ctxclf.context import load_structure
from ctxclf.evaluation import RunConfig, run_experiment
from ctxclf.stats import average_ranks, wilcoxon_holm
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
    print(f"K = {table.sequences_per_fold} evaluated sequences per fold\n")

    for method in ("plain", "rctx", "octx"):
        zo = table.values(method, "GaussianNB", "zo")
        sq = table.values(method, "GaussianNB", "sqcov")
        print(
            f"{method:<6} ZO {np.mean(zo):.3f} +/- {np.std(zo, ddof=1):.3f}   "
            f"SqCov {np.mean(sq):.3f} +/- {np.std(sq, ddof=1):.3f}"
        )

    folds = sorted({r.fold for r in table.rows})
    subjects = [
        {m: table.values(m, "GaussianNB", "sqcov")[f] for m in ("plain", "rctx", "octx")}
        for f in range(len(folds))
    ]
    print(f"\naverage SqCov ranks (3 = best): {average_ranks(subjects)}")

    paired = {
        "octx vs plain": (
            table.values("octx", "GaussianNB", "sqcov"),
            table.values("plain", "GaussianNB", "sqcov"),
        ),
        "octx vs rctx": (
            table.values("octx", "GaussianNB", "sqcov"),
            table.values("rctx", "GaussianNB", "sqcov"),
        ),
        "rctx vs plain": (
            table.values("rctx", "GaussianNB", "sqcov"),
            table.values("plain", "GaussianNB", "sqcov"),
        ),
    }
    for name, res in wilcoxon_holm(paired).items():
        mark = " (significant)" if res["significant"] else ""
        print(f"  {name}: W={res['statistic']:.1f}, p={res['p_value']:.4f}{mark}")


if __name__ == "__main__":
    main()
