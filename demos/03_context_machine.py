"""The context ensemble as a finite-state machine.

Trains one classifier per box on a synthetic set, prints the box tree with
its movement/class tables, and traces a movement sequence through the
boxes, one current box at a time.
"""

from pathlib import Path

from ctxclf.classifiers import ClassifierSpec
from ctxclf.context import load_structure
from ctxclf.evaluation import generate_movement_sequences, sequence_to_classes
from ctxclf.features import feature_matrix
from ctxclf.optimize import feasible_set
from ctxclf.runtime import initial_state, step, train_ensemble
from ctxclf.synth import synth_signalset

STRUCTURES = Path(__file__).resolve().parent.parent / "structures"


def main():
    structure = load_structure(STRUCTURES / "six_class.json")
    binding = feasible_set(structure)[0]
    sset = synth_signalset(num_classes=6, records_per_class=20, samples=256, seed=4)
    X, y = feature_matrix(sset)
    ensemble = train_ensemble(structure, binding, X, y, ClassifierSpec(algorithm="GaussianNB"))

    print(ensemble.describe())

    seq = generate_movement_sequences(structure)[0]
    classes = sequence_to_classes(seq, structure, binding)
    print(f"\ntracing movement sequence {seq.movements} (classes {classes})")
    pools = {c: [i for i, label in enumerate(y) if label == c] for c in set(classes)}
    state = initial_state(ensemble)
    for movement, cls in zip(seq.movements, classes):
        x = X[pools[cls][0]]
        predicted, interpreted, state = step(ensemble, state, x)
        print(
            f"  true class {cls} -> predicted {predicted}, movement {interpreted} "
            f"(intended {movement}), now in box {state.box}"
        )
    print(f"machine back at the root: {state.box == structure.root.index}")


if __name__ == "__main__":
    main()
