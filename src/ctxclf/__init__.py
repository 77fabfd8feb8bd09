"""Context-dependent classification of multichannel biosignal records.

The library covers the whole pipeline for sequential movement control:
loading and windowing labelled signal records, wavelet feature extraction
with a mutual-information filter, pluggable base classifiers, nested box
contexts with per-box class interpretation, combinatorial optimization of
the movement-to-class binding (exhaustive and evolutionary), a finite-state
ensemble runtime, and sequence-level evaluation (ZO / SqCov) with rank and
significance aggregation.
"""

from ctxclf.signals import SignalRecord, SignalSet, load_signalset, segment, stratified_folds
from ctxclf.context import (
    ContextStructure,
    BoxNode,
    Binding,
    ConstraintTable,
    load_structure,
    validate_structure,
    local_classes,
    derive_constraints,
    enumerate_feasible,
)
from ctxclf.features import (
    FeatureVector,
    FeatureMask,
    extract_features,
    feature_matrix,
    mutual_information,
    select_features,
)
from ctxclf.wavelet import dwt_db6
from ctxclf.classifiers import ClassifierSpec, train, predict
from ctxclf.optimize import (
    EAParams,
    Fitness,
    kendall_tau,
    crossover,
    mutate,
    repair,
    exhaustive_search,
    ea_search,
)
from ctxclf.runtime import ContextEnsemble, train_ensemble, train_plain, step, reset
from ctxclf.evaluation import (
    SequenceOutcome,
    generate_movement_sequences,
    sequence_to_classes,
    sample_object_sequences,
    evaluate_sequence,
    zo_metric,
    sqcov_metric,
    run_experiment,
    RunConfig,
)
from ctxclf.stats import average_ranks, wilcoxon_signed_rank, holm, wilcoxon_holm
from ctxclf.structures import (
    eight_class_grips,
    five_class_example,
    flat_structure,
    six_class_nested,
)
from ctxclf.synth import synth_signalset

__version__ = "0.1.0"
