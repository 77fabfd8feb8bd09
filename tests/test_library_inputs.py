"""The library types refuse what the loader refuses: a hostile value either builds an object
or raises a CtxclfError or ValueError that names the field, never a bare Python error."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxclf.classifiers import ClassifierSpec
from ctxclf.context import Binding
from ctxclf.errors import CtxclfError, SignalsetError
from ctxclf.evaluation import RunConfig
from ctxclf.features import FeatureMask, FeatureVector
from ctxclf.optimize import EAParams
from ctxclf.signals import SignalRecord, SignalSet, segment
from conftest import flat_structure, toy_signalset

SSET = toy_signalset(num_classes=2, records_per_class=3, samples=32)
STRUCTURE = flat_structure(SSET.num_classes)
NAN, INF = float("nan"), float("inf")


def record(rate=1000, label=1):
    return SignalRecord("r", np.zeros((2, 32)), rate, label)


@pytest.mark.parametrize(
    "build, error, refusal",
    [
        (lambda: ClassifierSpec(seed=1.5), ValueError, "seed: expected an integer, got 1.5"),
        (lambda: ClassifierSpec(seed=NAN), ValueError, "seed: expected an integer, got nan"),
        (
            lambda: ClassifierSpec(num_trees=2.5),
            ValueError,
            "num_trees: expected an integer, got 2.5",
        ),
        (
            lambda: ClassifierSpec(num_trees=True),
            ValueError,
            "num_trees: expected an integer, got True",
        ),
        (
            lambda: EAParams(max_generations=2.5),
            ValueError,
            "max_generations: expected an integer, got 2.5",
        ),
        (
            lambda: RunConfig(SSET, STRUCTURE, cv_folds=2.5),
            ValueError,
            "cv_folds: expected an integer, got 2.5",
        ),
        (
            lambda: RunConfig(SSET, STRUCTURE, repetitions=1.5),
            ValueError,
            "repetitions: expected an integer, got 1.5",
        ),
        (
            lambda: RunConfig(SSET, STRUCTURE, master_seed=1.5),
            ValueError,
            "master_seed: expected an integer, got 1.5",
        ),
        (lambda: Binding((1.5,)), ValueError, "secondary[0]: expected an integer, got 1.5"),
        (lambda: Binding((2, True)), ValueError, "secondary[1]: expected an integer, got True"),
        (
            lambda: FeatureMask((INF,), (0.0,)),
            ValueError,
            "selected[0]: expected an integer, got inf",
        ),
        (
            lambda: record(rate=1000.5),
            SignalsetError,
            "record r: sample_rate_hz: expected an integer, got 1000.5",
        ),
        (
            lambda: record(rate="1000"),
            SignalsetError,
            "record r: sample_rate_hz: expected an integer, got '1000'",
        ),
        (
            lambda: record(label=1.0),
            SignalsetError,
            "record r: class_label: expected an integer, got 1.0",
        ),
        (lambda: segment(SSET, NAN), SignalsetError, "window_ms: expected an integer, got nan"),
        (lambda: segment(SSET, 20.5), SignalsetError, "window_ms: expected an integer, got 20.5"),
    ],
    ids=[
        "seed-fraction", "seed-nan", "num-trees-fraction", "num-trees-bool", "max-generations",
        "cv-folds", "repetitions", "master-seed", "secondary-fraction", "secondary-bool",
        "selected-inf", "rate-fraction", "rate-string", "label-float", "window-nan",
        "window-fraction",
    ],
)
def test_integer_fields_refuse_what_is_not_an_integer(build, error, refusal):
    """A float or a bool in an integer field was truncated (seed 1.5 trained the seed-1
    forest, Binding((1.5,)) built as (1,)), taken (num_trees 2.5, a 1.0 label saved as
    a_1.0.csv, which load_signalset refuses) or met a bare TypeError or ValueError later."""
    with pytest.raises(error, match=f"^{re.escape(refusal)}$"):
        build()


def test_a_record_with_a_non_finite_sample_is_refused():
    """save_signalset wrote such a record as it was, and load_signalset refused to read it back."""
    channels = np.zeros((2, 32))
    channels[1, 4] = NAN
    with pytest.raises(SignalsetError, match=r"^record r: non-finite sample values$"):
        SignalRecord("r", channels, 1000, 1)


def test_integer_fields_take_numpy_integers():
    """What operator.index takes is an integer; Binding stores it as a Python int."""
    assert ClassifierSpec(num_trees=np.int64(3), seed=np.uint8(7)).num_trees == 3
    assert type(Binding((np.int64(2), np.int32(1))).secondary[0]) is int
    assert FeatureMask((np.intp(1),), (0.0, 1.0)).selected == (1,)
    assert segment(SSET, np.int64(16)).records[0].num_samples == 16


# Each refusal message of the eight types, anchored: the property test accepts no other error.
REFUSALS = re.compile(
    "|".join(
        (
            r"(record r: )?\w+(\[\d+\])?: expected an integer, got .+",
            r"record r: channels must be 2-D, got \d+-D",
            r"record r: no channels",
            r"record r: \d+ samples, need >= 16",
            r"record r: non-finite sample values",
            r"record r: \S+ Hz is not finite and positive",
            r"signal set contains no records",
            r"record r\d: \d+ channels, expected \d+",
            r"record r\d: \d+ Hz, expected \d+",
            r"record r\d: label -?\d+, but a set of \d+ classes is labelled 1\.\.\d+",
            r"expected a 1-D multiple of 20 features, got \([\d, ]*\)",
            r"non-finite feature values",
            r"selected indices must be strictly increasing",
            r"selected index out of range",
            r"secondary assignment \([-\d, ]*\) is not a permutation of 1\.\.\d+",
            r"\w+: must be in \[[\d.]+, [\d.]+\], got \S+",
            r"\w+: must be >= \d, got -?\d+",
            r"feature_fraction: must be in \(0, 1\], got \S+",
            r"(master_)?seed: \d+ does not fit a 64-bit integer",
            r"(feature_fraction|crossover_prob|mutation_prob): expected a number, got ('x'|None)",
            r"(algorithm|crossover_op): expected a string, got \S+",
            r"algorithm: unknown algorithm 'x'",
            r"crossover_op: unknown crossover operator 'x'",
        )
    )
)

HOSTILE = st.sampled_from([0, -1, 2**64, NAN, INF, -INF, 1.5, True, "x", None])
ARRAYS = st.sampled_from(
    [
        np.zeros(0),
        np.zeros((0, 32)),
        np.zeros((2, 0)),
        np.zeros((0, 0)),
        np.zeros(()),
        np.full((2, 32), NAN),
        np.full(20, INF),
        np.full((1, 20), -1.0),
        np.full(40, 2.0**64),
        np.zeros((2, 32)),
    ]
)
SET_LABELS = st.sampled_from([1, 2, -1, 2**64])
FRACTIONS = st.sampled_from([0.5, 0.0, -1.0, NAN, INF, -INF, 1.5, 2**64, "x", None])
EA_INTS = ("population_size", "tournament_size", "stagnation_horizon", "max_generations")
RUN_INTS = (
    "cv_folds", "inner_folds", "repetitions", "inner_repetitions", "exhaustive_limit", "master_seed"
)


def value(valid):
    """The valid value, or a hostile one."""
    return st.one_of(st.just(valid), HOSTILE)


def builds_or_refuses(build):
    """Build one object; a refusal must be a CtxclfError or ValueError with a known message."""
    try:
        return build()
    except (CtxclfError, ValueError) as exc:
        assert REFUSALS.fullmatch(str(exc)), f"{type(exc).__name__}: {exc}"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_hostile_values_build_or_are_refused(data):
    """SignalRecord, SignalSet, FeatureVector, FeatureMask, Binding, ClassifierSpec, EAParams
    and RunConfig from empty and zero-width arrays, NaN, +-inf, 0, negative values, 2**64,
    1.5 or True in integer fields, and a string or None in every scalar field. A record with
    a non-finite channel value is refused, as the loader refuses one; a RunConfig's structure
    has the set's class count."""
    draw = data.draw
    channels, rate, label = draw(ARRAYS), draw(value(1000)), draw(value(1))
    builds_or_refuses(lambda: SignalRecord("r", channels, rate, label))
    # valid channels, so the rate and label checks run on every draw, not on 2 arrays in 10
    builds_or_refuses(lambda: SignalRecord("r", np.zeros((2, 32)), rate, label))
    records = tuple(
        SignalRecord(f"r{i}", np.zeros((draw(st.sampled_from([1, 2])), 32)), rate, label)
        for i, (rate, label) in enumerate(
            draw(st.lists(st.tuples(st.sampled_from([1000, 500, 2**64]), SET_LABELS), max_size=3))
        )
    )
    builds_or_refuses(lambda: SignalSet(records))
    values = draw(ARRAYS)
    builds_or_refuses(lambda: FeatureVector(values))
    selected = tuple(draw(st.lists(value(1), max_size=3)))
    scores = tuple(draw(st.lists(st.sampled_from([0.0, NAN, INF, -1.0]), max_size=3)))
    builds_or_refuses(lambda: FeatureMask(selected, scores))
    secondary = tuple(draw(st.lists(value(1), max_size=3)))
    builds_or_refuses(lambda: Binding(secondary))
    spec = {
        "algorithm": draw(value("GaussianNB")), "num_trees": draw(value(20)), "seed": draw(value(0))
    }
    builds_or_refuses(lambda: ClassifierSpec(**spec))
    ea = {name: draw(value(getattr(EAParams, name))) for name in EA_INTS}
    ea.update(
        crossover_op=draw(value("OX1")),
        crossover_prob=draw(FRACTIONS),
        mutation_prob=draw(FRACTIONS),
    )
    builds_or_refuses(lambda: EAParams(**ea))
    run = {name: draw(value(getattr(RunConfig, name))) for name in RUN_INTS}
    run.update(feature_fraction=draw(FRACTIONS))
    builds_or_refuses(lambda: RunConfig(SSET, STRUCTURE, **run))
