"""Exact outputs that do not depend on how ``sum`` adds floats.

Up to CPython 3.11 ``sum`` adds floats one at a time from the left; from
3.12 it compensates for rounding (Neumaier), which can move the last bit.
xlingua adds floats with ``kernels.ordered_sum`` wherever a result is
pinned, so these checks replace the ``sum`` of every xlingua module with
a compensated sum and run the golden reports, the corpus digests and the
engine-versus-scalar equality of the stream pool under it.
"""

import builtins
import importlib
import math
import pkgutil
import random

import pytest

import test_golden
import test_stream_pool
import test_synthesis
import xlingua
from xlingua.assign import DescriptorVector
from xlingua.cli import _t3_distractors
from xlingua.harness import MODES, build_pipeline
from xlingua.profiles import AssociateProfile
from xlingua.similarity import cosine
from xlingua.synthesis import _WEIGHT_ALPHA, SyntheticSpec, _mix_weights, generate_synthetic

MODULES = [
    importlib.import_module(f"xlingua.{m.name}")
    for m in pkgutil.iter_modules(xlingua.__path__)
    if not m.name.startswith("__")
]


def compensated_sum(iterable, /, start=0):
    """``sum`` as CPython 3.12 computes it over floats: Neumaier's compensated sum."""
    items = list(iterable)
    values = [start, *items]
    numbers = all(isinstance(x, (int, float)) for x in values)
    if not numbers or not any(isinstance(x, float) for x in values):
        return builtins.sum(items, start)
    total = compensation = 0.0
    for x in map(float, values):
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


def left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


@pytest.fixture(scope="module", autouse=True)
def compensated():
    with pytest.MonkeyPatch.context() as mp:
        for module in MODULES:
            mp.setattr(module, "sum", compensated_sum, raising=False)
        yield


def test_the_patched_sum_compensates_in_every_module():
    assert compensated_sum([0.1] * 10) == 1.0 != left_to_right([0.1] * 10)
    assert compensated_sum([1, 2, 3]) == 6 and compensated_sum([], 0.5) == 0.5
    assert {m.__name__ for m in MODULES} >= {
        "xlingua.assign",
        "xlingua.profiles",
        "xlingua.similarity",
        "xlingua.synthesis",
    }
    assert all(m.sum is compensated_sum for m in MODULES)


def test_each_pinned_float_sum_adds_left_to_right():
    w = [0.1] * 10  # a sum and a sum of squares that compensation changes
    squares = [x * x for x in w]
    assert compensated_sum(w) != left_to_right(w)
    assert math.sqrt(compensated_sum(squares)) != math.sqrt(left_to_right(squares))
    v = DescriptorVector("v", "en", dict(enumerate(w)))
    ones = DescriptorVector("ones", "es", dict.fromkeys(range(10), 1.0))
    assert v.norm() == math.sqrt(left_to_right(squares))
    assert cosine(v, ones) == left_to_right(w) / (v.norm() * ones.norm())
    profile = AssociateProfile.from_associates(1, "en", [(f"l{i}", x) for i, x in enumerate(w)])
    assert profile.norm == v.norm()
    rng = random.Random(0)
    raw = [rng.gammavariate(_WEIGHT_ALPHA, 1.0) for _ in range(4)]
    assert compensated_sum(raw) != left_to_right(raw)
    assert _mix_weights(4, random.Random(0)) == tuple(x / left_to_right(raw) for x in raw)


@pytest.fixture(scope="module")
def default_pipeline(compensated):
    spec = SyntheticSpec()
    return build_pipeline(generate_synthetic(spec)), _t3_distractors(spec)


@pytest.mark.parametrize("mode", MODES)
def test_golden_reports(default_pipeline, mode):
    test_golden.test_default_spec_report_matches_the_golden_file(default_pipeline, mode)


@pytest.mark.parametrize("kw, digest", test_synthesis.PINNED_CORPORA, ids=test_synthesis.PINNED_IDS)
def test_corpus_digests(kw, digest):
    test_synthesis.test_corpus_bytes_are_pinned(kw, digest)


def test_engine_equals_the_scalar_cosine_over_a_growing_pool():
    test_stream_pool.test_a_pool_growing_by_appends_scores_like_fresh_copies()
