"""Differential tests: the shared push-form inversion against the reference.

The reference (``oracles``) rebuilds divisors and Mobius values for every
index; the package inverts once over a Mobius table and skips indices whose
term is 1.  Verdicts, witnesses and whole reports must agree.
"""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import seqlab.experiment as experiment
import seqlab.realizability as realizability
from seqlab.experiment import OBSERVATION_CATALOG, ExperimentSpec, catalog_spec, run_experiment
from seqlab.realizability import (
    Sequence1,
    arias_criterion,
    check_realizable,
    dold_sign,
    orbit_counts,
    p_part_sequence,
)
import oracles

dense = st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=40)


@st.composite
def p_part_like(draw):
    # mostly 1s with a few powers of q, the shape a local scan inverts
    q = draw(st.sampled_from([2, 3, 5, 7]))
    exps = st.sampled_from([0] * 8 + [1, 1, 2, 3])
    return [q**e for e in draw(st.lists(exps, min_size=1, max_size=72))]


prefixes = st.one_of(dense, p_part_like())


@settings(max_examples=200)
@given(prefixes)
def test_orbit_counts_match_reference(values):
    got = orbit_counts(Sequence1(values)).values
    assert got == oracles.orbit_counts_ref(values)
    assert got == tuple(oracles.mobius_sum(values, n) for n in range(1, len(values) + 1))


@settings(max_examples=200)
@given(prefixes)
def test_checks_match_reference(values):
    ref = oracles.check_realizable_ref(values)
    assert check_realizable(Sequence1(values)) == ref
    assert dold_sign(tuple(values)) == (ref.dold, ref.sign)
    assert arias_criterion(Sequence1(values)) == oracles.arias_criterion_ref(values)


@given(
    st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=30),
    st.sampled_from([2, 3, 5, 7, 11, 61]),
)
def test_p_part_sequence_matches_gcd(values, q):
    expected = tuple(gcd(v, q ** v.bit_length()) for v in values)
    assert p_part_sequence(Sequence1(values), q).values == expected


def test_all_ones_prefix_passes_everything():
    ref = oracles.check_realizable_ref([1] * 300)
    assert dold_sign((1,) * 300) == (ref.dold, ref.sign)
    assert ref.dold.passed and ref.sign.passed


SPECS = [catalog_spec(a) for a in OBSERVATION_CATALOG] + [
    ExperimentSpec(source="e", depth=60, prime_limit=200, include_magical=True),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.source)
def test_reports_match_reference_verdicts(spec, monkeypatch):
    doc = run_experiment(spec)

    def reference_dold_sign(values):
        ref = oracles.check_realizable_ref(values)
        return ref.dold, ref.sign

    def reference_check(seq):
        return oracles.check_realizable_ref(seq.values)

    monkeypatch.setattr(experiment, "dold_sign", reference_dold_sign)
    monkeypatch.setattr(experiment, "check_realizable", reference_check)
    monkeypatch.setattr(realizability, "check_realizable", reference_check)
    assert run_experiment(spec) == doc
