"""The process-wide tangent/secant tables against the one-shot reference.

Every public number engine reads one resumable table per engine.  These tests
replay request sequences in arbitrary depth order on fresh tables and compare
each result with the seed's one-shot recurrence (``oracles.tangent_secant_ref``),
check that callers cannot reach the shared state, and that an extension that
dies part-way leaves the previous table in place.  The Bernoulli numbers
assembled over their von Staudt-Clausen denominators are compared with the
gcd-reduced reference (``oracles.bernoulli_from_tangent_ref``) to depth 1000,
with the t and b columns the tangent table keeps beside them; the Clausen
table is emptied and rebuilt with the others.
"""

import inspect
import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from seqlab import classical, congruences, primes
from seqlab.bfile import bundled_fixture_text, parse_bfile, to_sequence
from seqlab.classical import (
    BernoulliTable,
    DerivedBernoulli,
    EulerTable,
    bernoulli_upto,
    clausen_denominator,
    derived_bernoulli,
    euler_upto,
    secant_numbers,
    sequence_e,
    tangent_numbers,
)
from seqlab.realizability import Sequence1
from oracles import bernoulli_from_tangent_ref, tangent_secant_ref

DEPTH = 60
EXAMPLES = settings.default.max_examples  # 100, or 1000 under --hypothesis-profile=ci
T_REF = tangent_secant_ref(DEPTH - 1, 2)  # T_1..T_DEPTH
S_REF = tangent_secant_ref(DEPTH, 1)  # |E_0|..|E_{2 DEPTH}|
B_REF = [
    Fraction((-1) ** (n - 1) * 2 * n * t, 4**n * (4**n - 1))
    for n, t in enumerate(T_REF, start=1)
]


@contextmanager
def fresh_tables():
    """Run with empty tables in place of the process-wide ones."""
    tangent, secant = classical._TANGENT, classical._SECANT
    with patch.object(classical, "_TANGENT", classical._Recurrence(tangent._c, tangent._output, 3)), \
            patch.object(classical, "_SECANT", classical._Recurrence(secant._c, secant._output, 1)), \
            patch.object(classical, "_CLAUSEN", ()):
        yield


def expected(name, N):
    """The request's result rebuilt from the reference, or ValueError."""
    if N < 1 and name in ("tangent_numbers", "bernoulli_upto", "euler_upto", "derived_bernoulli",
                          "sequence_e"):
        return ValueError
    if name == "tangent_numbers":
        return T_REF[:N]
    if name == "secant_numbers":
        return S_REF[1 : N + 1]
    if name == "bernoulli_upto":
        return BernoulliTable(N, tuple(B_REF[:N]))
    if name == "euler_upto":
        return EulerTable(N, tuple((-1) ** n * s for n, s in enumerate(S_REF[1 : N + 1], start=1)))
    if name == "sequence_e":
        return ("e", tuple(S_REF[1 : N + 1]))
    # |B_2n|/2n in lowest terms; the Clausen denominator is that of B_2n
    quotients = [abs(b) / (2 * n) for n, b in enumerate(B_REF[:N], start=1)]
    return DerivedBernoulli(
        N,
        Sequence1(tuple(f.numerator for f in quotients), "t"),
        Sequence1(tuple(f.denominator for f in quotients), "b"),
        Sequence1(tuple(b.denominator for b in B_REF[:N]), "d"),
    )


def actual(name, N):
    try:
        result = getattr(classical, name)(N)
    except ValueError:
        return ValueError
    if name == "sequence_e":
        return (result.label, result.values)
    return result


ENGINES = ("tangent_numbers", "secant_numbers", "bernoulli_upto", "euler_upto", "sequence_e", "derived_bernoulli")
requests = st.lists(st.tuples(st.sampled_from(ENGINES), st.integers(0, DEPTH)), min_size=1, max_size=8)
orders = st.one_of(
    requests,
    requests.map(lambda r: sorted(r, key=lambda q: q[1])),
    requests.map(lambda r: sorted(r, key=lambda q: -q[1])),
    requests.map(lambda r: r + r),
)


@settings(max_examples=3 * EXAMPLES // 2, deadline=None)
@given(orders)
@example([("tangent_numbers", 0), ("bernoulli_upto", 0), ("derived_bernoulli", 0), ("secant_numbers", 0)])
@example([(name, N) for N in (0, 1) for name in ENGINES])
@example([(name, N) for N in (1, 0) for name in ENGINES])
@example([("sequence_e", DEPTH), ("euler_upto", 1), ("bernoulli_upto", DEPTH), ("tangent_numbers", 2)])
def test_any_request_order_matches_the_one_shot_recurrence(order):
    with fresh_tables():
        for name, N in order:
            assert actual(name, N) == expected(name, N), (name, N)


def test_a_family_that_reads_no_bernoulli_number_builds_no_tangent_table():
    # staying-alive reads powers of 5 only; run_oracle_grids refuses upto < 1 itself
    with fresh_tables():
        congruences.run_oracle_grids(family="staying-alive", upto=200)
        assert classical._TANGENT._state == (((), (), ()), [])


def test_reference_tables_are_the_classical_numbers():
    assert T_REF[:5] == [1, 2, 16, 272, 7936]
    assert S_REF[:5] == [1, 1, 5, 61, 1385]
    assert B_REF[:3] == [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42)]


def test_tangent_numbers_match_the_one_shot_recurrence_at_depth_1000():
    # each T_n is rebuilt from the kept B_2n by shifts and one exact division
    assert tangent_numbers(1000) == tangent_secant_ref(999, 2)


def test_returned_values_cannot_reach_the_tables():
    with fresh_tables():
        t, s = tangent_numbers(12), secant_numbers(12)
        t[0] = s[0] = 99
        t.append(0)
        s.clear()
        assert tangent_numbers(12) == T_REF[:12]
        assert secant_numbers(12) == S_REF[1:13]
        assert tangent_numbers(12) is not tangent_numbers(12)
        assert secant_numbers(12) is not secant_numbers(12)
        for values in (bernoulli_upto(12).values, euler_upto(12).values, sequence_e(12).values):
            assert type(values) is tuple


def test_shallower_requests_slice_and_deeper_ones_build_only_new_columns():
    with fresh_tables():
        built = []
        output = classical._TANGENT._output

        def counting(j, x):
            built.append(j)
            return output(j, x)

        with patch.object(classical._TANGENT, "_output", counting):
            bernoulli_upto(30)
            assert built == list(range(30))
            tangent_numbers(20), derived_bernoulli(25), bernoulli_upto(30)
            assert len(built) == 30
            assert derived_bernoulli(45) == expected("derived_bernoulli", 45)
            assert built == list(range(45))
        assert bernoulli_upto(45).values == tuple(B_REF[:45])


def test_kept_derived_columns_serve_every_depth():
    # t and b are reduced once per column, by gcd(a, 2n), when the tangent
    # table extends: 60 gcds, where reducing per call would take 40 + 20 + 60
    with fresh_tables():
        calls = []
        with patch.object(classical, "gcd", lambda a, b: calls.append(b) or gcd(a, b)):
            for N in (40, 20, 60):
                assert derived_bernoulli(N) == expected("derived_bernoulli", N)
        assert calls == [2 * n for n in range(1, 61)]
        assert classical._CLAUSEN == tuple(map(clausen_denominator, range(1, 61)))


@pytest.mark.parametrize("interrupt", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize(
    "engine, deep",
    [("_TANGENT", bernoulli_upto), ("_TANGENT", derived_bernoulli), ("_SECANT", secant_numbers)],
)
def test_interrupted_extension_keeps_the_previous_table(engine, deep, interrupt):
    with fresh_tables():
        derived_bernoulli(10), secant_numbers(10)
        table = getattr(classical, engine)
        before = table._state
        output = table._output

        def failing(j, x):
            if j == 25:
                raise interrupt("interrupted part-way")
            return output(j, x)

        with patch.object(table, "_output", failing), pytest.raises(interrupt):
            deep(40)
        assert table._state is before
        for name in ENGINES:
            for N in (5, 10, 40, DEPTH):
                assert actual(name, N) == expected(name, N), (name, N)
        with pytest.raises(ValueError, match="^depth must be >= 1, got 0$"):
            derived_bernoulli(0)


def test_threads_extending_at_once_get_correct_tables():
    depths = [(name, N) for N in (7, 60, 1, 33, 48, 12) for name in ENGINES]
    failures = []

    def worker(offset):
        for name, N in depths[offset:] + depths[:offset]:
            if actual(name, N) != expected(name, N):
                failures.append((name, N))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with fresh_tables():
            threads = [threading.Thread(target=worker, args=(7 * i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []


@pytest.mark.parametrize("euler_first", [True, False])
def test_shared_tables_match_the_bundled_fixtures(euler_first):
    def bundled(a_number):
        return parse_bfile(bundled_fixture_text(a_number)).values

    with fresh_tables():
        if euler_first:
            e, table = sequence_e(120), bernoulli_upto(320)
        else:
            table, e = bernoulli_upto(320), sequence_e(120)
    assert e.values == bundled("A000364")
    quotients = [table.B(2 * n) / (2 * n) for n in range(1, 321)]
    assert tuple(q.numerator for q in quotients) == bundled("A001067")
    assert tuple(q.denominator for q in quotients) == bundled("A006953")


def test_bernoulli_numbers_from_their_clausen_denominators_match_the_gcd():
    # every column to depth 1000 from a fresh recurrence that keeps T_n
    # itself, with t and b read off the reference B_2n as |B_2n| / (2n)
    (tangents,) = classical._Recurrence(2, lambda j, x: (x,), 1).columns(999)
    assert len(tangents) == 1000 and tangents[:DEPTH] == tuple(T_REF)
    for k, t in enumerate(tangents):
        B = bernoulli_from_tangent_ref(k, t)
        quotient = abs(B) / (2 * k + 2)
        assert classical._bernoulli_from_tangent(k, t) == (B, quotient.numerator, quotient.denominator), k + 1


@pytest.mark.parametrize("n", [2, 5, 50])
def test_a_tangent_number_off_by_one_is_an_engine_defect(n):
    with pytest.raises(RuntimeError, match="engine defect"):
        classical._bernoulli_from_tangent(n - 1, T_REF[n - 1] + 1)


def test_clausen_table_extends_by_its_missing_entries(monkeypatch):
    monkeypatch.setattr(classical, "_CLAUSEN", ())
    for N in (1, 2, 7, 6, 30, 31, 200):
        assert classical._clausen_table(N)[:N] == tuple(map(clausen_denominator, range(1, N + 1))), N


def test_import_builds_no_table():
    code = (
        "import seqlab, seqlab.cli\n"
        "from seqlab import classical\n"
        "assert classical._TANGENT._state == (((), (), ()), []), classical._TANGENT._state\n"
        "assert classical._SECANT._state == (((),), []), classical._SECANT._state\n"
        "assert classical._CLAUSEN == (), classical._CLAUSEN\n"
    )
    src = str(Path(classical.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_no_public_function_takes_an_optional_table():
    # the process-wide tables are the one source: a reader builds its own
    # slice, and only the one-prime classifiers take required inputs
    table_types = ("BernoulliTable", "EulerTable", "DerivedBernoulli")
    optional = [
        f"{module.__name__}.{name}({param.name})"
        for module in (classical, congruences, primes)
        for name, func in vars(module).items()
        if inspect.isfunction(func) and func.__module__ == module.__name__ and not name.startswith("_")
        for param in inspect.signature(func).parameters.values()
        if param.default is not param.empty and any(t in str(param.annotation) for t in table_types)
    ]
    assert optional == []
    assert "label" not in inspect.signature(to_sequence).parameters
