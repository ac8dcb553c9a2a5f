import json

import pytest

from seqlab.bfile import bundled_fixture_text, parse_bfile
from seqlab.errors import DepthError
from seqlab.experiment import (
    OBSERVATION_CATALOG,
    ExperimentSpec,
    catalog_spec,
    load_sequence,
    not_realizable_primes,
    realizable_star_primes,
    render_report,
    run_experiment,
)
import seqlab.realizability as realizability
from seqlab.realizability import Sequence1, check_realizable, least_failure, magical_report, shift
import oracles


def test_load_builtins():
    assert load_sequence(ExperimentSpec("e", depth=4)).values == (1, 5, 61, 1385)
    assert load_sequence(ExperimentSpec("t", depth=6)).values == (1, 1, 1, 1, 1, 691)
    assert load_sequence(ExperimentSpec("b", depth=4)).values == (12, 120, 252, 240)
    assert load_sequence(ExperimentSpec("d", depth=3)).values == (6, 30, 42)


def test_load_fixture_with_scale():
    seq = load_sequence(ExperimentSpec("A054783", scale=5))
    assert seq.values[:4] == (5, 15, 170, 4935)
    assert seq.label.startswith("5x")


def test_load_local_path(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("1 1\n2 2\n3 4\n")
    assert load_sequence(ExperimentSpec(str(p))).values == (1, 2, 4)


def test_load_sequence_returns_the_prefix_the_report_checks(tmp_path):
    # depth counts the terms after the shift, for every kind of source
    path = tmp_path / "seq.txt"
    path.write_text("".join(f"{n} {3 * n + 1}\n" for n in range(5, 45)))
    full = {
        "e": tuple(abs(E) for n, E in sorted(oracles.euler_series(60).items()) if n),
        str(path): tuple(3 * n + 1 for n in range(5, 45)),
        "A000032": parse_bfile(bundled_fixture_text("A000032")).values,
    }
    for source, terms in full.items():
        for depth, k in [(1, 0), (7, 3), (20, 10)]:
            spec = ExperimentSpec(source, depth=depth, shift=k, primes=())
            seq = load_sequence(spec)
            assert seq.values == terms[k:k + depth]
            doc = run_experiment(spec)
            assert (seq.label, len(seq)) == (doc["sequence_id"], doc["depth"])


def test_catalog_presets_are_frozen_specs():
    before = dict(OBSERVATION_CATALOG)
    preset = OBSERVATION_CATALOG["A000032"]
    narrowed = ExperimentSpec(**{**vars(preset), "depth": 10, "prime_limit": None, "primes": (7,)})
    assert catalog_spec("A000032", depth=10, prime_limit=None, primes=(7,)) == narrowed
    assert OBSERVATION_CATALOG == before and preset.depth == 38
    with pytest.raises(AttributeError, match="^cannot assign to field 'depth'$"):
        preset.depth = 10
    assert all(spec.local_checks == ("dold",) for spec in OBSERVATION_CATALOG.values())


def test_spec_refuses_a_prime_limit_with_explicit_primes():
    # the explicit list would silently drop the limit
    message = "^prime_limit and primes exclude each other; give one of them$"
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(source="e", prime_limit=50, primes=(7,))
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(source="e", prime_limit=50, primes=())  # an empty scan would drop it too
    with pytest.raises(ValueError, match=message):
        catalog_spec("A000032", primes=(7,))
    assert catalog_spec("A000032", prime_limit=None, primes=(7,)).primes == (7,)


def test_spec_holds_one_normal_form():
    spec = ExperimentSpec("e", primes=[61, 7, 7], local_checks=["dold"])
    assert (spec.primes, spec.local_checks) == ((7, 61), ("dold",))
    assert ExperimentSpec("e", primes=[7, 7, 61]).primes == (7, 61)
    assert ExperimentSpec("e", primes=iter([61, 7])).primes == (7, 61)  # an iterator read once
    assert spec == ExperimentSpec("e", primes=(7, 61), local_checks=("dold",))
    assert hash(spec) == hash(ExperimentSpec("e", primes=(7, 61), local_checks=("dold",)))
    # local_checks in CHECKS order without repeats: the same survey is one spec
    assert ExperimentSpec("e", local_checks=("sign", "dold")) == ExperimentSpec("e")
    assert ExperimentSpec("e", local_checks=["sign", "sign"]).local_checks == ("sign",)


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_a_repeated_prime_is_scanned_once(fmt):
    once = run_experiment(ExperimentSpec("e", depth=20, primes=(7, 61)))
    twice = run_experiment(ExperimentSpec("e", depth=20, primes=(7, 7, 61, 61)))
    assert render_report(twice, fmt) == render_report(once, fmt)


def test_no_max_shift_no_magical_section():
    assert "magical" not in run_experiment(ExperimentSpec("e", depth=10))


def test_run_experiment_depth_guard():
    with pytest.raises(DepthError):
        run_experiment(ExperimentSpec(source="A010122", depth=100))


@pytest.mark.parametrize("source", ["t", "b", "d", "e"])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_shifted_builtin_checks_the_terms_after_the_shift(tmp_path, source, k):
    # the same report as a b-file holding exactly a_{k+1}..a_{k+20}
    terms = load_sequence(ExperimentSpec(source, depth=k + 20)).values[k:]
    path = tmp_path / "shifted.txt"
    path.write_text("".join(f"{n} {v}\n" for n, v in enumerate(terms, start=1)))
    fields = dict(depth=20, prime_limit=30, max_shift=2)
    doc = run_experiment(ExperimentSpec(source=source, shift=k, **fields))
    expected = run_experiment(ExperimentSpec(source=str(path), **fields))
    assert doc["sequence_id"] == f"{source}>>{k}"
    assert doc == dict(expected, sequence_id=doc["sequence_id"])


def count_validations(monkeypatch):
    """A list that grows by one for each Sequence1 validated from here on."""
    calls = []
    post_init = Sequence1.__post_init__
    monkeypatch.setattr(Sequence1, "__post_init__",
                        lambda self: calls.append(len(self.values)) or post_init(self))
    return calls


@pytest.mark.parametrize("source", ["t", "b", "d", "e"])
def test_an_unshifted_builtin_load_validates_one_prefix(monkeypatch, source):
    # the builtin is a slice of its kept table, and the prefix returned is
    # the one Sequence1 built
    spec = ExperimentSpec(source, depth=400)
    load_sequence(spec)  # warm: the table reaches depth 400
    calls = count_validations(monkeypatch)
    seq = load_sequence(spec)
    assert calls == [400]
    assert (seq.values, seq.label) == oracles.load_builtin_ref(source, 400, 0, 1, None)


@pytest.mark.parametrize("source", ["t", "b", "d", "e"])
def test_a_shifted_builtin_load_validates_one_prefix(monkeypatch, source):
    # the shift acts on the terms and label alone, as the scale and the cut do
    spec = ExperimentSpec(source, depth=400, shift=5)
    load_sequence(spec)
    calls = count_validations(monkeypatch)
    seq = load_sequence(spec)
    assert calls == [400]
    assert (seq.values, seq.label) == oracles.load_builtin_ref(source, 400, 5, 1, None)


@pytest.mark.parametrize("a_number", sorted(OBSERVATION_CATALOG) + ["A000032>>2"])
def test_a_catalog_preset_load_validates_at_most_two_prefixes(monkeypatch, a_number):
    # the b-file's terms, then the prefix returned; scale, label and shift build none
    spec = (catalog_spec("A000032", depth=30, shift=2) if a_number == "A000032>>2"
            else OBSERVATION_CATALOG[a_number])
    load_sequence(spec)
    calls = count_validations(monkeypatch)
    load_sequence(spec)
    assert len(calls) <= 2


@pytest.mark.parametrize("kind", ["bernoulli", "euler"])
def test_a_prime_scan_validates_no_prefix(monkeypatch, kind):
    from seqlab.primes import scan_primes

    scan_primes(kind, 400)
    calls = count_validations(monkeypatch)
    scan_primes(kind, 400)
    assert calls == []


def test_builtin_loads_match_the_public_readers():
    # values, labels and refusals, against derived_bernoulli / sequence_e
    # scaled, relabelled and shifted by realizability.shift
    for source in ("t", "b", "d", "e"):
        for depth in (1, 17, 200, None):
            for k in (0, 1, 5, 250):
                for scale in (1, 3):
                    for label in (None, "x"):
                        spec = ExperimentSpec(source, depth=depth, shift=k, scale=scale, label=label)
                        try:
                            seq = load_sequence(spec)
                            got = seq.values, seq.label
                        except ValueError as exc:
                            got = ValueError, str(exc)
                        assert got == oracles.load_builtin_ref(source, depth, k, scale, label), \
                            (source, depth, k, scale, label)
    with pytest.raises(ValueError, match="^shift must be <= 199, got 250$"):
        load_sequence(ExperimentSpec("t", shift=250))


@pytest.mark.parametrize("field,value,message", [
    ("scale", 0, "scale must be >= 1"),
    ("scale", -2, "scale must be >= 1"),
    ("shift", -1, "shift must be >= 0"),
])
def test_spec_refuses_scale_and_shift_before_loading(field, value, message):
    # A999999 has no fixture: reading it first would raise FixtureMissingError
    with pytest.raises(ValueError, match=f"^{message}, got {value}$"):
        ExperimentSpec(source="A999999", **{field: value})


@pytest.mark.parametrize("fields,message", [
    (dict(primes=(7, 4, 1)), "prime expected, got 1"),
    (dict(primes=[0]), "prime expected, got 0"),
    (dict(primes=(-3, 5)), "prime expected, got -3"),
    (dict(depth=5, max_shift=5), "max_shift must be <= 4, got 5"),
    (dict(depth=1, max_shift=40), "max_shift must be <= 0, got 40"),
])
def test_spec_refuses_primes_and_max_shift_before_loading(fields, message):
    # in the words of localize and magical_report, which would refuse them
    # only after the source is read
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExperimentSpec(source="A999999", **fields)


@pytest.mark.parametrize("fields,name", [
    (dict(depth=6.0), "depth"),
    (dict(shift=1.0), "shift"),
    (dict(scale=1.5), "scale"),
    (dict(prime_limit=50.0), "prime_limit"),
    (dict(max_shift=2.0), "max_shift"),
    (dict(primes=(61.0,)), "primes"),
    (dict(primes=(7, 61.0)), "primes"),
    (dict(shift=None), "shift"),
    (dict(scale=None), "scale"),
    (dict(primes=(7, None)), "primes"),
], ids=repr)
def test_spec_refuses_a_non_integer_number_by_name_before_loading(fields, name):
    # each float passed its >= guard or is_prime, and failed only after the
    # source was read; each None failed a comparison that named no field
    value = next(v for v in (*fields.values(), *fields.get("primes", ()))
                 if not isinstance(v, (int, tuple)))
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value}$"):
        run_experiment(ExperimentSpec("no/such/dir/sequence.txt", **fields))


def test_local_witness_e61():
    doc = run_experiment(
        ExperimentSpec(source="e", depth=20, primes=(61,), local_checks=("dold", "sign"))
    )
    row = doc["local"][0]
    assert row["status"] == "not-realizable"
    # earliest witness overall is the sign failure at 6; the Dold witness is 9
    assert row["witness"] == {"check": "sign", "n": 6, "value": -60}
    doc = run_experiment(ExperimentSpec(source="e", depth=20, primes=(61,),
                                        local_checks=("dold",)))
    assert doc["local"][0]["witness"] == {"check": "dold", "n": 9, "value": -60}
    assert "not nilpotently realizable" in doc["annotations"][0]


def test_json_round_trip_and_determinism():
    spec = catalog_spec("A000032")
    doc = run_experiment(spec)
    text = render_report(doc, "json")
    assert json.loads(text) == doc
    assert render_report(run_experiment(catalog_spec("A000032")), "json") == text


def test_csv_row_count_is_primes_scanned():
    doc = run_experiment(ExperimentSpec(source="e", depth=30, prime_limit=30))
    out = render_report(doc, "csv")
    rows = out.strip().splitlines()
    assert len(rows) - 1 == len(doc["local"])  # header + one row per prime


def test_table_format_mentions_witness():
    doc = run_experiment(ExperimentSpec(source="e", depth=20, primes=(61,)))
    table = render_report(doc, "table")
    assert "not realizable at:" in table
    assert "61" in table


def test_all_formats_carry_global_checks():
    doc = run_experiment(ExperimentSpec(source="e", depth=10, primes=()))
    for fmt in ("table", "json", "csv"):
        out = render_report(doc, fmt)
        assert "dold" in out


def test_magical_section():
    doc = run_experiment(
        ExperimentSpec(source="A000032", depth=30, primes=(), max_shift=1)
    )
    mag = doc["magical"]
    assert mag["all_pass"] is False
    assert mag["entries"][0]["status"] == "pass"
    assert mag["entries"][1]["witness"]["n"] == 2


def _magical_ref(seq, max_shift):
    # the section as built from full reference reports, one per shift
    entries, all_pass, _ = oracles.magical_report_ref(seq.values, max_shift)
    section = []
    for k, dold, sign in entries:
        failure = oracles.least_failure_ref((("dold", dold), ("sign", sign)))
        witness = None if failure is None else {
            "check": failure[0], "n": failure[1].n, "value": failure[1].value}
        # shift k is checked on the terms after it, its horizon N - k
        section.append({"shift": k, "checked_upto": len(seq) - k,
                        "status": "pass" if witness is None else "fail", "witness": witness})
    return {"max_shift": max_shift, "all_pass": all_pass, "entries": section}


@pytest.mark.parametrize("source,depth,max_shift,drop", [
    ("A000032", 30, 1, 0),  # the README example
    ("e", 60, 5, 0),
    ("A000032", 38, 5, 0),
    ("A000032", 30, 3, 1),  # fails the global Dold check, so shift 0 fails
    ("t", 40, 3, 0),
    ("e", 10, 0, 0),
])
def test_magical_section_matches_full_reports(source, depth, max_shift, drop):
    spec = ExperimentSpec(source=source, depth=depth, primes=(),
                          max_shift=max_shift, shift=drop)
    doc = run_experiment(spec)
    seq = shift(load_sequence(ExperimentSpec(source, depth=depth + drop)), drop)
    ref = dict(doc, magical=_magical_ref(Sequence1(seq.values[:depth]), max_shift))
    assert render_report(doc, "json") == render_report(ref, "json")


@pytest.mark.parametrize("source,depth,max_shift,drop", [
    ("A000032", 30, 3, 1),  # fails the global Dold check, so shift 0 fails
    ("e", 60, 5, 0),
    ("e", 10, 0, 0),
])
def test_magical_shift_zero_reuses_the_global_verdicts(source, depth, max_shift, drop, monkeypatch):
    # the global checks invert the whole prefix once, and the magical section
    # inverts only shifts 1..max_shift
    calls = []
    dold_sign = realizability.dold_sign
    monkeypatch.setattr(realizability, "dold_sign", lambda values: calls.append(len(values)) or dold_sign(values))
    doc = run_experiment(ExperimentSpec(source=source, depth=depth, primes=(),
                                        max_shift=max_shift, shift=drop))
    assert calls == [depth - k for k in range(max_shift + 1)]
    seq = load_sequence(ExperimentSpec(source, depth=depth, shift=drop))
    report = check_realizable(seq)
    assert magical_report(seq, max_shift).entries[0] == (0, report.dold, report.sign)
    failure = least_failure(report.verdicts[:2])
    witness = None if failure is None else {"check": failure[0], "n": failure[1].n, "value": failure[1].value}
    assert doc["magical"]["entries"][0] == {"shift": 0, "checked_upto": depth,
                                            "status": "pass" if witness is None else "fail",
                                            "witness": witness}


def test_magical_shift_beyond_depth_is_refused():
    with pytest.raises(ValueError, match="^max_shift must be <= 4, got 5$"):
        ExperimentSpec(source="e", depth=5, primes=(), max_shift=5)
    # without a depth the prefix length is known only once the source is read
    with pytest.raises(ValueError, match="^max_shift must be <= 199, got 200$"):
        run_experiment(ExperimentSpec(source="e", primes=(), max_shift=200))


@pytest.mark.parametrize("max_shift", [-1, -3])
def test_spec_rejects_negative_max_shift(max_shift):
    with pytest.raises(ValueError, match="max_shift must be >= 0"):
        ExperimentSpec(source="e", max_shift=max_shift)
    with pytest.raises(ValueError, match="max_shift must be >= 0"):
        catalog_spec("A005259", max_shift=max_shift)


def test_catalog_specs_complete():
    assert set(OBSERVATION_CATALOG) == {
        "A000032", "A002895", "A005259", "A005258",
        "A005725", "A054783", "A053175", "A001850",
    }
    spec = catalog_spec("A054783")
    assert spec.scale == 5
    assert spec.local_checks == ("dold",)
    with pytest.raises(ValueError):
        catalog_spec("A000001")


def test_catalog_lucas_partition():
    doc = run_experiment(catalog_spec("A000032"))
    assert not_realizable_primes(doc) == [2, 3, 7, 23, 43, 47, 67, 107]
    stars = realizable_star_primes(doc)
    for q in (5, 11, 13, 17, 19, 29, 31):
        assert q in stars


@pytest.mark.parametrize("checks", [("dlod",), ("monotone",), ("",), (), ("dold", "sgn")])
def test_spec_rejects_unknown_local_checks(checks):
    with pytest.raises(ValueError, match="local_checks"):
        ExperimentSpec(source="e", local_checks=checks)


def test_spec_accepts_known_local_checks():
    for checks, normal in [(("dold",), ("dold",)), (("sign",), ("sign",)),
                           (("sign", "dold"), ("dold", "sign"))]:
        assert ExperimentSpec(source="e", local_checks=checks).local_checks == normal


@pytest.mark.parametrize("limit", [1, 0, -5])
def test_spec_rejects_a_prime_limit_below_two(limit):
    # no prime lies below 2, so the scan would check nothing
    with pytest.raises(ValueError, match=rf"^prime_limit must be >= 2, got {limit}$"):
        ExperimentSpec(source="e", prime_limit=limit)
    with pytest.raises(ValueError, match=rf"^prime_limit must be >= 2, got {limit}$"):
        catalog_spec("A000032", prime_limit=limit)


def test_spec_accepts_the_least_prime_limit():
    doc = run_experiment(ExperimentSpec(source="e", depth=10, prime_limit=2))
    assert [row["prime"] for row in doc["local"]] == [2]


@pytest.mark.parametrize("policy", ["bogus", "", "Strict"])
def test_spec_rejects_unknown_offset_policy(policy):
    with pytest.raises(ValueError, match=r"^offset_policy must be one of \('shift-to-1', "
                                         rf"'strict'\), got '{policy}'$"):
        ExperimentSpec(source="e", offset_policy=policy)


def test_spec_accepts_known_offset_policies():
    for policy in ("shift-to-1", "strict"):
        assert ExperimentSpec(source="e", offset_policy=policy).offset_policy == policy
