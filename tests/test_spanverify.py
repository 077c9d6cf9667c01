"""The matching filter, spans, and per-form verification reports."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedy_reference import greedy_reference
from rref_reference import span_of, vec
from orbitspan import nilorbits, spanverify
from orbitspan.cli import main
from orbitspan.nilorbits import OrbitDiagram, enumerate_complex_characteristics, partition_label
from orbitspan.rootcore import SimpleType, WeightedDiagram
from orbitspan.satake import b_subspace, catalog_labels, parse_label, satake_catalog, underlying_type
from orbitspan.spanverify import (
    VerificationReport,
    candidate_orbits,
    check_easy_inclusion,
    filter_matching,
    greedy_basis_of,
    h_n_a_plus,
    paper_basis,
    verify_paper_basis,
    verify_theorem,
)


def weights_of(matching):
    return {tuple(int(x) for x in od.diagram.weights) for od in matching}


def test_h_n_a_plus_split_form_keeps_everything():
    label = parse_label("g2(2)")
    assert len(h_n_a_plus(label)) == 5


def test_h_n_a_plus_f4_minus20():
    got = h_n_a_plus(parse_label("f4(-20)"))
    assert weights_of(got) == {(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2)}
    assert "Ã_2" in {str(od.label) for od in got}


def test_h_n_a_plus_e6_minus26():
    got = {str(od.label): tuple(int(x) for x in od.diagram.weights) for od in h_n_a_plus(parse_label("e6(-26)"))}
    assert got.get("2A_2") == (2, 0, 0, 0, 2, 0)
    assert "A_2" not in got  # weight 2 on the black node a_6


def test_zero_orbit_always_matches_and_never_in_basis():
    for text in ["su(4,2)", "so(7,2)", "e7(-25)", "sp(3,1)", "sl(4,R)"]:
        label = parse_label(text)
        report = verify_theorem(label)
        zeros = [od for od in report.matching_orbits if not any(od.diagram.weights)]
        assert len(zeros) == 1
        assert zeros[0].label not in report.greedy_basis


def easy_inclusion(label):
    return check_easy_inclusion(underlying_type(label), h_n_a_plus(label))


def test_easy_inclusion_examples():
    for text in ["g2(2)", "f4(4)", "e6(6)", "e7(7)", "e8(8)", "sl(5,R)"]:
        assert easy_inclusion(parse_label(text))


def test_easy_inclusion_all_su_forms_to_rank_8():
    for n in range(2, 10):
        for q in range(1, n // 2 + 1):
            assert easy_inclusion(parse_label(f"su({n - q},{q})"))


def test_easy_inclusion_rejects_a_diagram_moved_by_minus_w0():
    a3 = SimpleType("A", 3)
    # (1, 0, 0) is no orbit's diagram; only the weights matter to the check
    moved = OrbitDiagram(partition_label((2, 1, 1)), WeightedDiagram(a3, vec([1, 0, 0])))
    fixed = OrbitDiagram(partition_label((2, 1, 1)), WeightedDiagram(a3, vec([1, 0, 1])))
    assert check_easy_inclusion(a3, [fixed])
    assert not check_easy_inclusion(a3, [fixed, moved])


def test_greedy_basis_agrees_with_reference_on_catalog_to_rank_8():
    for label in catalog_labels(8):
        matching = h_n_a_plus(label)
        l = underlying_type(label).rank
        picked, span = greedy_reference([od.diagram.weights for od in matching], l)
        labels, weights = greedy_basis_of(matching)
        assert labels == [matching[k].label for k in picked], str(label)
        assert weights == [matching[k].diagram.weights for k in picked], str(label)
        assert span_of(l, weights) == span, str(label)


def test_sl5_includes_the_31_1_diagram():
    got = h_n_a_plus(parse_label("sl(5,R)"))
    assert (2, 0, 0, 2) in weights_of(got)


def test_span_of_examples():
    assert span_of(2, [vec([2, 0]), vec([2, 2])]).dim == 2
    assert span_of(3, [vec([2, 0, 2]), vec([2, 2, 2])]).dim == 2
    assert span_of(0, []).dim == 0


def test_verify_theorem_examples():
    r = verify_theorem(parse_label("g2(2)"))
    assert (r.dim_b, r.dim_span, r.theorem_holds) == (2, 2, True)
    r = verify_theorem(parse_label("e8(-24)"))
    assert (r.dim_b, r.theorem_holds) == (4, True)
    for p, q in [(7, 2), (6, 1), (5, 3)]:
        r = verify_theorem(parse_label(f"su({p},{q})"))
        assert r.dim_b == q and r.theorem_holds


def test_theorem_fails_for_a_full_count_basis_outside_b(monkeypatch):
    # b of sl(4,R) is {(x, y, x)}, of dimension 2.  The greedy picks [4] and a
    # diagram moved to (2, 0, 0), so the count matches dim b, but (2, 0, 0)
    # lies outside b: the span is not b.
    label = parse_label("sl(4,R)")
    honest = verify_theorem(label)
    regular, *_, zero = h_n_a_plus(label)
    outside = OrbitDiagram(partition_label((2, 1, 1)), WeightedDiagram(SimpleType("A", 3), (2, 0, 0)))
    monkeypatch.setattr(spanverify, "h_n_a_plus", lambda _: [regular, outside, zero])
    report = verify_theorem(label)
    assert report.greedy_basis == (regular.label, outside.label)
    assert (report.dim_b, report.dim_span) == (honest.dim_b, honest.dim_span) == (2, 2)
    assert report.theorem_holds is False
    assert report.verified is False


def test_greedy_exit_at_dim_b_keeps_a_failing_report_whole(monkeypatch):
    # (0, 2, 0) is not fixed by -w0 on A3, so the easy inclusion fails and
    # the greedy must run to the end: three picks against dim b = 2.
    label = parse_label("sl(4,R)")
    regular, *_, zero = h_n_a_plus(label)
    t = SimpleType("A", 3)
    middle = OrbitDiagram(partition_label((2, 2)), WeightedDiagram(t, (0, 2, 0)))
    side = OrbitDiagram(partition_label((2, 1, 1)), WeightedDiagram(t, (2, 0, 0)))
    matching = [regular, middle, zero, side]
    monkeypatch.setattr(spanverify, "h_n_a_plus", lambda _: matching)
    report = verify_theorem(label)
    assert report.easy_inclusion_holds is False
    full_labels, full_weights = greedy_basis_of(matching)
    assert report.greedy_basis == tuple(full_labels) == (regular.label, middle.label, side.label)
    assert (report.dim_b, report.dim_span) == (2, len(full_weights)) == (2, 3)
    assert report.theorem_holds is False


def test_greedy_exit_at_dim_b_picks_what_the_full_greedy_picks():
    for label in catalog_labels(8):
        matching = h_n_a_plus(label)
        assert check_easy_inclusion(underlying_type(label), matching), str(label)
        assert greedy_basis_of(matching, b_subspace(label).dim) == greedy_basis_of(matching), str(label)


def test_h_n_a_plus_equals_the_filtered_full_enumeration():
    for label in catalog_labels(12):
        full = enumerate_complex_characteristics(underlying_type(label))
        assert h_n_a_plus(label) == filter_matching(full, satake_catalog(label)), str(label)


def test_pruned_candidates_are_exactly_the_matching_orbits():
    pruned = [label for label in catalog_labels(12) if label.kind in ("su", "so", "sp", "su*")]
    assert len(pruned) == 232
    for label in pruned:
        assert list(candidate_orbits(label)) == h_n_a_plus(label), str(label)


def test_large_rank_one_forms_skip_the_full_enumeration(monkeypatch):
    def refuse(t):
        raise AssertionError(f"full enumeration of {t}")

    monkeypatch.setattr(spanverify, "enumerate_complex_characteristics", refuse)
    monkeypatch.setattr(nilorbits, "enumerate_complex_characteristics", refuse)
    for text, matched in [("su(200,1)", 3), ("so(301,1)", 2), ("sp(150,1)", 3)]:
        report = verify_theorem(parse_label(text))
        assert report.verified, text
        assert (report.dim_b, len(report.matching_orbits)) == (1, matched), text


def test_report_invariants():
    for text in ["su(5,3)", "so(9,6)", "e7(-5)", "so*(12)"]:
        r = verify_theorem(parse_label(text))
        assert len(r.greedy_basis) == r.dim_span
        assert r.matching_orbits
        assert r.theorem_holds == (r.dim_span == r.dim_b)


def test_paper_basis_examples():
    assert [str(x) for x in paper_basis(parse_label("sp(4,R)"))] == [
        "[2^4]", "[4,2^2]", "[6,2]", "[8]"]
    assert [str(x) for x in paper_basis(parse_label("e7(7)"))] == [
        "(3A_1)''", "A_2", "2A_2", "D_4", "A_3+A_2+A_1", "A_4+A_2", "E_7"]
    assert [str(x) for x in paper_basis(parse_label("so*(14)"))] == [
        "[3^2,1^8]", "[5^2,1^4]", "[7^2]"]
    assert [str(x) for x in paper_basis(parse_label("so(6,6)"))] == [
        "[3,1^9]", "[5,1^7]", "[7,1^5]", "[9,1^3]", "[11,1]", "[2^6]_I"]
    assert [str(x) for x in paper_basis(parse_label("su*(8)"))] == ["[3^2,1^2]", "[4^2]"]


def test_paper_bases_are_pinned_to_bound_40():
    # a recipe that drifted to another valid basis would still pass the validity checks
    labels = catalog_labels(40)
    text = json.dumps([[str(label), paper_basis(label)] for label in labels])
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (len(labels), digest) == (2761, "2aecdc92c1f9ea387362657bc7f93ea81623646665795e09d1b255d236af78df")


def test_verify_paper_basis_examples():
    for text in ["f4(4)", "e6(-14)", "g2(2)", "so(5,4)", "sp(3,3)", "su(4,4)", "so*(12)"]:
        label = parse_label(text)
        assert verify_paper_basis(label, h_n_a_plus(label)), text


def test_paper_bases_verified_for_catalog_to_rank_8():
    for label in catalog_labels(8):
        assert verify_paper_basis(label, h_n_a_plus(label)), str(label)


@pytest.mark.parametrize("text, parts", [("sl(4,R)", (5,)), ("su(3,1)", (2, 2))])
def test_published_label_outside_the_matching_list_fails(monkeypatch, capsys, text, parts):
    # [5] is no orbit of A3; [2^2] is one, but its diagram misses su(3,1)'s Satake diagram
    monkeypatch.setattr(spanverify, "paper_basis", lambda label: [partition_label(parts)])
    assert verify_theorem(parse_label(text)).paper_basis_verified is False
    assert main(["verify", text]) == 1
    assert capsys.readouterr().out.rstrip("\n").endswith("FAILED")


def test_filter_ignores_appended_nonmatching_diagrams():
    label = parse_label("su(4,2)")
    t = underlying_type(label)
    s = satake_catalog(label)
    diagrams = list(enumerate_complex_characteristics(t))
    baseline = filter_matching(diagrams, s)
    nonmatching = [od for od in diagrams if od not in baseline]
    assert nonmatching
    assert filter_matching(diagrams + nonmatching, s) == baseline


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["su(3,2)", "sp(2,1)", "so(5,2)", "g2(2)"]), st.randoms())
def test_filter_idempotent_under_nonmatching_injection(text, rng):
    label = parse_label(text)
    t = underlying_type(label)
    s = satake_catalog(label)
    diagrams = list(enumerate_complex_characteristics(t))
    baseline = filter_matching(diagrams, s)
    extras = [od for od in diagrams if od not in baseline]
    noisy = list(diagrams)
    for od in extras:
        noisy.insert(rng.randrange(len(noisy) + 1), od)
    # inserting non-matching diagrams anywhere leaves the matching subsequence intact
    assert filter_matching(noisy, s) == baseline


def test_report_json_schema():
    r = verify_theorem(parse_label("e6(-14)")).to_json()
    assert set(r) == {
        "label", "type", "rank", "dim_b", "dim_span", "theorem_holds",
        "easy_inclusion", "basis", "paper_basis_verified",
    }
    assert r["label"] == "e6(-14)"
    assert r["type"] == "E" and r["rank"] == 6
    assert r["theorem_holds"] is True and r["paper_basis_verified"] is True


def test_verdict_fails_when_any_check_fails():
    report = verify_theorem(parse_label("su(3,1)"))
    assert report.verified is True
    for field in ("theorem_holds", "easy_inclusion_holds", "paper_basis_verified"):
        assert report._replace(**{field: False}).verified is False, field
