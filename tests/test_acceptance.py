"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import json
import time
from fractions import Fraction as Q
from itertools import product

from orbitspan.cli import main
from orbitspan.nilorbits import enumerate_complex_characteristics
from orbitspan.pairs import lookup_pair, proper_sl2_pairs
from orbitspan.rootcore import SimpleType, opposition_involution
from orbitspan.satake import b_subspace, catalog_labels, parse_label, underlying_type
from orbitspan.sl2oracle import build_chevalley, is_characteristic
from orbitspan.spanverify import (
    check_easy_inclusion,
    h_n_a_plus,
    paper_basis,
    verify_paper_basis,
    verify_theorem,
)

from published_b import expected_b_form


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def all_supported_types(max_rank: int):
    out = [SimpleType("A", l) for l in range(1, max_rank + 1)]
    out += [SimpleType(f, l) for f in ("B", "C") for l in range(2, max_rank + 1)]
    out += [SimpleType("D", l) for l in range(4, max_rank + 1)]
    out += [SimpleType("E", l) for l in (6, 7, 8) if l <= max_rank]
    if max_rank >= 4:
        out.append(SimpleType("F", 4))
    out.append(SimpleType("G", 2))
    return out


def test_criterion_1_theorem_for_whole_catalog_bound_12():
    start = time.monotonic()
    labels = catalog_labels(12)
    failures = [str(l) for l in labels if not verify_theorem(l).theorem_holds]
    elapsed = time.monotonic() - start
    _report(
        "1: theorem_holds for every catalog label at rank bound 12",
        not failures and elapsed < 60.0,
        f"{len(labels)} labels in {elapsed:.1f}s single-threaded" + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_2_easy_inclusion_everywhere():
    labels = catalog_labels(12)
    failures = [str(l) for l in labels if not check_easy_inclusion(underlying_type(l), h_n_a_plus(l))]
    _report("2: easy inclusion holds for every catalog label", not failures, f"{len(labels)} labels")


def test_criterion_3_golden_b_subspaces():
    labels = catalog_labels(12)
    failures = [str(l) for l in labels if b_subspace(l) != expected_b_form(l)]
    _report(
        "3: b_subspace equals the transcribed tables at ranks up to 12",
        not failures,
        f"{len(labels)} labels, exact subspace equality",
    )


def test_criterion_4_golden_bases():
    labels = catalog_labels(12)
    failures = [str(l) for l in labels if verify_paper_basis(l, h_n_a_plus(l)) is not True]
    named_checks = []

    def basis_weights(label_text):
        label = parse_label(label_text)
        weights = {od.label: od.diagram.weights for od in h_n_a_plus(label)}
        return {str(lbl): tuple(int(x) for x in weights[lbl]) for lbl in paper_basis(label)}

    g2 = verify_theorem(parse_label("g2(2)"))
    named_checks.append(g2.dim_b == 2 and g2.dim_span == 2)
    named_checks.append(basis_weights("g2(2)") == {"G_2(a_1)": (2, 0), "G_2": (2, 2)})
    named_checks.append(verify_theorem(parse_label("e6(-26)")).dim_b == 1)
    named_checks.append(basis_weights("e6(-26)") == {"2A_2": (2, 0, 0, 0, 2, 0)})
    named_checks.append(verify_theorem(parse_label("f4(-20)")).dim_b == 1)
    named_checks.append(basis_weights("f4(-20)") == {"Ã_2": (0, 0, 0, 2)})
    named_checks.append(len(paper_basis(parse_label("e7(7)"))) == 7)
    named_checks.append(len(paper_basis(parse_label("e8(8)"))) == 8)
    _report(
        "4: published bases verify (matching, independent, spanning, even)",
        not failures and all(named_checks),
        f"{len(labels)} labels; named spot checks: {named_checks}",
    )


def test_criterion_5_opposition_involution_classification():
    start = time.monotonic()
    failures = []
    for t in all_supported_types(12):
        inv = opposition_involution(t)
        expected_nontrivial = (
            (t.family == "A" and t.rank >= 2)
            or (t.family == "D" and t.rank % 2 == 1)
            or (t.family, t.rank) == ("E", 6)
        )
        if (inv.permutation == tuple(range(t.rank))) == expected_nontrivial:
            failures.append(str(t))
    a4 = opposition_involution(SimpleType("A", 4)).permutation
    d7 = opposition_involution(SimpleType("D", 7)).permutation
    e6 = opposition_involution(SimpleType("E", 6)).permutation
    displayed = (
        a4 == (3, 2, 1, 0)
        and d7 == (0, 1, 2, 3, 4, 6, 5)
        and e6 == (4, 3, 2, 1, 0, 5)
    )
    elapsed = time.monotonic() - start
    _report(
        "5: involution nontrivial exactly for A_n (n>=2), D_odd (>=5), E_6; displayed permutations match",
        not failures and displayed and elapsed < 1.0,
        f"{elapsed * 1000:.0f}ms",
    )


def test_criterion_6_dynkin_weight_property():
    bad = []
    for t in all_supported_types(12):
        for od in enumerate_complex_characteristics(t):
            if any(w not in (Q(0), Q(1), Q(2)) for w in od.diagram.weights):
                bad.append((str(t), str(od.label)))
    _report("6: every enumerated characteristic has weights in {0,1,2}", not bad, "types to rank 12")


def test_criterion_7_oracle_equivalence_rank_le_4():
    start = time.monotonic()
    mismatches = []
    for t in all_supported_types(4):
        model = build_chevalley(t)
        expected = {
            tuple(int(x) for x in od.diagram.weights)
            for od in enumerate_complex_characteristics(t)
        }
        accepted = set()
        for bits in product((0, 1, 2), repeat=t.rank):
            from orbitspan.rootcore import WeightedDiagram

            ok, _ = is_characteristic(model, WeightedDiagram(t, tuple(Q(b) for b in bits)))
            if ok:
                accepted.add(bits)
        if accepted != expected:
            mismatches.append((str(t), sorted(accepted ^ expected)))
    g2 = build_chevalley(SimpleType("G", 2))
    from orbitspan.rootcore import WeightedDiagram

    negative_ok = not is_characteristic(g2, WeightedDiagram(SimpleType("G", 2), (Q(0), Q(2))))[0]
    elapsed = time.monotonic() - start
    _report(
        "7: oracle set equals enumeration for every type of rank <= 4; G2 (0,2) rejected",
        not mismatches and negative_ok and elapsed < 300.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_8_pair_table_integrity():
    checks = [
        lookup_pair("su(4,2)", "sp(2,1)") is not None,
        lookup_pair("sl(4,R)", "so(2,2)") is None,
        # the four corrected rows, in corrected form only
        lookup_pair("sl(5,R)", "so(3,2)") is None,
        lookup_pair("sl(5,R)", "so(4,1)") is not None,
        lookup_pair("su(2,2)", "so*(4)") is not None,
        lookup_pair("so(4,4)", "so(4,C) + so(2)") is not None,
        lookup_pair("so(4,4)", "so(8,C) + so(2)") is None,
        lookup_pair("sl(4,C)", "su(2,2)") is None,
        lookup_pair("sl(4,C)", "su(3,1)") is not None,
        len(proper_sl2_pairs()) == 45,
    ]
    _report("8: pair table has the erratum rows corrected; lookups behave", all(checks), str(checks))


def test_criterion_9_byte_identical_verification_runs(tmp_path):
    f1, f2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    code1 = main(["verify", "--all", "--format", "json", "--out", str(f1)])
    code2 = main(["verify", "--all", "--format", "json", "--out", str(f2)])
    identical = f1.read_bytes() == f2.read_bytes()
    records = [json.loads(line) for line in f1.read_text().splitlines()]
    all_hold = all(r["theorem_holds"] and r["easy_inclusion"] for r in records)
    _report(
        "9: consecutive `verify --all --format json` runs are byte-identical",
        code1 == 0 and code2 == 0 and identical and all_hold,
        f"{len(records)} report lines",
    )
