"""Satake catalog, matching predicate and the diagram-space subspaces."""

import hashlib
import json
import re
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rref_reference import vec

from orbitspan.rootcore import SimpleType, WeightedDiagram
from orbitspan.satake import (
    MAX_RANK,
    LabelError,
    RealFormLabel,
    b_subspace,
    catalog_labels,
    matches,
    matching_subspace,
    parse_label,
    satake_catalog,
    satake_to_dot,
    split_label_of,
    underlying_type,
)
from orbitspan.spanverify import paper_basis

from published_b import expected_b_form


def test_label_parsing_and_canonicalization():
    assert str(parse_label("su(2,4)")) == "su(4,2)"
    assert str(parse_label("so(3, 7)")) == "so(7,3)"
    assert str(parse_label("sp(3,R)")) == "sp(3,R)"
    assert str(parse_label("e7(-5)")) == "e7(-5)"
    assert str(parse_label("so*(12)")) == "so*(12)"
    assert str(parse_label("slC(4)")) == "slC(4)"
    assert str(parse_label("e6C")) == "e6C"


def test_rejected_labels():
    for text in [
        "su(3,0)",      # compact
        "so(5,0)",      # compact
        "su*(2)",       # compact su(2)
        "su*(7)",       # odd argument
        "so(2,1)",      # B_1 alias
        "so(3,1)",      # complex sl(2,C) as real
        "so(2,2)",      # not simple
        "so(4,2)",      # D_3 alias
        "so*(6)",       # D_3 alias
        "soC(6)",       # D_3 alias
        "spC(1)",       # slC(2) alias
        "sl(1,R)",
        "e6(5)",
        "f4(20)",
        "nonsense",
        "sl(٣,R)",     # a non-ASCII digit
        "su(٤,٢)",
    ]:
        with pytest.raises(LabelError):
            parse_label(text)


def test_one_parameter_kinds_reject_a_second_parameter():
    for text in ["su*(4,2)", "su*(4,R)", "so*(8,3)", "slC(4,R)", "soC(7,2)", "spC(3,1)", "e6(2,1)", "sl(4,3)"]:
        with pytest.raises(LabelError):
            parse_label(text)


def test_rank_over_the_cap_is_a_label_error_before_any_diagram_is_drawn():
    assert MAX_RANK == 1000
    assert underlying_type(parse_label("sl(1001,R)")).rank == MAX_RANK
    for text in ["su(100000000,1)", "sl(1002,R)", "su*(2002)", "su(1000,2)", "so(2000,3)", "sp(1001,R)",
                 "sp(100000000,1)", "so*(2002)", "slC(1002)", "soC(2003)", "spC(1001)"]:
        with pytest.raises(LabelError, match=f"over the cap of {MAX_RANK}"):
            parse_label(text)


def test_catalog_bound_over_the_cap_is_rejected():
    with pytest.raises(ValueError, match="between 2 and"):
        catalog_labels(999999999999)
    with pytest.raises(ValueError, match="between 2 and"):
        catalog_labels(MAX_RANK + 1)


def test_integer_over_the_digit_limit_is_a_label_error():
    for text in ["sl(" + "1" * 5000 + ",R)", "su(3," + "2" * 5000 + ")"]:
        with pytest.raises(LabelError):
            parse_label(text)


def _parse_round_trips(text):
    try:
        label = parse_label(text)
    except LabelError:
        return
    assert parse_label(str(label)) == label


KIND_TOKENS = ["sl", "su", "so", "sp", "su*", "so*", "slC", "soC", "spC", "e6", "e7", "e8", "f4", "g2", "e6C", "g2C", "xy"]
spaces = st.sampled_from(["", "", " ", "\t"])
signed_ints = (
    st.integers(min_value=-2, max_value=12).map(str)
    | st.sampled_from(["2", "-14", "-26", "-5", "-25", "-24", "-20", "+3", "007", "-0", "1" * 30])
)
second_parameter = st.sampled_from(["", "", ",R", ", R"]) | signed_ints.map(lambda x: "," + x)
labelish = st.builds(
    lambda *parts: "".join(parts),
    spaces, st.sampled_from(KIND_TOKENS), spaces, st.sampled_from(["(", "(", "(", ""]),
    spaces, signed_ints | st.just("R"), spaces, second_parameter, spaces,
    st.sampled_from([")", ")", ")", "", "))"]), spaces,
)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=30) | labelish | st.sampled_from(catalog_labels(8)).map(str))
def test_parse_label_yields_a_round_tripping_label_or_a_label_error(text):
    _parse_round_trips(text)


_GRID_HEADS = [*KIND_TOKENS, "e7C", "e8C", "f4C", "spR", "s", "E6"]
_GRID_ARGS = [str(i) for i in range(-1, 10)] + ["-14", "-26", "-5", "-25", "-24", "-20", "R"]
_LABEL_GRID_SHA256 = "ae0b95d84811da6cfca3fd77212ef385a791ebe998ab220929b2fbfa52bd9d05"
_CATALOG_SHA256 = "88c868075819dcb3613663bf351f1dc66a9448805395bbad7455162f9674e778"


def _label_grid_digest():
    """Every grid string with its label, name, type and diagram, or its LabelError text."""
    records = []
    for head in _GRID_HEADS:
        texts = [head, f" {head} "] + [f"{head}({a})" for a in _GRID_ARGS]
        texts += [f"{head} ( {a}, {b} )" for a in _GRID_ARGS for b in _GRID_ARGS]
        for text in texts:
            try:
                label = parse_label(text)
            except LabelError as exc:
                records.append([text, str(exc)])
                continue
            diagram = satake_catalog(label).to_json()
            records.append([text, repr(label), str(label), repr(underlying_type(label)), diagram])
    return len(records), hashlib.sha256(json.dumps(records).encode()).hexdigest()


def _catalog_digest():
    catalogs = [[repr(label) for label in catalog_labels(b)] for b in range(2, 25)]
    return hashlib.sha256(json.dumps(catalogs).encode()).hexdigest()


def test_label_language_is_pinned():
    assert _label_grid_digest() == (7912, _LABEL_GRID_SHA256)


def test_catalog_is_pinned():
    assert _catalog_digest() == _CATALOG_SHA256


def test_catalog_labels_round_trip_through_their_names():
    for label in catalog_labels(24):
        assert parse_label(str(label)) == label


def test_hand_built_labels_are_checked_by_the_catalog():
    with pytest.raises(LabelError, match="p >= q"):
        underlying_type(RealFormLabel("su", (2, 4)))
    with pytest.raises(LabelError, match="unknown label kind"):
        satake_catalog(RealFormLabel("xy", (3,)))
    assert underlying_type(RealFormLabel("su", (4, 2))) == SimpleType("A", 5)
    # a parameter count the kind does not take, which its draw and str() cannot handle
    for kind, params, arity in [("sl", (3, 4), 1), ("sl", (), 1), ("su", (3,), 2), ("e6", (), 1), ("e6C", (6,), 0)]:
        message = f"label kind {kind!r} takes {arity} parameters, not {len(params)}"
        with pytest.raises(LabelError, match=re.escape(message)):
            satake_catalog(RealFormLabel(kind, params))


def test_alias_rejections_mention_the_alias():
    with pytest.raises(LabelError, match=r"su\(2,2\)"):
        parse_label("so(4,2)")
    with pytest.raises(LabelError, match=r"su\(3,1\)"):
        parse_label("so*(6)")


def test_catalog_examples_from_figures():
    assert satake_catalog(parse_label("sl(6,R)")).to_json() == {
        "type": "A", "rank": 5, "black": [], "arrows": []}
    assert satake_catalog(parse_label("su*(8)")).to_json() == {
        "type": "A", "rank": 7, "black": [1, 3, 5, 7], "arrows": []}
    assert satake_catalog(parse_label("su(4,4)")).to_json() == {
        "type": "A", "rank": 7, "black": [], "arrows": [[1, 7], [2, 6], [3, 5]]}
    assert satake_catalog(parse_label("su(4,2)")).to_json() == {
        "type": "A", "rank": 5, "black": [3], "arrows": [[1, 5], [2, 4]]}
    assert satake_catalog(parse_label("f4(-20)")).to_json() == {
        "type": "F", "rank": 4, "black": [1, 2, 3], "arrows": []}
    assert satake_catalog(parse_label("sp(3,2)")).to_json() == {
        "type": "C", "rank": 5, "black": [1, 3, 5], "arrows": []}
    assert satake_catalog(parse_label("so(6,4)")).to_json() == {
        "type": "D", "rank": 5, "black": [], "arrows": [[4, 5]]}
    assert satake_catalog(parse_label("so*(10)")).to_json() == {
        "type": "D", "rank": 5, "black": [1, 3], "arrows": [[4, 5]]}
    assert satake_catalog(parse_label("so*(16)")).to_json() == {
        "type": "D", "rank": 8, "black": [1, 3, 5, 7], "arrows": []}
    assert satake_catalog(parse_label("so(9,2)")).to_json() == {
        "type": "B", "rank": 5, "black": [3, 4, 5], "arrows": []}
    assert satake_catalog(parse_label("e6(-26)")).to_json() == {
        "type": "E", "rank": 6, "black": [2, 3, 4, 6], "arrows": []}
    # complex forms reduce to the split diagram and the split form's published basis
    assert satake_catalog(parse_label("e6C")).to_json() == {
        "type": "E", "rank": 6, "black": [], "arrows": []}
    complex_labels = [label for label in catalog_labels(24) if split_label_of(label) != label]
    assert {label.kind for label in complex_labels} == {"slC", "soC", "spC", "e6C", "e7C", "e8C", "f4C", "g2C"}
    for label in complex_labels:
        split = split_label_of(label)
        assert satake_catalog(label) == satake_catalog(split), str(label)
        assert paper_basis(label) == paper_basis(split), str(label)


def test_matches_examples():
    t = SimpleType("A", 7)
    sustar = satake_catalog(parse_label("su*(8)"))
    zero = WeightedDiagram(t, vec([0] * 7))
    assert matches(zero, sustar)
    assert not matches(WeightedDiagram(t, vec([2, 0, 0, 0, 0, 0, 0])), sustar)
    e626 = satake_catalog(parse_label("e6(-26)"))
    t6 = SimpleType("E", 6)
    assert matches(WeightedDiagram(t6, vec([2, 0, 0, 0, 2, 0])), e626)
    assert not matches(WeightedDiagram(t6, vec([0, 0, 0, 0, 0, 2])), e626)
    with pytest.raises(ValueError):
        matches(WeightedDiagram(SimpleType("A", 3), vec([0, 0, 0])), sustar)


def white_orbit_count(s):
    """Independent count of white-node classes under the arrow involution."""
    l = s.simple_type.rank
    cls = {i: i for i in range(l) if i not in s.black_nodes}
    for i, j in s.arrows:
        root = min(cls[i], cls[j])
        for k, v in list(cls.items()):
            if v in (cls[i], cls[j]):
                cls[k] = root
    return len(set(cls.values()))


def test_matching_subspace_dimension_is_white_orbit_count():
    samples = ["sl(7,R)", "su*(10)", "su(5,2)", "su(4,4)", "so(9,4)", "sp(4,2)",
               "so*(14)", "so(6,4)", "e6(-14)", "e7(-5)", "f4(-20)", "g2(2)"]
    for text in samples:
        label = parse_label(text)
        s = satake_catalog(label)
        assert matching_subspace(s).dim == white_orbit_count(s), text


def test_matching_subspace_examples():
    assert matching_subspace(satake_catalog(parse_label("sl(6,R)"))).dim == 5
    assert matching_subspace(satake_catalog(parse_label("f4(-20)"))).dim == 1
    # real rank q for su(p,q)
    for p, q in [(5, 2), (4, 3), (6, 1)]:
        label = parse_label(f"su({p},{q})")
        assert matching_subspace(satake_catalog(label)).dim == q


def test_b_subspace_examples():
    assert b_subspace(parse_label("g2(2)")).dim == 2
    e626 = b_subspace(parse_label("e6(-26)"))
    assert e626.dim == 1
    assert e626.contains(vec([1, 0, 0, 0, 1, 0]))
    e75 = b_subspace(parse_label("e7(-5)"))
    assert e75.dim == 4
    assert e75.contains(vec([0, 1, 0, 2, 3, 4, 0]))
    assert not e75.contains(vec([1, 0, 0, 0, 0, 0, 0]))


def test_expected_b_form_examples():
    assert expected_b_form(parse_label("so(8,8)")).dim == 8  # full space for so(2m,2m)
    suk = expected_b_form(parse_label("su(5,4)"))
    assert suk.dim == 4
    assert suk.contains(vec([1, 2, 3, 4, 4, 3, 2, 1]))
    spkk = expected_b_form(parse_label("sp(3,3)"))
    assert spkk.dim == 3
    assert spkk.contains(vec([0, 1, 0, 2, 0, 3]))
    assert not spkk.contains(vec([1, 0, 0, 0, 0, 0]))


def test_b_subspace_equals_published_form_for_whole_catalog():
    labels = catalog_labels(40)
    assert len(labels) == 2761
    for label in labels:
        assert b_subspace(label) == expected_b_form(label), str(label)


def test_split_forms_match_everything():
    from orbitspan.rational import coordinate_kernel
    from orbitspan.rootcore import opposition_involution

    for text in ["sl(5,R)", "so(5,4)", "sp(4,R)", "so(6,6)", "e8(8)", "g2(2)", "slC(6)"]:
        label = parse_label(text)
        s = satake_catalog(label)
        t = underlying_type(label)
        assert matching_subspace(s).dim == t.rank
        iota = opposition_involution(t).permutation
        iota_fixed = coordinate_kernel(t.rank, equal=[(i, j) for i, j in enumerate(iota) if i < j])
        assert b_subspace(label) == iota_fixed


def test_catalog_label_count_and_uniqueness():
    labels = catalog_labels(12)
    assert len(labels) == len(set(labels))
    assert len(labels) == 325
    for label in labels:
        underlying_type(label)  # validates
    with pytest.raises(ValueError):
        catalog_labels(1)


_matchable = ["su(4,2)", "so*(10)", "e6(-14)", "sp(3,1)", "so(7,4)"]


@settings(max_examples=40)
@given(
    st.sampled_from(_matchable),
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=2, max_size=2),
)
def test_matching_diagrams_closed_under_combinations(text, coeffs):
    label = parse_label(text)
    t = underlying_type(label)
    s = satake_catalog(label)
    basis = matching_subspace(s).basis
    d1 = WeightedDiagram(t, basis[0])
    d2 = WeightedDiagram(t, basis[-1])
    # weights are integers: the combination is scaled by its coefficients' denominators
    scale = lcm(coeffs[0].denominator, coeffs[1].denominator)
    combo = WeightedDiagram(
        t, tuple(scale * (coeffs[0] * a + coeffs[1] * b) for a, b in zip(d1.weights, d2.weights))
    )
    assert matches(combo, s)


def test_dot_rendering():
    dot = satake_to_dot(parse_label("su(3,3)"))
    assert dot.count("style=dashed") == 2  # arrows a1<->a5, a2<->a4
    assert "fillcolor=black" not in dot
    dot2 = satake_to_dot(parse_label("su*(6)"))
    assert dot2.count("fillcolor=black") == 3
    assert "style=dashed" not in dot2
    dot3 = satake_to_dot(parse_label("g2(2)"))
    assert 'label="3"' in dot3  # triple bond annotation
