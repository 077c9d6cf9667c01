"""Partition enumeration and the weighted-diagram recipe, checked against an
independent partition counter and the published example rows."""

from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitspan import nilorbits
from orbitspan.nilorbits import (
    CANDIDATE_CAP,
    OrbitDiagram,
    classical_partitions,
    diagram_of_partition,
    enumerate_complex_characteristics,
    exceptional_table,
    is_very_even,
    orbit_diagrams,
    partition_label,
    partitions,
)
from orbitspan.rootcore import SimpleType, WeightedDiagram


def brute_partitions(n: int):
    """Independent enumerator used as the oracle for partition counts."""
    if n == 0:
        return [()]
    out = []

    def rec(remaining, cap, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def parity_filter(parts, family):
    from collections import Counter

    counts = Counter(parts)
    if family in ("B", "D"):
        return all(m % 2 == 0 for p, m in counts.items() if p % 2 == 0)
    if family == "C":
        return all(m % 2 == 0 for p, m in counts.items() if p % 2 == 1)
    return True


def test_partition_counts_against_brute_force():
    assert len(classical_partitions(SimpleType("A", 3))) == len(brute_partitions(4)) == 5
    assert len(classical_partitions(SimpleType("A", 1))) == 2
    for t, n in [
        (SimpleType("B", 3), 7),
        (SimpleType("C", 4), 8),
        (SimpleType("D", 5), 10),
        (SimpleType("B", 6), 13),
    ]:
        expected = [p for p in brute_partitions(n) if parity_filter(p, t.family)]
        assert classical_partitions(t) == expected


def test_generator_equals_brute_force_with_parity_to_rank_12():
    brute = {}
    for family, ranks, size in [
        ("A", range(1, 13), lambda l: l + 1),
        ("B", range(2, 13), lambda l: 2 * l + 1),
        ("C", range(2, 13), lambda l: 2 * l),
        ("D", range(4, 13), lambda l: 2 * l),
    ]:
        for l in ranks:
            n = size(l)
            if n not in brute:
                brute[n] = brute_partitions(n)
            expected = [p for p in brute[n] if parity_filter(p, family)]
            assert list(partitions(n, family)) == expected, (family, l)


def half_parts(parts):
    return sum(part // 2 for part in parts)


def test_generator_budget_and_even_rule_against_brute_force():
    for n in range(0, 17):
        every = brute_partitions(n)
        even = [p for p in every if all(p.count(m) % 2 == 0 for m in set(p))]
        assert list(partitions(n, "even")) == even, n
        for budget in range(n // 2 + 1):
            for rule in ("A", "B", "C", "D"):
                expected = [p for p in every if parity_filter(p, rule) and half_parts(p) <= budget]
                assert list(partitions(n, rule, budget)) == expected, (n, rule, budget)
            assert list(partitions(n, "even", budget)) == [p for p in even if half_parts(p) <= budget]


def test_c2_partition_set():
    got = set(classical_partitions(SimpleType("C", 2)))
    assert got == {(4,), (2, 2), (2, 1, 1), (1, 1, 1, 1)}


def test_partitions_rejected_for_exceptional():
    with pytest.raises(ValueError):
        classical_partitions(SimpleType("G", 2))


def test_candidate_cap_admits_sl46():
    count = sum(1 for _ in partitions(46, "A"))
    assert count == 105_558
    assert count * 45 <= CANDIDATE_CAP


def test_candidate_list_over_the_cap_builds_no_diagram(monkeypatch):
    def refuse(*args):
        raise AssertionError("a diagram was built")

    monkeypatch.setattr(nilorbits, "diagram_of_partition", refuse)
    with pytest.raises(ValueError, match=f"A199 has over {CANDIDATE_CAP // 199} candidate orbits"):
        orbit_diagrams(SimpleType("A", 199))


@given(st.integers(min_value=1, max_value=18))
def test_partition_enumeration_properties(n):
    parts_list = brute_partitions(n)
    assert len(set(parts_list)) == len(parts_list)
    for parts in parts_list:
        assert sum(parts) == n
        assert all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


# -- the h-value recipe against every published classical row shape ----------


def w(diagram):
    return tuple(int(x) for x in diagram.diagram.weights)


def test_a_type_rows():
    # [l+1]: all twos
    assert w(diagram_of_partition(SimpleType("A", 4), (5,))) == (2, 2, 2, 2)
    # [2s+1, 1^(l-2s)]: twos on a_1..a_s and a_{l+1-s}..a_l
    assert w(diagram_of_partition(SimpleType("A", 3), (3, 1))) == (2, 0, 2)
    assert w(diagram_of_partition(SimpleType("A", 6), (5, 1, 1))) == (2, 2, 0, 0, 2, 2)
    # [(2s+1)^2, 1^(l-4s-1)]: alternating block
    assert w(diagram_of_partition(SimpleType("A", 5), (3, 3))) == (0, 2, 0, 2, 0)
    assert w(diagram_of_partition(SimpleType("A", 7), (3, 3, 1, 1))) == (0, 2, 0, 0, 0, 2, 0)
    # zero orbit
    assert w(diagram_of_partition(SimpleType("A", 4), (1,) * 5)) == (0, 0, 0, 0)


def test_b_type_rows():
    for l in (2, 4, 6):
        assert w(diagram_of_partition(SimpleType("B", l), (2 * l + 1,))) == (2,) * l
    assert w(diagram_of_partition(SimpleType("B", 4), (3, 1, 1, 1, 1, 1, 1))) == (2, 0, 0, 0)
    assert w(diagram_of_partition(SimpleType("B", 4), (5, 1, 1, 1, 1))) == (2, 2, 0, 0)


def test_c_type_rows():
    for l in (2, 3, 5):
        assert w(diagram_of_partition(SimpleType("C", l), (2,) * l)) == (0,) * (l - 1) + (2,)
    # [2s+2, 2^(l-s-1)]
    assert w(diagram_of_partition(SimpleType("C", 4), (4, 2, 2))) == (2, 0, 0, 2)
    assert w(diagram_of_partition(SimpleType("C", 4), (8,))) == (2, 2, 2, 2)
    # [(2s+1)^2, 1^(2l-4s-2)]
    assert w(diagram_of_partition(SimpleType("C", 4), (3, 3, 1, 1))) == (0, 2, 0, 0)
    # [(2k)^2]
    assert w(diagram_of_partition(SimpleType("C", 4), (4, 4))) == (0, 2, 0, 2)


def test_d_type_rows():
    # [2s+1, 1^(4m-2s-1)]
    assert w(diagram_of_partition(SimpleType("D", 4), (3, 1, 1, 1, 1, 1))) == (2, 0, 0, 0)
    # [4m-1, 1]: principal, all twos
    assert w(diagram_of_partition(SimpleType("D", 4), (7, 1))) == (2, 2, 2, 2)
    # [(2s+1)^2, 1^(4m-4s-2)]: in D_{2m}, s = 1 puts the only 2 on a_2
    assert w(diagram_of_partition(SimpleType("D", 6), (3, 3, 1, 1, 1, 1, 1, 1))) == (0, 2, 0, 0, 0, 0)
    # [(2m+1)^2] in D_{2m+1}: 0 2 0 ... with both fork weights 2
    assert w(diagram_of_partition(SimpleType("D", 5), (5, 5))) == (0, 2, 0, 2, 2)


def test_very_even_tags_mirror_fork_weights():
    t = SimpleType("D", 4)
    p = (2, 2, 2, 2)
    one = w(diagram_of_partition(t, p, "I"))
    two = w(diagram_of_partition(t, p, "II"))
    assert one == (0, 0, 0, 2)  # tag I: lower fork node a_{2m} carries the 2
    assert two == (0, 0, 2, 0)
    assert one[:2] == two[:2]
    t8 = SimpleType("D", 8)
    p8 = (4, 4, 4, 4)
    a, b = diagram_of_partition(t8, p8, "I"), diagram_of_partition(t8, p8, "II")
    wa, wb = w(a), w(b)
    assert wa[:6] == wb[:6] and (wa[6], wa[7]) == (wb[7], wb[6])


def test_orbit_diagram_weights_must_be_int_0_1_or_2():
    g2 = SimpleType("G", 2)
    for bad in ((Q(1, 2), 0), (3, 0), (0, -1)):
        with pytest.raises(ValueError):
            OrbitDiagram("x", WeightedDiagram(g2, bad))
    od = OrbitDiagram("x", WeightedDiagram(g2, (Q(2), 1)))
    assert [type(x) for x in od.diagram.weights] == [int, int]


def test_tag_validation():
    t = SimpleType("D", 4)
    with pytest.raises(ValueError):
        diagram_of_partition(t, (2, 2, 2, 2))  # missing tag
    with pytest.raises(ValueError):
        diagram_of_partition(t, (3, 1, 1, 1, 1, 1), "I")  # spurious tag
    with pytest.raises(ValueError):
        diagram_of_partition(t, (3, 3, 2))  # parity violation
    with pytest.raises(ValueError):
        diagram_of_partition(SimpleType("B", 3), (4, 2, 1))
    for parts in ((1, 3), (4, 0)):  # unordered, and a zero part
        with pytest.raises(ValueError):
            diagram_of_partition(SimpleType("A", 3), parts)


def test_enumeration_examples():
    a2 = {w(od) for od in enumerate_complex_characteristics(SimpleType("A", 2))}
    assert a2 == {(0, 0), (1, 1), (2, 2)}
    a1 = {w(od) for od in enumerate_complex_characteristics(SimpleType("A", 1))}
    assert a1 == {(0,), (2,)}
    assert len(enumerate_complex_characteristics(SimpleType("G", 2))) == 5


def test_a_type_label_injectivity():
    for l in (3, 5, 8):
        diagrams = [w(od) for od in enumerate_complex_characteristics(SimpleType("A", l))]
        assert len(set(diagrams)) == len(diagrams)


def test_all_weights_are_small_integers_up_to_rank_12():
    types = [SimpleType("A", l) for l in range(1, 13)]
    types += [SimpleType(f, l) for f in ("B", "C") for l in range(2, 13)]
    types += [SimpleType("D", l) for l in range(4, 13)]
    types += [SimpleType("E", l) for l in (6, 7, 8)]
    types += [SimpleType("F", 4), SimpleType("G", 2)]
    for t in types:
        for od in enumerate_complex_characteristics(t):
            assert all(x in (Q(0), Q(1), Q(2)) for x in od.diagram.weights), (t, od.label)


def test_diagrams_are_injective_over_labels():
    # distinct orbits have distinct characteristics in every supported type
    types = [SimpleType("A", l) for l in range(1, 11)]
    types += [SimpleType(f, l) for f in ("B", "C") for l in range(2, 11)]
    types += [SimpleType("D", l) for l in range(4, 11)]
    types += [SimpleType("E", l) for l in (6, 7, 8)]
    types += [SimpleType("F", 4), SimpleType("G", 2)]
    for t in types:
        diagrams = [w(od) for od in enumerate_complex_characteristics(t)]
        assert len(set(diagrams)) == len(diagrams), t


def test_b_type_count_matches_independent_filter():
    for l in (3, 5, 7):
        got = len(enumerate_complex_characteristics(SimpleType("B", l)))
        expected = len([p for p in brute_partitions(2 * l + 1) if parity_filter(p, "B")])
        assert got == expected


def test_very_even_duplication_count():
    t = SimpleType("D", 4)
    partitions = classical_partitions(t)
    very_even = [p for p in partitions if is_very_even(t, p)]
    total = len(enumerate_complex_characteristics(t))
    assert total == len(partitions) + len(very_even)


def test_exceptional_row_counts():
    for fam, rank, count in [("G", 2, 5), ("F", 4, 16), ("E", 6, 21), ("E", 7, 45), ("E", 8, 70)]:
        table = exceptional_table(SimpleType(fam, rank))
        assert len(table) == count
        diagrams = [w(od) for od in table]
        assert len(set(diagrams)) == len(diagrams), "diagrams must be distinct"
        labels = [od.label for od in table]
        assert len(set(labels)) == len(labels), "labels must be distinct"


def test_exceptional_rejects_classical():
    with pytest.raises(ValueError):
        exceptional_table(SimpleType("A", 3))


def paper_rows():
    yield SimpleType("G", 2), "G_2(a_1)", (2, 0)
    yield SimpleType("G", 2), "G_2", (2, 2)
    yield SimpleType("F", 4), "A_2", (2, 0, 0, 0)
    yield SimpleType("F", 4), "Ã_2", (0, 0, 0, 2)
    yield SimpleType("F", 4), "B_3", (2, 2, 0, 0)
    yield SimpleType("F", 4), "F_4", (2, 2, 2, 2)
    yield SimpleType("E", 6), "A_2", (0, 0, 0, 0, 0, 2)
    yield SimpleType("E", 6), "2A_2", (2, 0, 0, 0, 2, 0)
    yield SimpleType("E", 6), "D_4", (0, 0, 2, 0, 0, 2)
    yield SimpleType("E", 6), "E_6", (2, 2, 2, 2, 2, 2)
    yield SimpleType("E", 7), "(3A_1)''", (2, 0, 0, 0, 0, 0, 0)
    yield SimpleType("E", 7), "A_2", (0, 0, 0, 0, 0, 2, 0)
    yield SimpleType("E", 7), "2A_2", (0, 2, 0, 0, 0, 0, 0)
    yield SimpleType("E", 7), "D_4", (0, 0, 0, 0, 2, 2, 0)
    yield SimpleType("E", 7), "A_3+A_2+A_1", (0, 0, 2, 0, 0, 0, 0)
    yield SimpleType("E", 7), "A_4+A_2", (0, 0, 0, 2, 0, 0, 0)
    yield SimpleType("E", 7), "E_7", (2, 2, 2, 2, 2, 2, 2)
    yield SimpleType("E", 8), "A_2", (2, 0, 0, 0, 0, 0, 0, 0)
    yield SimpleType("E", 8), "2A_2", (0, 0, 0, 0, 0, 0, 2, 0)
    yield SimpleType("E", 8), "D_4", (2, 2, 0, 0, 0, 0, 0, 0)
    yield SimpleType("E", 8), "A_4+A_2", (0, 0, 2, 0, 0, 0, 0, 0)
    yield SimpleType("E", 8), "D_4+A_2", (2, 0, 0, 0, 0, 0, 0, 2)
    yield SimpleType("E", 8), "D_5+A_2", (2, 0, 0, 2, 0, 0, 0, 0)
    yield SimpleType("E", 8), "E_8(a_1)", (2, 2, 2, 2, 0, 2, 2, 2)
    yield SimpleType("E", 8), "E_8", (2, 2, 2, 2, 2, 2, 2, 2)


def test_published_exceptional_rows_verbatim():
    for t, name, weights in paper_rows():
        table = {str(od.label): w(od) for od in exceptional_table(t)}
        assert table[name] == weights, (t, name)


def test_label_formats():
    assert partition_label((3, 1, 1)) == "[3,1^2]"
    assert partition_label((2, 2, 2, 2), "I") == "[2^4]_I"
    assert "E_8(a_1)" in [od.label for od in exceptional_table(SimpleType("E", 8))]
