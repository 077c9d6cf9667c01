"""Root systems and the longest-element node permutation."""

from fractions import Fraction as Q

import pytest
from rref_reference import vec

from orbitspan.rational import coordinate_kernel
from orbitspan.rootcore import (
    SimpleType,
    WeightedDiagram,
    _dominantize,
    build_root_system,
    cartan_matrix,
    opposition_involution,
    simple_root_norms,
)

# closed-form positive root counts, independent of the reflection-closure code
KNOWN_COUNTS = {
    ("A", 1): 1, ("A", 5): 15, ("B", 2): 4, ("B", 6): 36, ("C", 3): 9,
    ("C", 7): 49, ("D", 4): 12, ("D", 8): 56, ("E", 6): 36, ("E", 7): 63,
    ("E", 8): 120, ("F", 4): 24, ("G", 2): 6,
}


def all_types(max_rank: int):
    for l in range(1, max_rank + 1):
        yield SimpleType("A", l)
    for fam in ("B", "C"):
        for l in range(2, max_rank + 1):
            yield SimpleType(fam, l)
    for l in range(4, max_rank + 1):
        yield SimpleType("D", l)
    for l in (6, 7, 8):
        yield SimpleType("E", l)
    yield SimpleType("F", 4)
    yield SimpleType("G", 2)


def test_invalid_types_rejected():
    for fam, rank in [("B", 1), ("C", 1), ("D", 2), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 1), ("A", 0)]:
        with pytest.raises(ValueError):
            SimpleType(fam, rank)


def test_d3_rejection_hints_alias():
    with pytest.raises(ValueError, match="A_3"):
        SimpleType("D", 3)


def test_positive_root_counts():
    for (fam, rank), count in KNOWN_COUNTS.items():
        rs = build_root_system(SimpleType(fam, rank))
        assert len(rs.positive_roots) == count, (fam, rank)


def test_root_system_invariants():
    for t in all_types(8):
        rs = build_root_system(t)
        a = rs.cartan_matrix
        l = t.rank
        for i in range(l):
            assert a[i][i] == 2
            for j in range(l):
                if i != j:
                    assert a[i][j] in (0, -1, -2, -3)
                    assert (a[i][j] == 0) == (a[j][i] == 0)
        for root in rs.positive_roots:
            assert all(c >= 0 for c in root)
        assert len(set(rs.positive_roots)) == len(rs.positive_roots)


def test_bond_direction_follows_node_convention():
    # the short-root row carries the bigger off-diagonal magnitude
    b4 = cartan_matrix(SimpleType("B", 4))
    assert b4[3][2] == -2 and b4[2][3] == -1  # a_4 short in B
    c4 = cartan_matrix(SimpleType("C", 4))
    assert c4[2][3] == -2 and c4[3][2] == -1  # a_4 long in C
    f4 = cartan_matrix(SimpleType("F", 4))
    assert f4[2][1] == -2 and f4[1][2] == -1  # a_3, a_4 short in F4
    g2 = cartan_matrix(SimpleType("G", 2))
    assert g2[1][0] == -3 and g2[0][1] == -1  # a_2 short in G2


def test_opposition_involution_displayed_cases():
    a2 = opposition_involution(SimpleType("A", 2))
    assert a2.permutation == (1, 0)
    a5 = opposition_involution(SimpleType("A", 5))
    assert a5.permutation == (4, 3, 2, 1, 0)
    for l in (2, 5, 9):
        bl = opposition_involution(SimpleType("B", l))
        assert bl.permutation == tuple(range(l))
    d4 = opposition_involution(SimpleType("D", 4))
    assert d4.permutation == tuple(range(4))
    e6 = opposition_involution(SimpleType("E", 6))
    assert e6.permutation == (4, 3, 2, 1, 0, 5)


def test_involution_nontrivial_exactly_for_a_dodd_e6():
    for t in all_types(12):
        inv = opposition_involution(t)
        expected_nontrivial = (
            (t.family == "A" and t.rank >= 2)
            or (t.family == "D" and t.rank % 2 == 1)
            or (t.family, t.rank) == ("E", 6)
        )
        assert (inv.permutation == tuple(range(t.rank))) != expected_nontrivial, t
        # involution property and Cartan preservation are checked on construction
        perm = inv.permutation
        assert all(perm[perm[i]] == i for i in range(t.rank))


def closed_form_opposition(t):
    """-w0 on the nodes: reversal on A_l, the fork pair swapped on D_l with l
    odd, the a_1/a_5 and a_2/a_4 swaps on E6, and the identity otherwise."""
    l = t.rank
    if t.family == "A":
        return tuple(reversed(range(l)))
    if t.family == "D" and l % 2 == 1:
        return tuple(range(l - 2)) + (l - 1, l - 2)
    if (t.family, l) == ("E", 6):
        return (4, 3, 2, 1, 0, 5)
    return tuple(range(l))


def test_opposition_involution_closed_form_to_rank_40():
    for t in all_types(40):
        assert opposition_involution(t).permutation == closed_form_opposition(t), t


def test_opposition_agrees_with_one_dominantization_per_fundamental_weight():
    # the permutation as first computed: -omega_i carried to the dominant omega_sigma(i)
    for t in all_types(24):
        a = cartan_matrix(t)
        per_weight = []
        for i in range(t.rank):
            image = _dominantize([-int(j == i) for j in range(t.rank)], a)
            assert sorted(image) == [0] * (t.rank - 1) + [1], t
            per_weight.append(image.index(1))
        assert opposition_involution(t).permutation == tuple(per_weight), t


def test_opposition_involution_closed_form_at_large_rank():
    for t in [SimpleType("A", 200), SimpleType("A", 401), SimpleType("B", 151), SimpleType("C", 151),
              SimpleType("D", 150), SimpleType("D", 151)]:
        assert opposition_involution(t).permutation == closed_form_opposition(t), t


def iota_fixed_subspace(t):
    """Diagram-space subspace cut out by weight(n) = weight(iota(n))."""
    iota = opposition_involution(t).permutation
    return coordinate_kernel(t.rank, equal=[(i, j) for i, j in enumerate(iota) if i < j])


def test_iota_fixed_subspace_examples():
    a3 = iota_fixed_subspace(SimpleType("A", 3))
    assert a3.dim == 2
    assert a3.contains(vec([1, 0, 1]))
    assert not a3.contains(vec([1, 0, 0]))
    f4 = iota_fixed_subspace(SimpleType("F", 4))
    assert f4.dim == 4
    d5 = iota_fixed_subspace(SimpleType("D", 5))
    assert d5.dim == 4
    assert d5.contains(vec([1, 2, 3, 5, 5]))
    assert not d5.contains(vec([1, 2, 3, 5, 4]))


def test_iota_fixed_dimension_counts_orbits():
    for t in all_types(12):
        inv = opposition_involution(t)
        two_cycles = sum(1 for i, p in enumerate(inv.permutation) if p > i)
        assert iota_fixed_subspace(t).dim == t.rank - two_cycles


def test_involution_acts_on_diagrams():
    t = SimpleType("E", 6)
    perm = opposition_involution(t).permutation
    w = vec([1, 2, 3, 4, 5, 6])
    moved = tuple(w[p] for p in perm)
    assert moved == vec([5, 4, 3, 2, 1, 6])
    assert tuple(moved[p] for p in perm) == w


def test_weighted_diagram_stores_integral_weights_as_ints():
    d = WeightedDiagram(SimpleType("A", 3), (Q(2), 1, Q(0)))
    assert [type(x) for x in d.weights] == [int, int, int]
    assert d.weights == (2, 1, 0)
    with pytest.raises(ValueError):
        WeightedDiagram(SimpleType("A", 3), (Q(2), Q(1, 2), 0))


def test_simple_root_norms_are_ints_with_short_roots_2():
    expected = {("B", 3): (4, 4, 2), ("C", 3): (2, 2, 4), ("F", 4): (4, 4, 2, 2), ("G", 2): (6, 2), ("E", 6): (2,) * 6}
    for (family, rank), norms in expected.items():
        got = simple_root_norms(SimpleType(family, rank))
        assert got == norms and all(type(n) is int for n in got)


def test_weighted_diagram_validates_rank():
    with pytest.raises(ValueError):
        WeightedDiagram(SimpleType("A", 2), (Q(1),))
