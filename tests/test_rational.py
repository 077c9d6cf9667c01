"""Exact linear algebra: RREF canonicalization, kernels, coordinate subspaces
held as node classes against the reference RREF span, and the basis predicate."""

from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from greedy_reference import greedy_reference
from rref_reference import RrefSpan, nullspace_reference, rref_solution, span_of, vec
from rref_reference import rref as rref_reference
from orbitspan.rational import (
    RationalSubspace,
    coordinate_kernel,
    independent_prefix,
    nullspace,
    rref,
    solve,
)


def test_rref_normalizes_pivots_and_drops_zero_rows():
    rows = [[Q(2), Q(4)], [Q(1), Q(2)], [Q(0), Q(0)]]
    assert rref(rows) == [[Q(1), Q(2)]]


def test_rref_is_canonical_for_row_equivalent_inputs():
    a = [[Q(1), Q(2), Q(3)], [Q(0), Q(1), Q(1)]]
    b = [[Q(2), Q(5), Q(7)], [Q(1), Q(3), Q(4)]]  # same row space
    assert rref(a) == rref(b)


def test_nullspace_dimensions():
    rows = [vec([1, -1, 0]), vec([0, 1, -1])]
    kernel = nullspace(rows, 3)
    assert len(kernel) == 1
    assert kernel[0] == vec([1, 1, 1])


def test_solve_consistent_and_inconsistent():
    rows = [vec([1, 1]), vec([1, -1]), vec([2, 0])]
    assert solve(rows, [Q(2), Q(0), Q(2)]) == [Q(1), Q(1)]
    assert solve(rows, [Q(2), Q(0), Q(5)]) is None


def test_solve_rejects_an_empty_system():
    with pytest.raises(ValueError, match="solve needs at least one row"):
        solve([], [])


def test_subspace_equality_is_structural():
    s1 = span_of(3, [vec([1, 1, 0]), vec([0, 0, 1])])
    s2 = span_of(3, [vec([2, 2, 2]), vec([0, 0, 5]), vec([1, 1, 1])])
    assert s1 == s2
    assert s1.dim == 2
    k = coordinate_kernel(5, zero=[4], equal=[(0, 2), (2, 3)])
    assert k == coordinate_kernel(5, zero=[4, 4], equal=[(3, 0), (2, 0), (1, 1)])
    assert k != coordinate_kernel(5, zero=[4], equal=[(0, 2)])


def test_coordinate_kernel():
    s = coordinate_kernel(5, zero=[1], equal=[(0, 3), (3, 4)])
    rows = [vec([0, 1, 0, 0, 0]), vec([1, 0, 0, -1, 0]), vec([0, 0, 0, 1, -1])]
    assert s.classes == (0, -1, 2, 0, 0)
    assert s.basis == span_of(5, nullspace_reference(rows, 5)).basis
    assert s.basis == (vec([1, 0, 0, 1, 1]), vec([0, 0, 1, 0, 0]))
    assert coordinate_kernel(3).basis == (vec([1, 0, 0]), vec([0, 1, 0]), vec([0, 0, 1]))
    assert coordinate_kernel(2, zero=[0], equal=[(0, 1)]) == RationalSubspace((-1, -1))


def test_full_and_zero():
    assert coordinate_kernel(5).dim == 5
    for zero in (coordinate_kernel(5, zero=range(5)), span_of(5, [])):
        assert zero.dim == 0
        assert zero.basis == ()
        assert zero.contains(vec([0] * 5))
        assert not zero.contains([0, 0, 1, 0, 0])


def test_contains_rejects_wrong_dimension():
    for s in (coordinate_kernel(3), coordinate_kernel(3, zero=[0, 1, 2]), span_of(3, [])):
        with pytest.raises(ValueError):
            s.contains(vec([1, 2]))


@st.composite
def coordinate_constraints(draw):
    """Zero nodes and equal pairs on at most 12 nodes: repeated and chained
    pairs, (i, i) pairs, and zero nodes inside classes."""
    n = draw(st.integers(min_value=0, max_value=12))
    if n == 0:
        return 0, [], []
    node = st.integers(min_value=0, max_value=n - 1)
    equal = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["repeat", "chain", "loop"]))
        if kind == "repeat" and equal:
            i, j = draw(st.sampled_from(equal))
            equal.append(draw(st.sampled_from([(i, j), (j, i)])))
        elif kind == "chain" and equal:
            i, j = draw(st.sampled_from(equal))
            equal.append((j, draw(node)))
        else:
            i = draw(node)
            equal.append((i, i))
    zero = draw(st.lists(node, max_size=n))
    if equal and draw(st.booleans()):
        zero.append(draw(st.sampled_from(equal))[1])
    return n, zero, equal


@given(coordinate_constraints(), st.data())
def test_coordinate_kernel_agrees_with_nullspace_reference(case, data):
    """The class map against the RREF span of the reference kernel: dimension,
    basis, membership and the basis predicate."""
    n, zero, equal = case
    rows = [[int(c == i) for c in range(n)] for i in zero]
    rows += [[int(c == i) - int(c == j) for c in range(n)] for i, j in equal]
    expected = span_of(n, nullspace_reference(rows, n))
    s = coordinate_kernel(n, zero, equal)
    assert len(s.classes) == expected.ambient_dimension
    assert s.dim == expected.dim
    assert s.basis == expected.basis
    small = st.integers(min_value=-3, max_value=3)

    def combination(basis):
        coefficients = data.draw(st.lists(small, min_size=len(basis), max_size=len(basis)))
        return [sum(c * row[i] for c, row in zip(coefficients, basis)) for i in range(n)]

    def perturbed(v):
        if n:
            v = list(v)
            v[data.draw(st.integers(min_value=0, max_value=n - 1))] += data.draw(st.sampled_from([-1, 1]))
        return v

    member = combination(s.basis)
    assert s.contains(member)
    for v in (member, perturbed(member), data.draw(st.lists(small, min_size=n, max_size=n))):
        assert s.contains(v) == expected.contains(v)

    basis = [list(row) for row in s.basis]
    shuffled = data.draw(st.permutations(basis))
    mixed = [list(row) for row in shuffled]
    for k in range(1, len(mixed)):  # row operations, so still a basis
        c = data.draw(small)
        mixed[k] = [x + c * y for x, y in zip(mixed[k], mixed[k - 1])]
    assert s.has_basis(basis) and s.has_basis(shuffled) and s.has_basis(mixed)
    candidates = [basis[:-1], basis + [member]]
    if basis:
        k = data.draw(st.integers(min_value=0, max_value=len(basis) - 1))
        dependent = [*mixed[:k], combination(mixed[:k] + mixed[k + 1 :]), *mixed[k + 1 :]]
        assert not s.has_basis(dependent)
        candidates += [dependent, [*mixed[:k], perturbed(mixed[k]), *mixed[k + 1 :]]]
    for vectors in candidates:
        assert s.has_basis(vectors) == expected.has_basis(vectors)


def test_coordinate_kernel_class_order_and_entries():
    # classes {0, 2, 4} and {1, 3}; the root of each is its least index
    s = coordinate_kernel(5, equal=[(4, 2), (3, 1), (2, 0)])
    assert s.basis == ((1, 0, 1, 0, 1), (0, 1, 0, 1, 0))
    assert all(type(x) is int for row in s.basis for x in row)
    assert coordinate_kernel(4, zero=[3], equal=[(3, 1), (1, 1)]).basis == ((1, 0, 0, 0), (0, 0, 1, 0))


def test_has_basis_examples():
    b = coordinate_kernel(4, zero=[3], equal=[(0, 2)])  # x0 = x2, x3 = 0
    assert b.dim == 2
    assert b.has_basis([(1, 0, 1, 0), (0, 1, 0, 0)])
    assert b.has_basis([(2, 1, 2, 0), (1, 2, 1, 0)])
    assert not b.has_basis([(1, 0, 1, 0), (0, 1, 0, 1)])  # the second one is outside b
    assert not b.has_basis([(1, 0, 0, 0), (0, 1, 0, 0)])  # so is the first
    assert not b.has_basis([(1, 0, 1, 0)])  # too few
    assert not b.has_basis([(1, 0, 1, 0), (0, 1, 0, 0), (1, 1, 1, 0)])  # too many
    assert not b.has_basis([(1, 0, 1, 0), (2, 0, 2, 0)])  # dependent
    zero = coordinate_kernel(3, zero=range(3))
    assert zero.has_basis([])
    assert not zero.has_basis([(0, 0, 0)])


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
small_matrix = st.lists(st.lists(small_fracs, min_size=4, max_size=4), min_size=1, max_size=4)


@given(small_matrix)
def test_rank_bounded_and_basis_contained(rows):
    s = span_of(4, rows)
    assert s.dim == len(rref_reference(rows)) <= 4
    for row in rows:
        assert s.contains(vec(row))


@st.composite
def matrices(draw):
    """Small int/Fraction matrices, possibly empty, with zero rows and row
    combinations mixed in, so that many are rank deficient."""
    entry = st.one_of(st.just(0), st.integers(min_value=-4, max_value=4), small_fracs)
    ncols = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if draw(st.booleans()) or not rows:
            extra = [0] * ncols
        else:
            i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
            j = draw(st.integers(min_value=0, max_value=len(rows) - 1))
            k = draw(small_fracs)
            extra = [k * a + b for a, b in zip(rows[i], rows[j])]
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), extra)
    return ncols, rows


@given(matrices())
def test_rref_nullspace_and_span_agree_with_fraction_reference(case):
    ncols, rows = case
    expected = rref_reference(rows)
    # repr compares the entry types too: every entry is a Fraction
    assert repr(rref(rows)) == repr(expected)
    assert repr(nullspace(rows, ncols)) == repr(nullspace_reference(rows, ncols))
    assert span_of(ncols, rows).basis == tuple(tuple(r) for r in expected)


def test_rref_edge_cases():
    assert rref([]) == []
    assert rref([[0, 0], [Q(0), 0]]) == []
    assert nullspace([], 2) == [vec([1, 0]), vec([0, 1])]
    assert span_of(3, []) == RrefSpan(3, ())
    assert rref([[0, Q(1, 2), 1], [3, 0, 0], [0, 2, 4]]) == [[1, 0, 0], [0, 1, 2]]


@st.composite
def linear_systems(draw):
    """Small int/Fraction systems; appended row combinations make them rank
    deficient, and a shifted right-hand side on such a row inconsistent."""
    entry = st.one_of(st.just(0), st.integers(min_value=-4, max_value=4), small_fracs)
    ncols = draw(st.integers(min_value=1, max_value=5))
    nrows = draw(st.integers(min_value=1, max_value=5))
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    rhs = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        j = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        k = draw(small_fracs)
        shift = draw(st.sampled_from([0, 0, 1]))
        rows.append([k * a + b for a, b in zip(rows[i], rows[j])])
        rhs.append(k * rhs[i] + rhs[j] + shift)
    return rows, rhs


@given(linear_systems())
def test_solve_agrees_with_rref_reference(system):
    rows, rhs = system
    assert solve(rows, rhs) == rref_solution(rows, rhs)


@st.composite
def integer_vector_lists(draw):
    """Lists of 1-12 integer vectors with negative entries, zero vectors,
    duplicates and integer combinations of earlier vectors mixed in."""
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=-3, max_value=3)
    vectors = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=8))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(["zero", "duplicate", "combination"]))
        i = draw(st.integers(min_value=0, max_value=len(vectors) - 1))
        j = draw(st.integers(min_value=0, max_value=len(vectors) - 1))
        if kind == "zero":
            extra = [0] * n
        elif kind == "duplicate":
            extra = list(vectors[i])
        else:
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            extra = [a * x + b * y for x, y in zip(vectors[i], vectors[j])]
        vectors.insert(draw(st.integers(min_value=0, max_value=len(vectors))), extra)
    return n, vectors


@given(integer_vector_lists())
def test_independent_prefix_agrees_with_greedy_reference(case):
    n, vectors = case
    picked = independent_prefix(vectors)
    expected, span = greedy_reference(vectors, n)
    assert picked == expected
    assert span_of(n, [vectors[k] for k in picked]) == span


def test_independent_prefix_examples():
    assert independent_prefix([]) == []
    assert independent_prefix([[0, 0], [2, 4], [1, 2], [0, 3], [5, 5]]) == [1, 3]
    assert independent_prefix([[0, 1, 1], [0, 2, -1], [1, 0, 0], [3, 3, 3]]) == [0, 1, 2]


@given(integer_vector_lists(), st.integers(min_value=0, max_value=6))
def test_independent_prefix_stop_at_keeps_the_first_picks(case, stop_at):
    _, vectors = case
    assert independent_prefix(vectors, stop_at) == independent_prefix(vectors)[:stop_at]
