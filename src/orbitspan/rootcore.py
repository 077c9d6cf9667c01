"""Root systems of complex simple Lie algebras, the longest-element action and
the opposition involution on the Dynkin diagram.

Node ordering convention (frozen; every table in this package depends on it):
  A/B/C chains a_1..a_l left to right; D has the chain a_1..a_{l-2} with fork
  nodes a_{l-1} (upper) and a_l (lower); E6 is the chain a_1..a_5 with a_6 on
  a_3; E7 the chain a_1..a_6 with a_7 on a_4; E8 the chain a_1..a_7 with a_8 on
  a_5; F4 is a_1 - a_2 => a_3 - a_4; G2 is a_1 => a_2 (a_1 long, a_2 short).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4}

# A NamedTuple may not define __new__ or _make, so each validating record
# checks its fields in the __new__ of a subclass of its fields tuple and sets
# _make, which _replace calls too, to checked_make: the tuple's own _make calls
# tuple.__new__ and skips the checks.  Each class sets it rather than inheriting
# it from a mixin, which would lengthen every construction's super() lookup.
@classmethod
def checked_make(cls, iterable):
    return cls(*iterable)


class _SimpleTypeFields(NamedTuple):
    family: str
    rank: int


class SimpleType(_SimpleTypeFields):
    """A complex simple Lie algebra type, e.g. SimpleType('D', 5)."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, family: str, rank: int):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
        if family in _MIN_RANK:
            low = _MIN_RANK[family]
            if rank < low:
                hint = ""
                if family == "B" and rank == 1:
                    hint = " (B_1 is excluded; use A_1)"
                elif family == "C" and rank == 1:
                    hint = " (C_1 is excluded; use A_1)"
                elif family == "D" and rank == 3:
                    hint = " (D_3 is excluded; use A_3)"
                elif family == "D" and rank == 2:
                    hint = " (D_2 is not simple)"
                raise ValueError(f"{family}_{rank} is not supported{hint}")
        elif family == "E":
            if rank not in (6, 7, 8):
                raise ValueError(f"E_{rank} does not exist; rank must be 6, 7 or 8")
        elif family == "F":
            if rank != 4:
                raise ValueError("F family has rank 4 only")
        elif family == "G":
            if rank != 2:
                raise ValueError("G family has rank 2 only")
        return super().__new__(cls, family, rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _chain_edges(rank: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(rank - 1)]


def cartan_matrix(t: SimpleType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix A with A[i][j] = <alpha_j, alpha_i^vee> in the frozen node order."""
    l = t.rank
    a = [[2 if i == j else 0 for j in range(l)] for i in range(l)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if t.family == "A":
        for i, j in _chain_edges(l):
            bond(i, j)
    elif t.family == "B":
        for i, j in _chain_edges(l - 1):
            bond(i, j)
        bond(l - 2, l - 1, -1, -2)  # a_l short
    elif t.family == "C":
        for i, j in _chain_edges(l - 1):
            bond(i, j)
        bond(l - 2, l - 1, -2, -1)  # a_l long
    elif t.family == "D":
        for i, j in _chain_edges(l - 1):
            bond(i, j)
        bond(l - 3, l - 1)  # lower fork a_l attaches to a_{l-2}
    elif t.family == "E":
        branch = {6: (2, 5), 7: (3, 6), 8: (4, 7)}[l]
        for i, j in _chain_edges(l - 1):
            bond(i, j)
        bond(*branch)
    elif t.family == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)  # a_1, a_2 long; a_3, a_4 short
        bond(2, 3)
    elif t.family == "G":
        bond(0, 1, -1, -3)  # a_1 long, a_2 short
    return tuple(tuple(row) for row in a)


def simple_root_norms(t: SimpleType) -> tuple[int, ...]:
    """Squared lengths (alpha_i, alpha_i), 2 on the short roots, from the
    symmetrizer d_i A_ij = d_j A_ji of the Cartan matrix.  Two root lengths
    differ by a factor 2 or 3, so d seeded with 6 stays integral."""
    a = cartan_matrix(t)
    l = t.rank
    d = {0: 6}
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(l):
            if a[i][j] and j not in d:
                d[j] = d[i] * a[i][j] // a[j][i]
                todo.append(j)
    scale = min(d.values())
    return tuple(2 * d[i] // scale for i in range(l))


class RootSystemData(NamedTuple):
    """Cartan matrix plus the positive roots in the simple-root basis."""

    simple_type: SimpleType
    cartan_matrix: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def build_root_system(t: SimpleType) -> RootSystemData:
    """Close the simple roots under simple reflections; s_i keeps every positive
    root but alpha_i positive and moves it iff <root, alpha_i^vee> != 0."""
    l = t.rank
    a = cartan_matrix(t)
    bonds = [[(j, aij) for j, aij in enumerate(row) if aij] for row in a]
    simples = [tuple(1 if j == i else 0 for j in range(l)) for i in range(l)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for root in frontier:
            for i in range(l):
                pairing = sum(root[j] * aij for j, aij in bonds[i])
                if pairing and root[i] >= pairing:
                    image = root[:i] + (root[i] - pairing,) + root[i + 1 :]
                    if image not in roots:
                        roots.add(image)
                        nxt.append(image)
        frontier = nxt
    positives = sorted(roots, key=lambda r: (sum(r), r))
    return RootSystemData(t, a, tuple(positives))


class _WeightedDiagramFields(NamedTuple):
    simple_type: SimpleType
    weights: tuple[int, ...]


class WeightedDiagram(_WeightedDiagramFields):
    """Integer weights on the Dynkin diagram nodes: the Psi-coordinates of a
    Cartan element.  An integral Fraction weight is stored as its int."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, simple_type: SimpleType, weights: tuple[int, ...]):
        weights = tuple(weights)
        if len(weights) != simple_type.rank:
            raise ValueError("weight count does not match rank")
        if any(type(w) is not int for w in weights):
            if not all(getattr(w, "denominator", 0) == 1 for w in weights):
                raise ValueError(f"diagram weights must be integers; got {weights}")
            weights = tuple(w.numerator for w in weights)
        return super().__new__(cls, simple_type, weights)


class _DiagramInvolutionFields(NamedTuple):
    simple_type: SimpleType
    permutation: tuple[int, ...]


class DiagramInvolution(_DiagramInvolutionFields):
    """A self-inverse node permutation preserving the Cartan matrix (0-based)."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, simple_type: SimpleType, permutation: tuple[int, ...]):
        perm = permutation
        if sorted(perm) != list(range(simple_type.rank)):
            raise ValueError("not a permutation of the nodes")
        if any(perm[perm[i]] != i for i in range(len(perm))):
            raise ValueError("permutation is not an involution")
        a = cartan_matrix(simple_type)
        for i in range(len(perm)):
            for j in range(len(perm)):
                if a[i][j] != a[perm[i]][perm[j]]:
                    raise ValueError("permutation does not preserve the Cartan matrix")
        return super().__new__(cls, simple_type, permutation)


def _dominantize(psi: list, a) -> list:
    """Carry a vector (in Psi-coordinates) into the closed dominant chamber;
    any order of reflecting at negative coordinates ends at the same vector."""
    psi = list(psi)
    columns = [[(j, row[i]) for j, row in enumerate(a) if row[i]] for i in range(len(psi))]
    todo = [k for k, x in enumerate(psi) if x < 0]
    while todo:
        i = todo.pop()
        pi = psi[i]
        if pi < 0:
            # s_i in Psi-coordinates: psi_j -= psi_i * A[j][i]
            for j, aji in columns[i]:
                psi[j] -= pi * aji
                if psi[j] < 0:
                    todo.append(j)
    return psi


@lru_cache(maxsize=None)
def opposition_involution(t: SimpleType) -> DiagramInvolution:
    """The node permutation sigma induced by -w0, read from one dominantization
    (in `int`s, so the Cartan columns are listed once): the regular weight
    lambda = sum (i+1) omega_i has -w0 lambda = sum (i+1) omega_sigma(i) as the
    dominant vector in the orbit of -lambda."""
    l = t.rank
    image = _dominantize([-(i + 1) for i in range(l)], cartan_matrix(t))
    node = {c: j for j, c in enumerate(image)}
    if sorted(node) != list(range(1, l + 1)):
        raise AssertionError("the dominantized negated regular weight is not a permuted regular weight")
    return DiagramInvolution(t, tuple(node[i + 1] for i in range(l)))
