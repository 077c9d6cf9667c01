"""Exact linear algebra over the rationals: RREF, kernels, canonical subspaces."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Q, ...]


def vec(values: Iterable) -> Vec:
    """Coerce an iterable of numbers into an exact rational vector."""
    return tuple(Q(v) for v in values)


def rref(rows: Sequence[Sequence[Q]]) -> list[list[Q]]:
    """Reduced row echelon form; drops zero rows, pivots normalized to 1."""
    m = [[Q(x) for x in row] for row in rows]
    if not m:
        return []
    ncols = len(m[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = next((r for r in range(pivot_row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        inv = m[pivot_row][col]
        m[pivot_row] = [x / inv for x in m[pivot_row]]
        for r in range(len(m)):
            if r != pivot_row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[pivot_row])]
        pivot_row += 1
        if pivot_row == len(m):
            break
    return [row for row in m[:pivot_row] if any(x != 0 for x in row)]


def matrix_rank(rows: Sequence[Sequence[Q]]) -> int:
    return len(rref(rows))


def nullspace(rows: Sequence[Sequence[Q]], ncols: int) -> list[Vec]:
    """Canonical basis of {x : row . x = 0 for every row}."""
    reduced = rref(rows)
    pivot_cols = []
    for row in reduced:
        pivot_cols.append(next(c for c in range(ncols) if row[c] != 0))
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for row, p in zip(reduced, pivot_cols):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def solve(rows: Sequence[Sequence[Q]], rhs: Sequence[Q]) -> list[Q] | None:
    """One exact solution of rows . x = rhs, or None if inconsistent.

    Entries are ints or Fractions.  The free variables are set to 0, so the
    answer is the particular solution read off `rref` of the augmented matrix.
    The elimination is fraction-free: each row is scaled to integers and kept
    gcd-normalised, and pivots are taken leftmost-first as in `rref`.  Only
    the pivot variables of a consistent system are back-substituted.
    """
    if not rows:
        return None
    ncols = len(rows[0])
    m = []
    for row, b in zip(rows, rhs):
        entries = [*row, b]
        scale = lcm(*{x.denominator for x in entries})
        m.append([x.numerator * (scale // x.denominator) for x in entries])
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        p = next((r for r in range(top, len(m)) if m[r][col]), None)
        if p is None:
            continue
        m[top], m[p] = m[p], m[top]
        prow = m[top]
        a = prow[col]
        for r in range(top + 1, len(m)):
            b = m[r][col]
            if b:
                row = [a * x - b * y for x, y in zip(m[r], prow)]
                g = gcd(*row)
                m[r] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
        if len(pivots) == len(m):
            break
    # below the pivot rows every coefficient is 0, so a nonzero rhs is a contradiction
    if any(row[ncols] for row in m[len(pivots):]):
        return None
    x = [Q(0)] * ncols
    for row, p in zip(reversed(m[: len(pivots)]), reversed(pivots)):
        x[p] = Q(row[ncols] - sum(a * v for a, v in zip(row[p + 1 : ncols], x[p + 1 :]) if v), row[p])
    return x


def independent_prefix(vectors: Iterable[Sequence[int]]) -> list[int]:
    """Indices of the vectors independent of all earlier ones.  The picked span
    is one fraction-free echelon form of gcd-normalised integer rows, each zero
    at the pivots of the rows before it; a candidate is reduced against them in
    that order (v = a*v - c*row) and picked iff a nonzero entry, its pivot, is left."""
    echelon: list[tuple[int, list[int]]] = []
    picked = []
    for k, v in enumerate(vectors):
        for p, row in echelon:
            c = v[p]
            if c:
                a = row[p]
                v = [a * x - c * y for x, y in zip(v, row)]
        pivot = next((col for col, x in enumerate(v) if x), None)
        if pivot is None:
            continue
        g = gcd(*v)
        echelon.append((pivot, [x // g for x in v]))
        picked.append(k)
        if len(echelon) == len(v):
            break
    return picked


@dataclass(frozen=True)
class RationalSubspace:
    """A subspace of Q^n held as a canonical RREF basis; equality is structural."""

    ambient_dimension: int
    basis: tuple[Vec, ...]

    @classmethod
    def span_of(cls, ambient_dimension: int, vectors: Iterable[Sequence[Q]]) -> "RationalSubspace":
        rows = rref([vec(v) for v in vectors])
        return cls(ambient_dimension, tuple(tuple(r) for r in rows))

    @classmethod
    def from_constraints(cls, ambient_dimension: int, constraints: Iterable[Sequence[Q]]) -> "RationalSubspace":
        """Kernel of the constraint matrix, i.e. {x : c . x = 0 for all c}."""
        rows = [vec(c) for c in constraints]
        return cls.span_of(ambient_dimension, nullspace(rows, ambient_dimension))

    @classmethod
    def full(cls, ambient_dimension: int) -> "RationalSubspace":
        eye = []
        for i in range(ambient_dimension):
            row = [Q(0)] * ambient_dimension
            row[i] = Q(1)
            eye.append(tuple(row))
        return cls(ambient_dimension, tuple(eye))

    @classmethod
    def zero(cls, ambient_dimension: int) -> "RationalSubspace":
        return cls(ambient_dimension, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector: Sequence[Q]) -> bool:
        v = vec(vector)
        if len(v) != self.ambient_dimension:
            raise ValueError("vector has wrong ambient dimension")
        residual = list(v)
        for row in self.basis:
            pivot = next(c for c in range(self.ambient_dimension) if row[c] != 0)
            if residual[pivot] != 0:
                factor = residual[pivot]
                residual = [a - factor * b for a, b in zip(residual, row)]
        return all(x == 0 for x in residual)


def coordinate_kernel(n: int, zero: Iterable[int] = (), equal: Iterable[tuple[int, int]] = ()) -> RationalSubspace:
    """The subspace of Q^n cut out by x[i] = 0 for i in `zero` and x[i] = x[j]
    for (i, j) in `equal`."""
    constraints = []
    for i in zero:
        row = [0] * n
        row[i] = 1
        constraints.append(row)
    for i, j in equal:
        row = [0] * n
        row[i], row[j] = 1, -1
        constraints.append(row)
    return RationalSubspace.from_constraints(n, constraints)
