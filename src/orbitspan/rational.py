"""Exact linear algebra over the rationals (entries are ints or Fractions): one
fraction-free integer elimination behind RREF, solving and kernels."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Q, ...]


def vec(values: Iterable) -> Vec:
    """Coerce an iterable of numbers into an exact rational vector."""
    return tuple(Q(v) for v in values)


def _integer_row(row: Sequence[Q]) -> list[int]:
    """An int or Fraction row scaled by the lcm of its denominators to integers."""
    scale = lcm(*{x.denominator for x in row})
    return [x.numerator * (scale // x.denominator) for x in row]


def _echelon(rows: Iterable[Sequence[int]]) -> tuple[list[int], list[tuple[int, list[int]]]]:
    """The one elimination (fraction-free, after Bareiss): each row is reduced
    against the kept rows in pick order (v = a*v - c*row) and kept, divided by
    its gcd, iff a nonzero entry, its pivot, is left.  A kept row is zero at
    earlier pivots.  Returns the kept indices and the (pivot, row) pairs."""
    echelon: list[tuple[int, list[int]]] = []
    kept = []
    for k, v in enumerate(rows):
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
        kept.append(k)
        if len(echelon) == len(v):
            break
    return kept, echelon


def rref(rows: Sequence[Sequence[Q]]) -> list[list[Q]]:
    """Reduced row echelon form; drops zero rows, pivots normalized to 1.

    The echelon rows are sorted by pivot and the entries above each pivot are
    cleared in integers; each row is divided by its pivot entry only at the end.
    """
    reduced = sorted(_echelon(_integer_row(row) for row in rows)[1])  # pivots are distinct
    for i, (p, prow) in enumerate(reduced):
        a = prow[p]
        for j in range(i):
            q, row = reduced[j]
            c = row[p]
            if c:
                row = [a * x - c * y for x, y in zip(row, prow)]
                g = gcd(*row)
                reduced[j] = (q, [x // g for x in row])
    return [[Q(x, row[p]) for x in row] for p, row in reduced]


def matrix_rank(rows: Sequence[Sequence[Q]]) -> int:
    return len(rref(rows))


def nullspace(rows: Sequence[Sequence[Q]], ncols: int) -> list[Vec]:
    """Canonical basis of {x : row . x = 0 for every row}."""
    reduced = rref(rows)
    pivots = [next(c for c, x in enumerate(row) if x) for row in reduced]
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def solve(rows: Sequence[Sequence[Q]], rhs: Sequence[Q]) -> list[Q] | None:
    """One exact solution of rows . x = rhs, or None if inconsistent (a kept
    augmented row with its pivot in the rhs column).  The pivot variables are
    back-substituted in reverse pick order and the free ones are 0: as every
    echelon form has the same pivots, this is what `rref` of [rows | rhs] gives.
    """
    if not rows:
        return None
    ncols = len(rows[0])
    echelon = _echelon(_integer_row([*row, b]) for row, b in zip(rows, rhs))[1]
    if any(p == ncols for p, _ in echelon):
        return None
    x = [Q(0)] * ncols
    for p, row in reversed(echelon):
        x[p] = Q(row[ncols] - sum(a * v for a, v in zip(row[p + 1 : ncols], x[p + 1 :]) if v), row[p])
    return x


def independent_prefix(vectors: Iterable[Sequence[int]]) -> list[int]:
    """Indices of the integer vectors independent of all earlier ones."""
    return _echelon(vectors)[0]


@dataclass(frozen=True)
class RationalSubspace:
    """A subspace of Q^n held as a canonical RREF basis; equality is structural."""

    ambient_dimension: int
    basis: tuple[Vec, ...]

    @classmethod
    def span_of(cls, ambient_dimension: int, vectors: Iterable[Sequence[Q]]) -> "RationalSubspace":
        return cls(ambient_dimension, tuple(tuple(r) for r in rref(vectors)))

    @classmethod
    def from_constraints(cls, ambient_dimension: int, constraints: Iterable[Sequence[Q]]) -> "RationalSubspace":
        """Kernel of the constraint matrix, i.e. {x : c . x = 0 for all c}."""
        return cls.span_of(ambient_dimension, nullspace(constraints, ambient_dimension))

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
