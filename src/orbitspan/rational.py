"""Exact linear algebra over the rationals (entries are ints or Fractions): one
fraction-free integer elimination behind RREF, solving and kernels, and
coordinate subspaces held as their node classes, found by union-find."""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

Vec = tuple[Q, ...]


def _integer_row(row: Sequence[Q]) -> list[int]:
    """An int or Fraction row scaled by the lcm of its denominators to integers."""
    scale = lcm(*{x.denominator for x in row})
    return [x.numerator * (scale // x.denominator) for x in row]


def _echelon(
    rows: Iterable[Sequence[int]], stop_at: int | None = None
) -> tuple[list[int], list[tuple[int, list[int]]]]:
    """The one elimination (fraction-free, after Bareiss): each row is reduced
    against the kept rows in pick order (v = a*v - c*row) and kept, divided by
    its gcd, iff a nonzero entry, its pivot, is left.  A kept row is zero at
    earlier pivots.  Stops at full rank, or once `stop_at` rows are kept.
    Returns the kept indices and the (pivot, row) pairs."""
    echelon: list[tuple[int, list[int]]] = []
    kept = []
    for k, v in enumerate(rows):
        if len(echelon) == stop_at:
            break
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
    Raises ValueError on an empty system, whose column count is unknown.
    """
    if not rows:
        raise ValueError("solve needs at least one row")
    ncols = len(rows[0])
    echelon = _echelon(_integer_row([*row, b]) for row, b in zip(rows, rhs))[1]
    if any(p == ncols for p, _ in echelon):
        return None
    x = [Q(0)] * ncols
    for p, row in reversed(echelon):
        x[p] = Q(row[ncols] - sum(a * v for a, v in zip(row[p + 1 : ncols], x[p + 1 :]) if v), row[p])
    return x


def independent_prefix(vectors: Iterable[Sequence[int]], stop_at: int | None = None) -> list[int]:
    """Indices of the integer vectors independent of all earlier ones; with
    `stop_at`, only the first `stop_at` of them."""
    return _echelon(vectors, stop_at)[0]


class RationalSubspace(NamedTuple):
    """A coordinate subspace of Q^n held as its node classes: `classes[i]` is the
    least node of i's class, or -1 on the zero class, where vectors are 0; they are
    constant on the other classes.  Equality is structural (the class map is unique)."""

    classes: tuple[int, ...]

    @property
    def roots(self) -> list[int]:
        return [i for i, c in enumerate(self.classes) if c == i]

    @property
    def dim(self) -> int:
        return len(self.roots)

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """The 0/1 indicator of each class by least node: the canonical RREF basis."""
        return tuple(tuple(int(c == r) for c in self.classes) for r in self.roots)

    def contains(self, vector: Sequence[Q]) -> bool:
        if len(vector) != len(self.classes):
            raise ValueError("vector has wrong ambient dimension")
        return all(x == (vector[c] if c >= 0 else 0) for x, c in zip(vector, self.classes))

    def has_basis(self, vectors: Sequence[Sequence[int]]) -> bool:
        """True iff the integer vectors are a basis: `dim` of them, each one in
        the subspace, and independent on the class roots, which determine them."""
        roots = self.roots
        if len(vectors) != len(roots) or not all(self.contains(v) for v in vectors):
            return False
        return len(independent_prefix([v[r] for r in roots] for v in vectors)) == len(vectors)


def coordinate_kernel(n: int, zero: Iterable[int] = (), equal: Iterable[tuple[int, int]] = ()) -> RationalSubspace:
    """The subspace of Q^n cut out by x[i] = 0 for i in `zero` and x[i] = x[j] for (i, j)
    in `equal`.  A union-find (Tarjan 1975) joins the `equal` pairs into classes rooted
    at their least index; a class with a `zero` node is the zero class."""
    root = list(range(n))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, j in equal:
        i, j = find(i), find(j)
        root[max(i, j)] = min(i, j)
    classes = [find(i) for i in range(n)]
    dead = {classes[i] for i in zero}
    return RationalSubspace(tuple(-1 if c in dead else c for c in classes))
