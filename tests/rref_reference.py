"""References for `rational`: the `Fraction` Gauss-Jordan loop that the shared
fraction-free elimination behind `rational.rref` replaced, kept verbatim, and
the kernel and particular solution read off it; and the general subspace that
`rational.RationalSubspace` specialized to coordinate subspaces, held as a
canonical RREF basis of int or `Fraction` rows, which `span_of` builds.  The
tests compare the class map of `coordinate_kernel` against that span."""

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Iterable, Sequence

from orbitspan import rational


def vec(values: Iterable) -> tuple[Q, ...]:
    """Coerce an iterable of numbers into an exact rational vector."""
    return tuple(Q(v) for v in values)


@dataclass(frozen=True)
class RrefSpan:
    """A subspace of Q^n held as a canonical RREF basis of int or Fraction
    entries; equality is structural (1 == Fraction(1))."""

    ambient_dimension: int
    basis: tuple[tuple[Q, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector: Sequence[Q]) -> bool:
        """Membership by reduction against the RREF basis."""
        if len(vector) != self.ambient_dimension:
            raise ValueError("vector has wrong ambient dimension")
        residual = list(vector)
        for row in self.basis:
            pivot = next(c for c, x in enumerate(row) if x)
            factor = residual[pivot]
            if factor:
                residual = [a - factor * b for a, b in zip(residual, row)]
        return not any(residual)

    def has_basis(self, vectors: Sequence[Sequence[int]]) -> bool:
        """True iff the integer vectors are a basis: `dim` of them, independent
        and each one in the subspace."""
        return (
            len(vectors) == self.dim
            and all(self.contains(v) for v in vectors)
            and len(rational.independent_prefix(vectors)) == len(vectors)
        )


def span_of(ambient_dimension: int, vectors: Iterable[Sequence[Q]]) -> RrefSpan:
    """The span of the vectors, held as its canonical basis from `rational.rref`."""
    return RrefSpan(ambient_dimension, tuple(tuple(r) for r in rational.rref(vectors)))


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


def nullspace_reference(rows, ncols):
    """The canonical kernel basis: one vector per free column f of the
    reference rref, 1 at f, minus column f of the rref at the pivots."""
    reduced = rref(rows)
    pivots = [next(c for c, x in enumerate(row) if x != 0) for row in reduced]
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def rref_solution(rows, rhs):
    """Reference for `solve`: the rref of the augmented matrix, free variables 0."""
    ncols = len(rows[0])
    x = [Q(0)] * ncols
    for row in rref([list(r) + [b] for r, b in zip(rows, rhs)]):
        pivot = next(c for c, v in enumerate(row) if v != 0)
        if pivot == ncols:
            return None
        x[pivot] = row[ncols]
    return x
