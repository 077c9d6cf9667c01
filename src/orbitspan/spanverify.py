"""The matching filter, span checks and per-form verification reports: the
weighted diagrams of nilpotent orbits that match a real form's Satake diagram
must span exactly the (-w0)-fixed subspace."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .nilorbits import OrbitDiagram, defining_size, enumerate_complex_characteristics, orbit_diagrams, partition_label
from .rational import independent_prefix
from .rootcore import SimpleType, opposition_involution
from .satake import (
    RealFormLabel,
    SatakeDiagram,
    b_subspace,
    matches,
    satake_catalog,
    split_label_of,
    underlying_type,
)


@dataclass(frozen=True)
class VerificationReport:
    label: RealFormLabel
    simple_type: SimpleType
    matching_orbits: tuple[OrbitDiagram, ...]
    dim_b: int
    dim_span: int
    theorem_holds: bool
    greedy_basis: tuple[str, ...]
    easy_inclusion_holds: bool
    paper_basis_verified: bool

    @property
    def verified(self) -> bool:
        """The verdict: the span theorem, the easy inclusion and the published basis all hold."""
        return self.theorem_holds and self.easy_inclusion_holds and self.paper_basis_verified

    def to_json(self) -> dict:
        return {
            "label": str(self.label),
            "type": self.simple_type.family,
            "rank": self.simple_type.rank,
            "dim_b": self.dim_b,
            "dim_span": self.dim_span,
            "theorem_holds": self.theorem_holds,
            "easy_inclusion": self.easy_inclusion_holds,
            "basis": list(self.greedy_basis),
            "paper_basis_verified": self.paper_basis_verified,
        }


def filter_matching(diagrams: Iterable[OrbitDiagram], s: SatakeDiagram) -> list[OrbitDiagram]:
    """Keep the diagrams matching the Satake diagram, preserving input order."""
    return [od for od in diagrams if matches(od.diagram, s)]


def candidate_orbits(label: RealFormLabel) -> tuple[OrbitDiagram, ...]:
    """The orbit diagrams the Satake filter is given, in canonical order: only
    partitions whose signed Young diagrams can fit the form (Collingwood-
    McGovern 9.3), sum floor(m/2) <= q over the parts m for su(p,q) and
    so(p,q), all multiplicities even for su*(2k), and both, with 2q, for
    sp(p,q).  Other kinds, and budgets that bind nothing, get every orbit."""
    t = underlying_type(label)
    k, p = label.kind, label.params
    if k in ("su", "so") and p[1] < sum(p) // 2:
        return orbit_diagrams(t, budget=p[1])
    if k == "sp":
        return orbit_diagrams(t, "even", 2 * p[1])
    if k == "su*":
        return orbit_diagrams(t, "even")
    return enumerate_complex_characteristics(t)


def h_n_a_plus(label: RealFormLabel) -> list[OrbitDiagram]:
    """Orbit diagrams matching the form's Satake diagram; these are exactly the
    hyperbolic elements of the closed chamber coming from real sl2 embeddings,
    and their labels name the complex orbits meeting the real form."""
    return filter_matching(candidate_orbits(label), satake_catalog(label))


def check_easy_inclusion(t: SimpleType, matching: Iterable[OrbitDiagram]) -> bool:
    """Every matching diagram is fixed by the opposition involution of `t`."""
    perm = opposition_involution(t).permutation
    swapped = [(i, j) for i, j in enumerate(perm) if i < j]
    return all(od.diagram.weights[i] == od.diagram.weights[j] for od in matching for i, j in swapped)


def greedy_basis_of(
    matching: Sequence[OrbitDiagram], stop_at: Optional[int] = None
) -> tuple[list[str], list[tuple[int, ...]]]:
    """First independent spanning subset in canonical enumeration order: the
    labels and weights of its diagrams, ending after `stop_at` picks when
    given.  Orbit-diagram weights are the integers 0, 1 and 2."""
    picked = [matching[k] for k in independent_prefix((od.diagram.weights for od in matching), stop_at)]
    return [od.label for od in picked], [od.diagram.weights for od in picked]


def verify_theorem(label: RealFormLabel) -> VerificationReport:
    """Compare the span of the matching diagrams with the (-w0)-fixed subspace:
    they are equal iff the greedy basis of the span is a basis of b.  Under the
    easy inclusion the span lies in b, so the greedy stops at dim b picks."""
    t = underlying_type(label)
    matching = h_n_a_plus(label)
    b = b_subspace(label)
    inclusion = check_easy_inclusion(t, matching)
    basis_labels, weights = greedy_basis_of(matching, b.dim if inclusion else None)
    return VerificationReport(
        label=label,
        simple_type=t,
        matching_orbits=tuple(matching),
        dim_b=b.dim,
        dim_span=len(weights),
        theorem_holds=b.has_basis(weights),
        greedy_basis=tuple(basis_labels),
        easy_inclusion_holds=inclusion,
        paper_basis_verified=verify_paper_basis(label, matching),
    )


# The published bases of the exceptional forms, keyed (kind, signature).
_EXCEPTIONAL_BASES = {
    ("e6", 6): ["A_2", "2A_2", "D_4", "E_6"],
    ("e6", 2): ["A_2", "2A_2", "D_4", "E_6"],
    ("e6", -14): ["A_2", "2A_2"],
    ("e6", -26): ["2A_2"],
    ("e7", 7): ["(3A_1)''", "A_2", "2A_2", "D_4", "A_3+A_2+A_1", "A_4+A_2", "E_7"],
    ("e7", -5): ["A_2", "2A_2", "D_4", "A_4+A_2"],
    ("e7", -25): ["(3A_1)''", "A_2", "2A_2"],
    ("e8", 8): ["A_2", "2A_2", "D_4", "A_4+A_2", "D_4+A_2", "D_5+A_2", "E_8(a_1)", "E_8"],
    ("e8", -24): ["A_2", "2A_2", "D_4", "A_4+A_2"],
    ("f4", 4): ["A_2", "Ã_2", "B_3", "F_4"],
    ("f4", -20): ["Ã_2"],
    ("g2", 2): ["G_2(a_1)", "G_2"],
}


def paper_basis(label: RealFormLabel) -> list[str]:
    """The published example basis for the form, instantiated at its parameters.

    Every classical kind but sp(l,R) is one row (c, count, closing): the orbits
    [(2s+1)^c, 1^(N-c(2s+1))] for s = 1..count, N the defining size, then the
    closing orbit if any.  Raises LookupError for labels outside the tables.
    """
    label = split_label_of(label)
    k, p = label.kind, label.params
    if (k, p[0]) in _EXCEPTIONAL_BASES:
        return list(_EXCEPTIONAL_BASES[k, p[0]])
    n, q = p[0], p[-1]  # sl(n,R) and sp(n,R); su(n,q), sp(n,q) and so(n,q)
    m = n // 2  # su*(2m) and so*(2m)
    if k == "spR":
        return [partition_label([2 * s + 2] + [2] * (n - s - 1)) for s in range(n)]
    if k == "sl":
        c, count, closing = 1, (n - 1) // 2, partition_label([n]) if n % 2 == 0 else None
    elif k == "su*":
        c, count, closing = 2, (m - 1) // 2, partition_label([m, m]) if m % 2 == 0 else None
    elif k == "so*":
        c, count, closing = 2, (m - 1) // 2, partition_label([2] * m, "I") if m % 2 == 0 else None
    elif k == "su":
        c, count, closing = (1, q, None) if n > q else (1, q - 1, partition_label([2 * q]))
    elif k == "sp":
        c, count, closing = (2, q, None) if n > q else (2, q - 1, partition_label([2 * q] * 2))
    elif k == "so":  # n + q odd forces n > q
        c, count, closing = (1, q, None) if n > q else (1, q - 1, partition_label([2] * q, "I") if q % 2 == 0 else None)
    else:
        raise LookupError(f"no published basis for {label}")
    size = defining_size(underlying_type(label))
    out = [partition_label([2 * s + 1] * c + [1] * (size - c * (2 * s + 1))) for s in range(1, count + 1)]
    return out + [closing] if closing else out


def verify_paper_basis(label: RealFormLabel, matching: Iterable[OrbitDiagram]) -> bool:
    """Published basis labels must name matching orbits, whose diagrams must
    be even (all weights 0 or 2) and a basis of the b-subspace."""
    weights_of = {od.label: od.diagram.weights for od in matching}
    weights = [weights_of.get(lbl) for lbl in paper_basis(label)]
    if None in weights or not all(w in (0, 2) for ws in weights for w in ws):
        return False
    return b_subspace(label).has_basis(weights)
