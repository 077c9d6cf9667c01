"""The matching filter, span checks and per-form verification reports: the
weighted diagrams of nilpotent orbits that match a real form's Satake diagram
must span exactly the (-w0)-fixed subspace."""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .nilorbits import OrbitDiagram, enumerate_complex_characteristics, orbit_diagrams
from .rational import independent_prefix
from .rootcore import SimpleType, opposition_involution
from .satake import (
    KINDS,
    RealFormLabel,
    SatakeDiagram,
    b_subspace,
    matches,
    satake_catalog,
    split_label_of,
    underlying_type,
)


class VerificationReport(NamedTuple):
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
    """The orbit diagrams the Satake filter is given, in canonical order, as the kind's candidate rule says."""
    t = underlying_type(label)
    rule = KINDS[label.kind].candidates(*label.params)
    return enumerate_complex_characteristics(t) if rule is None else orbit_diagrams(t, *rule)


def h_n_a_plus(label: RealFormLabel) -> list[OrbitDiagram]:
    """Orbit diagrams matching the form's Satake diagram; these are exactly the
    hyperbolic elements of the closed chamber coming from real sl2 embeddings,
    and their labels name the complex orbits meeting the real form."""
    return filter_matching(candidate_orbits(label), satake_catalog(label))


def check_easy_inclusion(t: SimpleType, matching: Iterable[OrbitDiagram]) -> bool:
    """Every matching diagram is fixed by the opposition involution of `t`."""
    perm = opposition_involution(t).permutation
    swapped = [(i, j) for i, j in enumerate(perm) if i < j]
    return all(w[i] == w[j] for w in (od.diagram.weights for od in matching) for i, j in swapped)


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


def paper_basis(label: RealFormLabel) -> list[str]:
    """The published example basis for the form, instantiated at its parameters (a complex
    form has its split form's); raises LabelError as satake_catalog does."""
    label = split_label_of(label)
    return KINDS[label.kind].basis(*label.params)


def verify_paper_basis(label: RealFormLabel, matching: Iterable[OrbitDiagram]) -> bool:
    """Published basis labels must name matching orbits, whose diagrams must
    be even (all weights 0 or 2) and a basis of the b-subspace."""
    weights_of = {od.label: od.diagram.weights for od in matching}
    weights = [weights_of.get(lbl) for lbl in paper_basis(label)]
    if None in weights or not all(w in (0, 2) for ws in weights for w in ws):
        return False
    return b_subspace(label).has_basis(weights)
