"""Weighted Dynkin diagrams of complex nilpotent orbits: partition recipes for
the classical types, embedded tables for the exceptional types."""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby, islice
from typing import Iterator, NamedTuple, Optional, Sequence

from . import exceptional_data
from .rootcore import SimpleType, WeightedDiagram

CLASSICAL = ("A", "B", "C", "D")
EXCEPTIONAL = ("E", "F", "G")


class _OrbitDiagramFields(NamedTuple):
    label: str  # a partition label, e.g. "[3,1^2]", or a Bala-Carter name
    diagram: WeightedDiagram


class OrbitDiagram(_OrbitDiagramFields):
    """A weighted Dynkin diagram tagged with its complex-orbit label."""

    __slots__ = ()

    def __new__(cls, label: str, diagram: WeightedDiagram):
        for w in diagram.weights:
            if not 0 <= w <= 2:
                raise ValueError(f"orbit diagram weights must be 0, 1 or 2; got {w}")
        return super().__new__(cls, label, diagram)


def defining_size(t: SimpleType) -> int:
    """Size of the partitions classifying nilpotent orbits for a classical type."""
    if t.family == "A":
        return t.rank + 1
    if t.family == "B":
        return 2 * t.rank + 1
    if t.family in ("C", "D"):
        return 2 * t.rank
    raise ValueError(f"{t} is not classical; use exceptional_table")


# Part parities whose multiplicity must be even: each classical type's
# condition, and "even", under which every multiplicity is even.
_EVEN_MULTIPLICITY = {"A": (), "B": (0,), "C": (1,), "D": (0,), "even": (0, 1)}


def partitions(n: int, rule: str, budget: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n, lexicographically descending, in which the parts of
    each parity the rule lists occur an even number of times and, given a
    budget, the parts m sum floor(m/2) to at most the budget.  Built block by
    block: the largest part, its multiplicity from the largest allowed down,
    then the rest below that part, with the 1s, which cost no budget, last."""
    even = _EVEN_MULTIPLICITY[rule]
    head: list[int] = []

    def blocks(rest: int, top: int, left: int) -> Iterator[tuple[int, ...]]:
        if not rest:
            yield tuple(head)
        for part in range(min(rest, top, 2 * left + 1), 1, -1):
            most = min(rest // part, left // (part // 2))
            step = 2 if part % 2 in even else 1
            for mult in range(most - most % step, 0, -step):
                head.extend([part] * mult)
                yield from blocks(rest - part * mult, part - 1, left - part // 2 * mult)
                del head[-mult:]
        if rest and (1 not in even or rest % 2 == 0):
            yield (*head, *[1] * rest)

    return blocks(n, n, n if budget is None else budget)


def classical_partitions(t: SimpleType) -> list[tuple[int, ...]]:
    """Partitions labelling the nilpotent orbits of a classical type, in
    lexicographically descending order (each exactly once, very even untagged)."""
    if t.family not in CLASSICAL:
        raise ValueError(f"{t} is exceptional; use exceptional_table")
    return list(partitions(defining_size(t), t.family))


def _multiplicities(parts: Sequence[int]) -> list[tuple[int, int]]:
    return [(part, len(list(grp))) for part, grp in groupby(parts)]


def partition_label(parts: Sequence[int], tag: Optional[str] = None) -> str:
    """The printed name of a classical orbit: its parts with multiplicities as
    exponents, then a very even partition's tag, e.g. [3,1^2] or [2^4]_I."""
    pieces = [f"{part}^{mult}" if mult > 1 else f"{part}" for part, mult in _multiplicities(parts)]
    return "[" + ",".join(pieces) + "]" + (f"_{tag}" if tag else "")


def is_very_even(t: SimpleType, parts: Sequence[int]) -> bool:
    return t.family == "D" and all(part % 2 == 0 for part in parts)


def _h_values(parts: Sequence[int]) -> list[int]:
    """Pooled sl2 eigenvalues: each part m contributes m-1, m-3, ..., 1-m."""
    values = []
    for part in parts:
        values.extend(range(part - 1, -part, -2))
    values.sort(reverse=True)
    return values


def diagram_of_partition(
    t: SimpleType, parts: Sequence[int], tag: Optional[str] = None
) -> OrbitDiagram:
    """Weighted Dynkin diagram of the orbit labelled by a partition, given as
    its positive, weakly decreasing parts.

    The dominant pooled eigenvalues h_1 >= ... give chain weights h_i - h_{i+1};
    type B ends with h_l, type C with 2*h_l, and type D assigns the fork pair
    h_{l-1} -+ h_l with tag I putting h_{l-1}+h_l on the lower node a_l.
    """
    if t.family not in CLASSICAL:
        raise ValueError(f"{t} is exceptional; use exceptional_table")
    parts = tuple(parts)
    if any(p <= 0 for p in parts) or any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"partition parts {parts} must be positive and weakly decreasing")
    name = partition_label(parts, tag)
    if sum(parts) != defining_size(t):
        raise ValueError(f"partition {name} has size {sum(parts)}, expected {defining_size(t)} for {t}")
    if any(part % 2 in _EVEN_MULTIPLICITY[t.family] and mult % 2 for part, mult in _multiplicities(parts)):
        raise ValueError(f"partition {name} violates the parity constraint for type {t.family}")
    very_even = is_very_even(t, parts)
    if very_even and tag not in ("I", "II"):
        raise ValueError(f"very even partition {name} needs tag 'I' or 'II'")
    if not very_even and tag is not None:
        raise ValueError(f"partition {name} is not very even; no tag allowed")

    l = t.rank
    h = _h_values(parts)
    if t.family == "A":
        weights = [h[i] - h[i + 1] for i in range(l)]
        return OrbitDiagram(name, WeightedDiagram(t, tuple(weights)))

    top = h[:l]
    weights = [top[i] - top[i + 1] for i in range(l - 1)]
    if t.family == "B":
        weights.append(top[l - 1])
    elif t.family == "C":
        weights.append(2 * top[l - 1])
    else:  # D
        upper = top[l - 2] - top[l - 1]
        lower = top[l - 2] + top[l - 1]
        if tag == "II":
            upper, lower = lower, upper
        weights[l - 2] = upper
        weights.append(lower)
    return OrbitDiagram(name, WeightedDiagram(t, tuple(weights)))


def exceptional_table(t: SimpleType) -> list[OrbitDiagram]:
    """The full Bala-Carter-labelled diagram list for an exceptional type."""
    if t.family not in EXCEPTIONAL:
        raise ValueError(f"{t} is classical; use classical_partitions")
    rows = exceptional_data.TABLES[str(t)]
    return [OrbitDiagram(name, WeightedDiagram(t, weights)) for name, weights in rows]


# type -> partition -> its orbit diagrams (two for a very even partition), so
# each is built once per process whichever candidate lists ask for it
_BUILT: dict[SimpleType, dict[tuple[int, ...], tuple[OrbitDiagram, ...]]] = {}

# Most candidates times rank that one list may hold: time and memory grow with
# that product.  sl(46,R), 105,558 partitions at rank 45, is the largest sl(n,R).
CANDIDATE_CAP = 5_000_000


def orbit_diagrams(t: SimpleType, rule: Optional[str] = None, budget: Optional[int] = None) -> tuple[OrbitDiagram, ...]:
    """The diagrams of a classical type's orbits whose partitions pass
    `partitions(n, rule, budget)`; the rule defaults to the type's parity
    condition, and a stricter rule must imply it.  Raises ValueError, before
    any diagram is built, when more than CANDIDATE_CAP // rank partitions pass."""
    most = CANDIDATE_CAP // t.rank
    found = list(islice(partitions(defining_size(t), rule or t.family, budget), most + 1))
    if len(found) > most:
        raise ValueError(f"{t} has over {most} candidate orbits; candidates x rank is capped at {CANDIDATE_CAP:,}")
    built = _BUILT.setdefault(t, {})
    out: list[OrbitDiagram] = []
    for parts in found:
        ods = built.get(parts)
        if ods is None:
            tags = ("I", "II") if is_very_even(t, parts) else (None,)
            ods = built[parts] = tuple(diagram_of_partition(t, parts, tag) for tag in tags)
        out.extend(ods)
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_complex_characteristics(t: SimpleType) -> tuple[OrbitDiagram, ...]:
    """All weighted Dynkin diagrams of complex nilpotent orbits for the type,
    in the canonical order used for deterministic greedy bases."""
    if t.family in EXCEPTIONAL:
        return tuple(exceptional_table(t))
    return orbit_diagrams(t)
