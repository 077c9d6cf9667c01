"""Satake diagrams of the non-compact real simple Lie algebras, the matching
predicate, and the subspaces of diagram space they cut out."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .rational import RationalSubspace, coordinate_kernel
from .rootcore import SimpleType, WeightedDiagram, cartan_matrix, opposition_involution


class LabelError(ValueError):
    """Rejected real-form label (compact, non-simple, alias or out of range)."""


# exceptional kind -> (complex type, signatures); the first signature is the
# split form.  The complex algebra viewed as real has kind "<kind>C", e.g. e6C.
_EXCEPTIONAL = {
    "e6": (SimpleType("E", 6), (6, 2, -14, -26)),
    "e7": (SimpleType("E", 7), (7, -5, -25)),
    "e8": (SimpleType("E", 8), (8, -24)),
    "f4": (SimpleType("F", 4), (4, -20)),
    "g2": (SimpleType("G", 2), (2,)),
}


@dataclass(frozen=True, order=True)
class RealFormLabel:
    """A catalog label such as su(4,2), so*(12), e7(-5) or slC(4)."""

    kind: str
    params: tuple[int, ...] = ()

    def __str__(self) -> str:
        k, p = self.kind, self.params
        if k == "sl":
            return f"sl({p[0]},R)"
        if k == "su*":
            return f"su*({p[0]})"
        if k == "su":
            return f"su({p[0]},{p[1]})"
        if k == "so":
            return f"so({p[0]},{p[1]})"
        if k == "spR":
            return f"sp({p[0]},R)"
        if k == "sp":
            return f"sp({p[0]},{p[1]})"
        if k == "so*":
            return f"so*({p[0]})"
        if k in _EXCEPTIONAL:
            return f"{k}({p[0]})"
        if k in ("slC", "soC", "spC"):
            return f"{k[:2]}C({p[0]})"
        if self.is_complex and k[:-1] in _EXCEPTIONAL:
            return k
        raise AssertionError(k)

    @property
    def is_complex(self) -> bool:
        return self.kind.endswith("C")


_LABEL_RE = re.compile(r"^\s*([a-z]+[0-9]?\*?C?)\s*\(\s*(-?\d+)\s*(?:,\s*(-?\d+|R)\s*)?\)\s*$")
_COMPLEX_EXC_RE = re.compile(r"^\s*(e6|e7|e8|f4|g2)C\s*$")


def parse_label(text: str) -> RealFormLabel:
    """Parse and validate a label string; canonicalizes su/so/sp signatures to p >= q."""
    m = _COMPLEX_EXC_RE.match(text)
    if m:
        return validate_label(RealFormLabel(m.group(1) + "C"))
    m = _LABEL_RE.match(text)
    unparsed = LabelError(f"cannot parse label {text!r}; see `orbitspan forms` for the grammar")
    if not m:
        raise unparsed
    head, second = m.group(1), m.group(3)
    try:
        first = int(m.group(2))
        q = None if second in (None, "R") else int(second)
    except ValueError as exc:  # an integer over Python's digit limit
        raise LabelError(f"cannot parse label {text!r}: {exc}") from None
    if head in ("sl", "sp") and second == "R":
        return validate_label(RealFormLabel("spR" if head == "sp" else "sl", (first,)))
    if head in ("su", "so", "sp") and q is not None:
        return validate_label(RealFormLabel(head, (max(first, q), min(first, q))))
    if second is None and (head in ("su*", "so*", "slC", "soC", "spC") or head in _EXCEPTIONAL):
        return validate_label(RealFormLabel(head, (first,)))
    raise unparsed


def validate_label(label: RealFormLabel) -> RealFormLabel:
    underlying_type(label)
    return label


def underlying_type(label: RealFormLabel) -> SimpleType:
    """The complex simple type the label lives over; raises LabelError for
    compact forms, non-simple cases and low-rank aliases."""
    k, p = label.kind, label.params

    def fail(msg):
        raise LabelError(f"{label}: {msg}")

    if k == "sl":
        if p[0] < 2:
            fail("needs n >= 2")
        return SimpleType("A", p[0] - 1)
    if k == "su*":
        n = p[0]
        if n % 2 != 0 or n < 4:
            fail("needs even argument 2k with k >= 2 (su*(2) is compact su(2))")
        return SimpleType("A", n - 1)
    if k == "su":
        pp, q = p
        if q < 1:
            fail("compact form (q = 0) is excluded")
        return SimpleType("A", pp + q - 1)
    if k == "so":
        pp, q = p
        n = pp + q
        if q < 1:
            fail("compact form (q = 0) is excluded")
        if n % 2 == 1:
            if n < 5:
                fail("so(2,1) is an alias of sl(2,R); B_1 is excluded")
            return SimpleType("B", (n - 1) // 2)
        if n == 2:
            fail("so(1,1) is abelian, not simple")
        if n == 4:
            fail("not simple: so(2,2) = sl(2,R)+sl(2,R); so(3,1) is slC(2) as a real algebra")
        if n == 6:
            aliases = {(5, 1): "su*(4)", (4, 2): "su(2,2)", (3, 3): "sl(4,R)"}
            fail(f"D_3 alias; use {aliases[(pp, q)]}")
        return SimpleType("D", n // 2)
    if k == "spR":
        if p[0] < 1:
            fail("needs l >= 1")
        if p[0] == 1:
            return SimpleType("A", 1)  # sp(1,R) = sl(2,R); kept as a label per the catalog
        return SimpleType("C", p[0])
    if k == "sp":
        pp, q = p
        if q < 1:
            fail("compact form (q = 0) is excluded")
        return SimpleType("C", pp + q)
    if k == "so*":
        n = p[0]
        if n % 2 != 0 or n < 6:
            fail("needs even argument 2n with n >= 3")
        if n == 6:
            fail("so*(6) is an alias of su(3,1); D_3 is excluded")
        return SimpleType("D", n // 2)
    if k in _EXCEPTIONAL:
        t, signatures = _EXCEPTIONAL[k]
        if p[0] not in signatures:
            fail(f"signature must be one of {signatures}")
        return t
    if k == "slC":
        if p[0] < 2:
            fail("needs n >= 2")
        return SimpleType("A", p[0] - 1)
    if k == "soC":
        n = p[0]
        if n < 5 or n in (6,):
            hints = {3: "slC(2)", 4: "not simple", 6: "slC(4)"}
            fail(f"so({n},C) is excluded ({hints.get(n, 'rank too small')})")
        if n % 2 == 1:
            return SimpleType("B", (n - 1) // 2)
        return SimpleType("D", n // 2)
    if k == "spC":
        if p[0] < 2:
            fail("needs l >= 2 (sp(1,C) is slC(2))")
        return SimpleType("C", p[0])
    if label.is_complex and k[:-1] in _EXCEPTIONAL:
        return _EXCEPTIONAL[k[:-1]][0]
    fail("unknown label kind")


@dataclass(frozen=True)
class SatakeDiagram:
    """Black nodes and the arrow involution on white nodes (0-based indices)."""

    simple_type: SimpleType
    black_nodes: frozenset[int]
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        l = self.simple_type.rank
        for b in self.black_nodes:
            if not 0 <= b < l:
                raise ValueError("black node out of range")
        seen = set()
        for i, j in self.arrows:
            if i == j or not (0 <= i < l and 0 <= j < l):
                raise ValueError("arrow must join two distinct nodes")
            if i in self.black_nodes or j in self.black_nodes:
                raise ValueError("arrows join only white nodes")
            if i in seen or j in seen:
                raise ValueError("arrow relation must be fixed-point-free on its support")
            seen.update((i, j))

    def to_json(self) -> dict:
        return {
            "type": self.simple_type.family,
            "rank": self.simple_type.rank,
            "black": sorted(i + 1 for i in self.black_nodes),
            "arrows": sorted([i + 1, j + 1] for i, j in self.arrows),
        }


def _arrows(pairs) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((min(i, j), max(i, j)) for i, j in pairs))


@lru_cache(maxsize=None)
def satake_catalog(label: RealFormLabel) -> SatakeDiagram:
    """The Satake diagram of a real form, by rank-parametric rules."""
    t = underlying_type(label)
    l = t.rank
    k, p = label.kind, label.params
    if label.is_complex:
        # complex simple algebras reduce to their split real form
        return SatakeDiagram(t, frozenset(), ())
    if k in ("sl", "spR") or (k in _EXCEPTIONAL and tuple(p) == _EXCEPTIONAL[k][1][:1]):
        return SatakeDiagram(t, frozenset(), ())
    if k == "su*":
        return SatakeDiagram(t, frozenset(range(0, l, 2)), ())
    if k == "su":
        pp, q = p
        black = frozenset(range(q, l - q))
        arrows = _arrows((i, l - 1 - i) for i in range(q) if i != l - 1 - i)
        return SatakeDiagram(t, black, arrows)
    if k == "so" and t.family == "B":
        q = p[1]
        return SatakeDiagram(t, frozenset(range(q, l)), ())
    if k == "so" and t.family == "D":
        pp, q = p
        if pp == q:
            return SatakeDiagram(t, frozenset(), ())
        if pp == q + 2:
            return SatakeDiagram(t, frozenset(), _arrows([(l - 2, l - 1)]))
        return SatakeDiagram(t, frozenset(range(q, l)), ())
    if k == "sp":
        q = p[1]
        white = {2 * i + 1 for i in range(q)}
        return SatakeDiagram(t, frozenset(set(range(l)) - white), ())
    if k == "so*":
        m, odd = divmod(l, 2)
        if odd:  # so*(4m+2): black odd chain nodes, arrow between the forks
            black = frozenset(range(0, l - 2, 2))
            return SatakeDiagram(t, black, _arrows([(l - 2, l - 1)]))
        return SatakeDiagram(t, frozenset(range(0, l, 2)), ())
    exceptional = {
        ("e6", (2,)): (frozenset(), [(0, 4), (1, 3)]),
        ("e6", (-14,)): (frozenset({1, 2, 3}), [(0, 4)]),
        ("e6", (-26,)): (frozenset({1, 2, 3, 5}), []),
        ("e7", (-5,)): (frozenset({0, 2, 6}), []),
        ("e7", (-25,)): (frozenset({2, 3, 4, 6}), []),
        ("e8", (-24,)): (frozenset({3, 4, 5, 7}), []),
        ("f4", (-20,)): (frozenset({0, 1, 2}), []),
    }
    black, arrows = exceptional[(k, tuple(p))]
    return SatakeDiagram(t, black, _arrows(arrows))


def matches(d: WeightedDiagram, s: SatakeDiagram) -> bool:
    """True iff every black node has weight 0 and arrow pairs have equal weights."""
    if d.simple_type != s.simple_type:
        raise ValueError(f"diagram type {d.simple_type} does not match Satake type {s.simple_type}")
    w = d.weights
    return all(w[b] == 0 for b in s.black_nodes) and all(w[i] == w[j] for i, j in s.arrows)


def matching_subspace(s: SatakeDiagram) -> RationalSubspace:
    """The subspace {d : matches(d, s)}; its dimension is the real rank."""
    return coordinate_kernel(s.simple_type.rank, s.black_nodes, s.arrows)


@lru_cache(maxsize=None)
def b_subspace(label: RealFormLabel) -> RationalSubspace:
    """Matching subspace intersected with the opposition-involution-fixed one:
    black nodes are zero, and arrow pairs and -w0 node pairs carry equal weights."""
    s = satake_catalog(label)
    iota = opposition_involution(s.simple_type).permutation
    iota_pairs = [(i, j) for i, j in enumerate(iota) if i < j]
    return coordinate_kernel(s.simple_type.rank, s.black_nodes, [*s.arrows, *iota_pairs])


def _split_label(t: SimpleType) -> RealFormLabel:
    """The split real form of a complex simple type."""
    if t.family == "A":
        return RealFormLabel("sl", (t.rank + 1,))
    if t.family == "B":
        return RealFormLabel("so", (t.rank + 1, t.rank))
    if t.family == "C":
        return RealFormLabel("spR", (t.rank,))
    if t.family == "D":
        return RealFormLabel("so", (t.rank, t.rank))
    return next(RealFormLabel(k, sigs[:1]) for k, (et, sigs) in _EXCEPTIONAL.items() if et == t)


def split_label_of(label: RealFormLabel) -> RealFormLabel:
    """For complex-as-real labels, the split form the computation reduces to."""
    return _split_label(underlying_type(label)) if label.is_complex else label


def catalog_labels(rank_bound: int = 12, include_complex: bool = True) -> list[RealFormLabel]:
    """Every catalog label with underlying rank <= rank_bound, sorted by name."""
    if rank_bound < 2:
        raise ValueError("rank bound must be >= 2")
    out: list[RealFormLabel] = []
    for l in range(1, rank_bound + 1):
        out.append(RealFormLabel("sl", (l + 1,)))
        if l % 2 == 1 and l >= 3:
            out.append(RealFormLabel("su*", (l + 1,)))
        n = l + 1
        out.extend(RealFormLabel("su", (n - q, q)) for q in range(1, n // 2 + 1))
    for l in range(2, rank_bound + 1):
        n = 2 * l + 1
        out.extend(RealFormLabel("so", (n - q, q)) for q in range(1, l + 1))
    for l in range(1, rank_bound + 1):
        out.append(RealFormLabel("spR", (l,)))
        if l >= 2:
            out.extend(RealFormLabel("sp", (l - q, q)) for q in range(1, l // 2 + 1))
    for l in range(4, rank_bound + 1):
        n = 2 * l
        out.extend(RealFormLabel("so", (n - q, q)) for q in range(1, l + 1))
        if n != 6:
            out.append(RealFormLabel("so*", (n,)))
    for kind, (_, signatures) in _EXCEPTIONAL.items():
        out.extend(RealFormLabel(kind, (s,)) for s in signatures)
    if include_complex:
        out.extend(RealFormLabel("slC", (n,)) for n in range(2, rank_bound + 2))
        out.extend(RealFormLabel("soC", (2 * k + 1,)) for k in range(2, rank_bound + 1))
        out.extend(RealFormLabel("spC", (i,)) for i in range(2, rank_bound + 1))
        out.extend(RealFormLabel("soC", (2 * k,)) for k in range(4, rank_bound + 1))
        out.extend(RealFormLabel(k + "C") for k in _EXCEPTIONAL)
    return sorted(out, key=str)


def satake_to_dot(label: RealFormLabel) -> str:
    """DOT rendering: filled circles for black nodes, dashed double-headed
    edges for arrows, bond multiplicity annotations for Cartan bonds."""
    t = underlying_type(label)
    s = satake_catalog(label)
    lines = [f'graph "{label}" {{', "  layout=neato;", "  node [shape=circle, width=0.25, fixedsize=true];"]
    for i in range(t.rank):
        fill = ', style=filled, fillcolor=black, fontcolor=white' if i in s.black_nodes else ""
        lines.append(f'  a{i + 1} [label="a{i + 1}"{fill}];')
    a = cartan_matrix(t)
    for i in range(t.rank):
        for j in range(i + 1, t.rank):
            if a[i][j] != 0:
                mult = a[i][j] * a[j][i]
                attr = f' [label="{mult}"]' if mult > 1 else ""
                lines.append(f"  a{i + 1} -- a{j + 1}{attr};")
    for i, j in s.arrows:
        lines.append(f"  a{i + 1} -- a{j + 1} [style=dashed, dir=both, arrowhead=vee, arrowtail=vee];")
    lines.append("}")
    return "\n".join(lines) + "\n"
