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


MAX_RANK = 1000  # higher ranks are rejected before black nodes and arrows are drawn


# exceptional kind -> (complex type, signatures); the first signature is the
# split form.  The complex algebra viewed as real has kind "<kind>C", e.g. e6C.
_EXCEPTIONAL = {
    "e6": (SimpleType("E", 6), (6, 2, -14, -26)),
    "e7": (SimpleType("E", 7), (7, -5, -25)),
    "e8": (SimpleType("E", 8), (8, -24)),
    "f4": (SimpleType("F", 4), (4, -20)),
    "g2": (SimpleType("G", 2), (2,)),
}


# (kind, signature) -> (black nodes, arrows) of the non-split real exceptional forms
_EXCEPTIONAL_SATAKE = {
    ("e6", 2): ((), [(0, 4), (1, 3)]),
    ("e6", -14): ((1, 2, 3), [(0, 4)]),
    ("e6", -26): ((1, 2, 3, 5), ()),
    ("e7", -5): ((0, 2, 6), ()),
    ("e7", -25): ((2, 3, 4, 6), ()),
    ("e8", -24): ((3, 4, 5, 7), ()),
    ("f4", -20): ((0, 1, 2), ()),
}

# kind -> how a label of that kind is written, one "{}" per parameter
_FORMATS = {
    "sl": "sl({},R)",
    "su*": "su*({})",
    "su": "su({},{})",
    "so": "so({},{})",
    "spR": "sp({},R)",
    "sp": "sp({},{})",
    "so*": "so*({})",
    **{k: k + "({})" for k in (*_EXCEPTIONAL, "slC", "soC", "spC")},
    **{k + "C": k + "C" for k in _EXCEPTIONAL},
}
# (head, shape) -> kind; the shape is "", "({})", "({},R)" or "({},{})"
_KINDS = {re.fullmatch(r"([^(]*)(.*)", fmt).groups(): kind for kind, fmt in _FORMATS.items()}


@dataclass(frozen=True, order=True)
class RealFormLabel:
    """A catalog label such as su(4,2), so*(12), e7(-5) or slC(4)."""

    kind: str
    params: tuple[int, ...] = ()

    def __str__(self) -> str:
        return _FORMATS[self.kind].format(*self.params)

    @property
    def is_complex(self) -> bool:
        return self.kind.endswith("C")


_LABEL_RE = re.compile(r"^\s*([a-z]+[0-9]?\*?C?)\s*(?:\(\s*(-?\d+)\s*(?:,\s*(-?\d+|R)\s*)?\))?\s*$")


def parse_label(text: str) -> RealFormLabel:
    """Parse and validate a label string; canonicalizes su/so/sp signatures to p >= q."""
    m = _LABEL_RE.match(text)
    unparsed = LabelError(f"cannot parse label {text!r}; see `orbitspan forms` for the grammar")
    if not m:
        raise unparsed
    head, args = m.group(1), [arg for arg in m.group(2, 3) if arg is not None]
    try:
        params = tuple(sorted((int(arg) for arg in args if arg != "R"), reverse=True))
    except ValueError as exc:  # an integer over Python's digit limit
        raise LabelError(f"cannot parse label {text!r}: {exc}") from None
    shape = "({})".format(",".join("R" if arg == "R" else "{}" for arg in args)) if args else ""
    if (head, shape) not in _KINDS:
        raise unparsed
    label = RealFormLabel(_KINDS[head, shape], params)
    satake_catalog(label)
    return label


def underlying_type(label: RealFormLabel) -> SimpleType:
    """The complex simple type the label lives over; raises LabelError as
    satake_catalog does."""
    return satake_catalog(label).simple_type


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


def _diagram(label: RealFormLabel, family: str, rank: int, black=(), arrows=()) -> SatakeDiagram:
    if rank > MAX_RANK:
        raise LabelError(f"{label}: rank {rank} is over the cap of {MAX_RANK}")
    return SatakeDiagram(
        SimpleType(family, rank), frozenset(black), tuple(sorted((min(i, j), max(i, j)) for i, j in arrows))
    )


@lru_cache(maxsize=None)
def satake_catalog(label: RealFormLabel) -> SatakeDiagram:
    """The Satake diagram of a real form, by rank-parametric rules.  This is
    where a label is checked: raises LabelError for compact forms, non-simple
    cases, low-rank aliases and a signature written p < q.  Complex simple
    algebras viewed as real reduce to their split form's diagram."""
    k, p = label.kind, label.params

    def fail(msg):
        raise LabelError(f"{label}: {msg}")

    if k in ("su", "so", "sp"):
        if p[0] < p[1]:
            fail("signature must be written p >= q")
        if p[1] < 1:
            fail("compact form (q = 0) is excluded")
    if k in ("sl", "slC"):
        if p[0] < 2:
            fail("needs n >= 2")
        return _diagram(label, "A", p[0] - 1)
    if k == "su*":
        n = p[0]
        if n % 2 != 0 or n < 4:
            fail("needs even argument 2k with k >= 2 (su*(2) is compact su(2))")
        return _diagram(label, "A", n - 1, range(0, n - 1, 2))
    if k == "su":
        l, q = sum(p) - 1, p[1]
        return _diagram(label, "A", l, range(q, l - q), ((i, l - 1 - i) for i in range(q) if i != l - 1 - i))
    if k == "so":
        q, n = p[1], sum(p)
        if n % 2 == 1:
            if n < 5:
                fail("so(2,1) is an alias of sl(2,R); B_1 is excluded")
            return _diagram(label, "B", n // 2, range(q, n // 2))
        if n == 2:
            fail("so(1,1) is abelian, not simple")
        if n == 4:
            fail("not simple: so(2,2) = sl(2,R)+sl(2,R); so(3,1) is slC(2) as a real algebra")
        if n == 6:
            aliases = {(5, 1): "su*(4)", (4, 2): "su(2,2)", (3, 3): "sl(4,R)"}
            fail(f"D_3 alias; use {aliases[p]}")
        l = n // 2
        if p[0] == q:
            return _diagram(label, "D", l)
        if p[0] == q + 2:
            return _diagram(label, "D", l, (), [(l - 2, l - 1)])
        return _diagram(label, "D", l, range(q, l))
    if k == "spR":
        if p[0] < 1:
            fail("needs l >= 1")
        return _diagram(label, "C" if p[0] > 1 else "A", p[0])  # sp(1,R) = sl(2,R); kept as a label
    if k == "sp":
        l = sum(p)
        return _diagram(label, "C", l, (i for i in range(l) if i % 2 == 0 or i >= 2 * p[1]))
    if k == "so*":
        n = p[0]
        if n % 2 != 0 or n < 6:
            fail("needs even argument 2n with n >= 3")
        if n == 6:
            fail("so*(6) is an alias of su(3,1); D_3 is excluded")
        l = n // 2
        if l % 2:  # so*(4m+2): black odd chain nodes, arrow between the forks
            return _diagram(label, "D", l, range(0, l - 2, 2), [(l - 2, l - 1)])
        return _diagram(label, "D", l, range(0, l, 2))
    if k in _EXCEPTIONAL:
        t, signatures = _EXCEPTIONAL[k]
        if p[0] not in signatures:
            fail(f"signature must be one of {signatures}")
        return _diagram(label, t.family, t.rank, *_EXCEPTIONAL_SATAKE.get((k, p[0]), ()))
    if k == "soC":
        n = p[0]
        if n < 5 or n in (6,):
            hints = {3: "slC(2)", 4: "not simple", 6: "slC(4)"}
            fail(f"so({n},C) is excluded ({hints.get(n, 'rank too small')})")
        return _diagram(label, "B" if n % 2 else "D", n // 2)
    if k == "spC":
        if p[0] < 2:
            fail("needs l >= 2 (sp(1,C) is slC(2))")
        return _diagram(label, "C", p[0])
    if k[:-1] in _EXCEPTIONAL and label.is_complex:
        t = _EXCEPTIONAL[k[:-1]][0]
        return _diagram(label, t.family, t.rank)
    raise LabelError(f"unknown label kind {k!r}")


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


def catalog_labels(rank_bound: int = 12) -> list[RealFormLabel]:
    """The catalog, sorted by name: all 17 exceptional labels, real and complex,
    whatever the bound (so the bound is not a rank bound for them), and every
    classical label of underlying rank <= rank_bound.  The classical labels are
    the one- and two-parameter candidates that satake_catalog accepts."""
    if not 2 <= rank_bound <= MAX_RANK:
        raise ValueError(f"rank bound must be between 2 and {MAX_RANK}")
    out = [RealFormLabel(k, (s,)) for k, (_, signatures) in _EXCEPTIONAL.items() for s in signatures]
    out += [RealFormLabel(k + "C") for k in _EXCEPTIONAL]
    sizes = range(2 * rank_bound + 2)
    candidates = {1: [(n,) for n in sizes], 2: [(s - q, q) for s in sizes for q in range(s // 2 + 1)]}
    for kind, fmt in _FORMATS.items():
        if kind in _EXCEPTIONAL or kind[:-1] in _EXCEPTIONAL:
            continue
        for params in candidates[fmt.count("{}")]:
            label = RealFormLabel(kind, params)
            try:
                rank = satake_catalog(label).simple_type.rank
            except LabelError:
                continue
            if rank > rank_bound:
                break  # the candidates come by growing size, and the rank grows with it
            out.append(label)
    return sorted(out, key=str)


def satake_to_dot(label: RealFormLabel) -> str:
    """DOT rendering: filled circles for black nodes, dashed double-headed
    edges for arrows, bond multiplicity annotations for Cartan bonds."""
    s = satake_catalog(label)
    t = s.simple_type
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
