"""The real-form kinds, one record each: how a label is written and checked,
the Satake diagram it draws, its candidate orbits and its published basis.
Then the matching predicate and the subspaces of diagram space it cuts out."""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from .nilorbits import partition_label
from .rational import RationalSubspace, coordinate_kernel
from .rootcore import SimpleType, WeightedDiagram, cartan_matrix, opposition_involution


class LabelError(ValueError):
    """Rejected real-form label (compact, non-simple, alias or out of range)."""


MAX_RANK = 1000  # higher ranks are rejected before black nodes and arrows are drawn


class Kind(NamedTuple):
    """One real-form kind; its functions take a label's parameters.  The candidate
    rules come from the form's signed Young diagrams (Collingwood-McGovern 9.3)."""

    format: str  # how a label is written, one "{}" per parameter; parse_label reads it back
    # -> (family, rank, black nodes, arrows), 0-based, or LabelError; lazy nodes are fine, the rank is capped first
    draw: Callable[..., tuple]
    pattern: str  # the `forms` row
    constraints: str = ""
    # -> the orbit_diagrams (rule, budget) whose partitions can fit the form's signed Young diagrams, or None for all
    candidates: Callable[..., Optional[tuple]] = lambda *params: None
    basis: Optional[Callable[..., list[str]]] = None  # the published basis
    split: Optional[Callable[..., RealFormLabel]] = None  # a complex kind's split form
    finite: Optional[tuple[tuple[int, ...], ...]] = None  # every parameter tuple of an exceptional kind


def _need(ok: bool, reason: str) -> None:
    if not ok:
        raise LabelError(reason)


def _signature(p: int, q: int) -> None:
    _need(p >= q, "signature must be written p >= q")
    _need(q >= 1, "compact form (q = 0) is excluded")


def _budget(p: int, q: int) -> Optional[tuple]:
    """su(p,q) and so(p,q): the parts m sum floor(m/2) to at most q, which binds when p > q + 1."""
    return (None, q) if q < (p + q) // 2 else None


def _odd_rows(size: int, c: int, count: int, closing: Optional[str]) -> list[str]:
    """The orbits [(2s+1)^c, 1^(size-c(2s+1))] for s = 1..count, then the closing orbit if any."""
    out = [partition_label([2 * s + 1] * c + [1] * (size - c * (2 * s + 1))) for s in range(1, count + 1)]
    return out + [closing] if closing else out


def _half_rows(size: int, c: int, closing: str) -> list[str]:
    """sl(n,R), su*(2m) and so*(2m), m = size/c: (m-1)//2 rows, then the closing orbit if m is even."""
    m = size // c
    return _odd_rows(size, c, (m - 1) // 2, closing if m % 2 == 0 else None)


def _signature_rows(size: int, c: int, p: int, q: int, closing: Optional[str]) -> list[str]:
    """su(p,q), so(p,q) and sp(p,q): q rows if p > q, else q - 1 rows and the closing orbit."""
    return _odd_rows(size, c, q, None) if p > q else _odd_rows(size, c, q - 1, closing)


def _draw_sl(n):
    _need(n >= 2, "needs n >= 2")
    return "A", n - 1, (), ()


def _draw_su_star(n):
    _need(n % 2 == 0 and n >= 4, "needs even argument 2k with k >= 2 (su*(2) is compact su(2))")
    return "A", n - 1, range(0, n - 1, 2), ()


def _draw_su(p, q):
    _signature(p, q)
    l = p + q - 1
    return "A", l, range(q, l - q), ((i, l - 1 - i) for i in range(q) if i != l - 1 - i)


def _draw_so(p, q):
    _signature(p, q)
    n, l = p + q, (p + q) // 2
    if n % 2 == 1:
        _need(n >= 5, "so(2,1) is an alias of sl(2,R); B_1 is excluded")
        return "B", l, range(q, l), ()
    _need(n != 2, "so(1,1) is abelian, not simple")
    _need(n != 4, "not simple: so(2,2) = sl(2,R)+sl(2,R); so(3,1) is slC(2) as a real algebra")
    if n == 6:
        aliases = {(5, 1): "su*(4)", (4, 2): "su(2,2)", (3, 3): "sl(4,R)"}
        raise LabelError(f"D_3 alias; use {aliases[p, q]}")
    if p == q:
        return "D", l, (), ()
    if p == q + 2:
        return "D", l, (), [(l - 2, l - 1)]
    return "D", l, range(q, l), ()


def _draw_sp_real(l):
    _need(l >= 1, "needs l >= 1")
    return "C" if l > 1 else "A", l, (), ()  # sp(1,R) = sl(2,R); kept as a label


def _draw_sp(p, q):
    _signature(p, q)
    l = p + q
    return "C", l, (i for i in range(l) if i % 2 == 0 or i >= 2 * q), ()


def _draw_so_star(n):
    _need(n % 2 == 0 and n >= 6, "needs even argument 2n with n >= 3")
    _need(n != 6, "so*(6) is an alias of su(3,1); D_3 is excluded")
    l = n // 2
    if l % 2:  # so*(4m+2): black odd chain nodes, arrow between the forks
        return "D", l, range(0, l - 2, 2), [(l - 2, l - 1)]
    return "D", l, range(0, l, 2), ()


def _split_soC(n):
    hints = {3: "slC(2)", 4: "not simple", 6: "slC(4)"}
    _need(n >= 5 and n != 6, f"so({n},C) is excluded ({hints.get(n, 'rank too small')})")
    return RealFormLabel("so", ((n + 1) // 2, n // 2))


def _split_spC(l):
    _need(l >= 2, "needs l >= 2 (sp(1,C) is slC(2))")
    return RealFormLabel("spR", (l,))


def _complex(fmt: str, split: Callable, pattern: str, constraints: str, finite=None) -> Kind:
    """A complex simple algebra viewed as real: `split` checks it and gives the split form it draws."""

    def draw(*params):
        label = split(*params)
        return KINDS[label.kind].draw(*label.params)

    return Kind(fmt, draw, pattern, constraints, split=split, finite=finite)


# (kind, signature) -> (black nodes, arrows, published basis); a kind's first signature is its split form
_EXCEPTIONAL = {
    ("e6", 6): ((), (), ["A_2", "2A_2", "D_4", "E_6"]),
    ("e6", 2): ((), [(0, 4), (1, 3)], ["A_2", "2A_2", "D_4", "E_6"]),
    ("e6", -14): ((1, 2, 3), [(0, 4)], ["A_2", "2A_2"]),
    ("e6", -26): ((1, 2, 3, 5), (), ["2A_2"]),
    ("e7", 7): ((), (), ["(3A_1)''", "A_2", "2A_2", "D_4", "A_3+A_2+A_1", "A_4+A_2", "E_7"]),
    ("e7", -5): ((0, 2, 6), (), ["A_2", "2A_2", "D_4", "A_4+A_2"]),
    ("e7", -25): ((2, 3, 4, 6), (), ["(3A_1)''", "A_2", "2A_2"]),
    ("e8", 8): ((), (), ["A_2", "2A_2", "D_4", "A_4+A_2", "D_4+A_2", "D_5+A_2", "E_8(a_1)", "E_8"]),
    ("e8", -24): ((3, 4, 5, 7), (), ["A_2", "2A_2", "D_4", "A_4+A_2"]),
    ("f4", 4): ((), (), ["A_2", "Ã_2", "B_3", "F_4"]),
    ("f4", -20): ((0, 1, 2), (), ["Ã_2"]),
    ("g2", 2): ((), (), ["G_2(a_1)", "G_2"]),
}
_EXCEPTIONAL_KINDS = tuple(dict.fromkeys(name for name, _ in _EXCEPTIONAL))  # e6 e7 e8 f4 g2


def _exceptional(name: str) -> Kind:
    """A real exceptional kind, whose type the name gives (e6 is E6) and whose forms the table does."""
    signatures = tuple(s for k, s in _EXCEPTIONAL if k == name)

    def draw(signature):
        _need(signature in signatures, f"signature must be one of {signatures}")
        return name[0].upper(), int(name[1]), *_EXCEPTIONAL[name, signature][:2]

    return Kind(
        name + "({})", draw, " | ".join(f"{name}({s})" for s in signatures),
        basis=lambda signature: list(_EXCEPTIONAL[name, signature][2]), finite=tuple((s,) for s in signatures),
    )


def _complex_exceptional(name: str) -> Kind:
    split = RealFormLabel(name, next((s,) for k, s in _EXCEPTIONAL if k == name))
    pattern = " | ".join(k + "C" for k in _EXCEPTIONAL_KINDS)
    return _complex(name + "C", lambda: split, pattern, "complex exceptional algebras viewed as real", finite=((),))


class RealFormLabel(NamedTuple):
    """A catalog label such as su(4,2), so*(12), e7(-5) or slC(4)."""

    kind: str
    params: tuple[int, ...] = ()

    def __str__(self) -> str:
        return KINDS[self.kind].format.format(*self.params)


# kind -> its record, in the order `forms` lists them
KINDS = {
    "sl": Kind("sl({},R)", _draw_sl, "sl(n,R)", "n >= 2", basis=lambda n: _half_rows(n, 1, partition_label([n]))),
    "su*": Kind(
        "su*({})", _draw_su_star, "su*(2k)", "k >= 2", candidates=lambda n: ("even", None),
        basis=lambda n: _half_rows(n, 2, partition_label([n // 2] * 2)),
    ),
    "su": Kind(
        "su({},{})", _draw_su, "su(p,q)", "p >= q >= 1, p+q >= 2", candidates=_budget,
        basis=lambda p, q: _signature_rows(p + q, 1, p, q, partition_label([2 * q])),
    ),
    "so": Kind(
        "so({},{})", _draw_so, "so(p,q)", "p >= q >= 1; p+q odd >= 5 or even >= 8 (smaller cases are aliases)",
        candidates=_budget,
        basis=lambda p, q: _signature_rows(p + q, 1, p, q, partition_label([2] * q, "I") if q % 2 == 0 else None),
    ),
    "spR": Kind(
        "sp({},R)", _draw_sp_real, "sp(l,R)", "l >= 1",
        basis=lambda l: [partition_label([2 * s + 2] + [2] * (l - s - 1)) for s in range(l)],
    ),
    "sp": Kind(
        "sp({},{})", _draw_sp, "sp(p,q)", "p >= q >= 1", candidates=lambda p, q: ("even", 2 * q),
        basis=lambda p, q: _signature_rows(2 * (p + q), 2, p, q, partition_label([2 * q] * 2)),
    ),
    "so*": Kind(
        "so*({})", _draw_so_star, "so*(2n)", "n >= 4 (so*(6) is su(3,1))",
        basis=lambda n: _half_rows(n, 2, partition_label([2] * (n // 2), "I")),
    ),
    **{name: _exceptional(name) for name in _EXCEPTIONAL_KINDS},
    "slC": _complex(
        "slC({})", lambda n: RealFormLabel("sl", (n,)), "slC(n)", "n >= 2; complex sl(n,C) viewed as a real algebra"
    ),
    "soC": _complex("soC({})", _split_soC, "soC(n)", "n >= 5, n != 6; complex so(n,C) viewed as real"),
    "spC": _complex("spC({})", _split_spC, "spC(l)", "l >= 2; complex sp(l,C) viewed as real"),
    **{name + "C": _complex_exceptional(name) for name in _EXCEPTIONAL_KINDS},
}
# (head, shape) -> kind; the shape is "", "({})", "({},R)" or "({},{})"
_BY_SHAPE = {re.fullmatch(r"([^(]*)(.*)", kind.format).groups(): name for name, kind in KINDS.items()}
_LABEL_RE = re.compile(r"^\s*([a-z]+[0-9]?\*?C?)\s*(?:\(\s*(-?\d+)\s*(?:,\s*(-?\d+|R)\s*)?\))?\s*$", re.ASCII)


def parse_label(text: str) -> RealFormLabel:
    """Parse and validate a label string; canonicalizes su/so/sp signatures to p >= q."""
    m = _LABEL_RE.match(text)
    unparsed = f"cannot parse label {text!r}; see `orbitspan forms` for the grammar"
    _need(m is not None, unparsed)
    head, args = m.group(1), [arg for arg in m.group(2, 3) if arg is not None]
    try:
        params = tuple(sorted((int(arg) for arg in args if arg != "R"), reverse=True))
    except ValueError as exc:  # an integer over Python's digit limit
        raise LabelError(f"cannot parse label {text!r}: {exc}") from None
    shape = "({})".format(",".join("R" if arg == "R" else "{}" for arg in args)) if args else ""
    _need((head, shape) in _BY_SHAPE, unparsed)
    label = RealFormLabel(_BY_SHAPE[head, shape], params)
    satake_catalog(label)
    return label


def underlying_type(label: RealFormLabel) -> SimpleType:
    """The complex simple type the label lives over; raises LabelError as
    satake_catalog does."""
    return satake_catalog(label).simple_type


class _SatakeDiagramFields(NamedTuple):
    simple_type: SimpleType
    black_nodes: frozenset[int]
    arrows: tuple[tuple[int, int], ...]


class SatakeDiagram(_SatakeDiagramFields):
    """Black nodes and the arrow involution on white nodes (0-based indices)."""

    __slots__ = ()

    def __new__(cls, simple_type: SimpleType, black_nodes: frozenset[int], arrows: tuple[tuple[int, int], ...]):
        l = simple_type.rank
        for b in black_nodes:
            if not 0 <= b < l:
                raise ValueError("black node out of range")
        seen = set()
        for i, j in arrows:
            if i == j or not (0 <= i < l and 0 <= j < l):
                raise ValueError("arrow must join two distinct nodes")
            if i in black_nodes or j in black_nodes:
                raise ValueError("arrows join only white nodes")
            if i in seen or j in seen:
                raise ValueError("arrow relation must be fixed-point-free on its support")
            seen.update((i, j))
        return super().__new__(cls, simple_type, black_nodes, arrows)

    def to_json(self) -> dict:
        return {
            "type": self.simple_type.family,
            "rank": self.simple_type.rank,
            "black": sorted(i + 1 for i in self.black_nodes),
            "arrows": sorted([i + 1, j + 1] for i, j in self.arrows),
        }


@lru_cache(maxsize=None)
def satake_catalog(label: RealFormLabel) -> SatakeDiagram:
    """The Satake diagram of a real form, drawn by its kind.  This is where a label
    is checked: raises LabelError for a parameter count its kind does not take, compact
    forms, non-simple cases, low-rank aliases, a signature written p < q and a rank over MAX_RANK."""
    _need(label.kind in KINDS, f"unknown label kind {label.kind!r}")
    arity = KINDS[label.kind].format.count("{}")  # str(label) needs this many parameters too
    _need(len(label.params) == arity, f"label kind {label.kind!r} takes {arity} parameters, not {len(label.params)}")
    try:
        family, rank, black, arrows = KINDS[label.kind].draw(*label.params)
    except LabelError as exc:
        raise LabelError(f"{label}: {exc}") from None
    _need(rank <= MAX_RANK, f"{label}: rank {rank} is over the cap of {MAX_RANK}")
    arrows = tuple(sorted((min(i, j), max(i, j)) for i, j in arrows))
    return SatakeDiagram(SimpleType(family, rank), frozenset(black), arrows)


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


def split_label_of(label: RealFormLabel) -> RealFormLabel:
    """For complex-as-real labels, the split form the computation reduces to;
    raises LabelError as satake_catalog does."""
    satake_catalog(label)
    split = KINDS[label.kind].split
    return label if split is None else split(*label.params)


def catalog_labels(rank_bound: int = 12) -> list[RealFormLabel]:
    """The catalog, sorted by name: all 17 exceptional labels, real and complex,
    whatever the bound (so the bound is not a rank bound for them), and every
    classical label of underlying rank <= rank_bound.  The classical labels are
    the one- and two-parameter candidates that satake_catalog accepts."""
    if not 2 <= rank_bound <= MAX_RANK:
        raise ValueError(f"rank bound must be between 2 and {MAX_RANK}")
    sizes = range(2 * rank_bound + 2)
    candidates = {1: [(n,) for n in sizes], 2: [(s - q, q) for s in sizes for q in range(s // 2 + 1)]}
    out = []
    for name, kind in KINDS.items():
        for params in kind.finite or candidates[kind.format.count("{}")]:
            label = RealFormLabel(name, params)
            try:
                rank = satake_catalog(label).simple_type.rank
            except LabelError:
                continue
            if rank > rank_bound and not kind.finite:
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
