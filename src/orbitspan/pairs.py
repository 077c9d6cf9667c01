"""Symmetric pairs (g, h) with simple g admitting proper SL(2,R) actions:
the published classification table (with its four corrections applied) as
static data, plus parameterized lookup.  A row's patterns and a concrete
pair's symbols share one grammar; a lookup places the concrete summands on a
row's patterns and solves the resulting linear parameter equations with
`rational.solve`."""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Optional

from .rational import solve

Summand = tuple[str, tuple[int, ...], Optional[str]]  # (head, args, field)
Equation = tuple[dict[str, int], int]  # (linear form {var: coeff, "": const}, value)

_SYMBOL_RE = re.compile(r"^\s*(e6|e7|e8|f4|g2|sl|su\*|su|so\*|so|sp)\s*(C)?\s*(?:\(([^()]*)\))?\s*$")


def _pieces(text: str) -> tuple[str, list[str], Optional[str]]:
    """Split an algebra symbol such as sp(2,1), sl(4,R), e6C, or a row pattern
    such as so*(4m-4i+2), into head, argument strings and field."""
    m = _SYMBOL_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse algebra symbol {text!r}")
    head, complex_mark, body = m.groups()
    pieces = [] if body is None else [piece.strip() for piece in body.split(",")]
    fields = ["C" if complex_mark else None] + [piece for piece in pieces if piece in ("R", "C")]
    return head, [piece for piece in pieces if piece not in ("R", "C")], fields[-1]


def parse_summand(text: str) -> Summand:
    """Parse one algebra symbol such as sp(2,1), sl(4,R), so(5,C), su*(6), e6(-14) or e6C."""
    head, args, field = _pieces(text)
    try:
        return head, tuple(int(arg) for arg in args), field
    except ValueError:  # a pattern argument such as 2k, or no argument at all
        raise ValueError(f"cannot parse algebra symbol {text!r}") from None


def _linear_form(expr: str) -> dict[str, int]:
    """A pattern argument such as '4m-4i+2' as {'m': 4, 'i': -4, '': 2}."""
    form: dict[str, int] = {}
    for term in filter(None, expr.replace("-", "+-").split("+")):
        var = term[-1] if term[-1].isalpha() else ""
        coeff = term[: len(term) - len(var)]
        form[var] = form.get(var, 0) + int(coeff + "1" if coeff in ("", "-") else coeff)
    return form


@lru_cache(maxsize=None)
def _pattern(text: str) -> tuple[str, tuple[dict[str, int], ...], Optional[str]]:
    head, args, field = _pieces(text)
    return head, tuple(_linear_form(arg) for arg in args), field


def _equations(pattern: str, concrete: Summand) -> list[list[Equation]]:
    """The ways to place a concrete summand on a pattern, as equation lists:
    the arguments in their order, then swapped when two differ."""
    head, forms, field = _pattern(pattern)
    chead, cargs, cfield = concrete
    if (head, field, len(forms)) != (chead, cfield, len(cargs)):
        return []
    return [list(zip(forms, args)) for args in dict.fromkeys((cargs, cargs[::-1]))]


def _placements(pats, items, equations: list[Equation]) -> Iterator[list[Equation]]:
    """Every placement of the concrete summands on the patterns, one summand per
    pattern, taken pattern by pattern and item by item."""
    if not pats:
        yield equations
        return
    for idx, item in enumerate(items):
        for eqs in _equations(pats[0], item):
            yield from _placements(pats[1:], items[:idx] + items[idx + 1 :], equations + eqs)


def _solve(equations: list[Equation]) -> Optional[dict[str, int]]:
    """The parameter values solving every equation by `rational.solve`, or None
    when the system is inconsistent or its solution is not integral.  A free
    parameter would be set to 0; every row's equations have full column rank."""
    names = list(dict.fromkeys(var for form, _ in equations for var in form if var))
    rows = [[form.get(var, 0) for var in names] for form, _ in equations]
    x = solve(rows, [value - form.get("", 0) for form, value in equations]) if equations else []
    if x is None or any(c.denominator != 1 for c in x):
        return None
    return {var: int(c) for var, c in zip(names, x)}


_DOMAINS = {"k": 1, "m": 1, "n": 2, "p": 1, "q": 1, "i": 0, "j": 0}


def _solve_in_domain(equations: list[Equation]) -> Optional[dict[str, int]]:
    """The integral solution of `_solve` when every parameter lies in its domain, else None."""
    env = _solve(equations)
    return env if env is not None and all(env[v] >= _DOMAINS[v] for v in env) else None


class SymmetricPairEntry(NamedTuple):
    """One row of the classification table, with free integer parameters."""

    g: str
    h: tuple[str, ...]
    condition: str  # human-readable side condition ('' when none)

    def h_display(self) -> str:
        return " + ".join(self.h)

    def to_json(self) -> dict:
        return {"g": self.g, "h": self.h_display(), "condition": self.condition}


def _mins(env, a, b, c, d):
    return min(env[a], env[b]) > min(env[c], env[d]) + min(env[a] - env[c], env[b] - env[d])


_Check = Callable[[dict[str, int]], bool]


def _always(env) -> bool:
    return True


# (g pattern, h summand patterns, condition text, condition check)
_ROWS: list[tuple[str, tuple[str, ...], str, _Check]] = [
    ("sl(2k,R)", ("sl(k,C)", "so(2)"), "", _always),
    ("sl(n,R)", ("so(n-i,i)",), "2i < n-1", lambda e: 2 * e["i"] < e["n"] - 1),
    ("su*(2k)", ("sp(k-i,i)",), "2i < k-1", lambda e: 2 * e["i"] < e["k"] - 1),
    ("su(2p,2q)", ("sp(p,q)",), "", _always),
    ("su(n,n)", ("so*(2n)",), "", _always),
    (
        "su(p,q)",
        ("su(i,j)", "su(p-i,q-j)", "so(2)"),
        "min{p,q} > min{i,j} + min{p-i,q-j}",
        lambda e: 0 <= e["i"] <= e["p"] and 0 <= e["j"] <= e["q"] and _mins(e, "p", "q", "i", "j"),
    ),
    (
        "so(p,q)",
        ("so(i,j)", "so(p-i,q-j)"),
        "p+q odd; min{p,q} > min{i,j} + min{p-i,q-j}",
        lambda e: (e["p"] + e["q"]) % 2 == 1
        and e["p"] + e["q"] >= 3
        and 0 <= e["i"] <= e["p"]
        and 0 <= e["j"] <= e["q"]
        and _mins(e, "p", "q", "i", "j"),
    ),
    ("sp(n,R)", ("su(n-i,i)", "so(2)"), "", lambda e: e["i"] <= e["n"]),
    ("sp(2k,R)", ("sp(k,C)",), "", _always),
    (
        "sp(p,q)",
        ("sp(i,j)", "sp(p-i,q-j)"),
        "min{p,q} > min{i,j} + min{p-i,q-j}",
        lambda e: 0 <= e["i"] <= e["p"] and 0 <= e["j"] <= e["q"] and _mins(e, "p", "q", "i", "j"),
    ),
    (
        "so(p,q)",
        ("so(i,j)", "so(p-i,q-j)"),
        "p+q even; min{p,q} > min{i,j} + min{p-i,q-j}, unless p = q = 2m+1 and |i-j| = 1",
        lambda e: (e["p"] + e["q"]) % 2 == 0
        and e["p"] + e["q"] >= 3
        and (e["p"], e["q"]) != (2, 2)
        and 0 <= e["i"] <= e["p"]
        and 0 <= e["j"] <= e["q"]
        and _mins(e, "p", "q", "i", "j")
        and not (e["p"] == e["q"] and e["p"] % 2 == 1 and e["p"] >= 3 and abs(e["i"] - e["j"]) == 1),
    ),
    ("so(2p,2q)", ("su(p,q)", "so(2)"), "", _always),
    ("so*(2k)", ("su(k-i,i)", "so(2)"), "2i < k-1", lambda e: 2 * e["i"] < e["k"] - 1),
    ("so(k,k)", ("so(k,C)", "so(2)"), "", _always),
    ("so*(4m)", ("so*(4m-4i+2)", "so*(4i-2)"), "", lambda e: 1 <= e["i"] <= e["m"]),
    ("e6(6)", ("sp(2,2)",), "", _always),
    ("e6(6)", ("su*(6)", "su(2)"), "", _always),
    ("e6(2)", ("so*(10)", "so(2)"), "", _always),
    ("e6(2)", ("su(4,2)", "su(2)"), "", _always),
    ("e6(2)", ("sp(3,1)",), "", _always),
    ("e6(-14)", ("f4(-20)",), "", _always),
    ("e7(7)", ("e6(2)", "so(2)"), "", _always),
    ("e7(7)", ("su(4,4)",), "", _always),
    ("e7(7)", ("so*(12)", "su(2)"), "", _always),
    ("e7(7)", ("su*(8)",), "", _always),
    ("e7(-5)", ("e6(-14)", "so(2)"), "", _always),
    ("e7(-5)", ("su(6,2)",), "", _always),
    ("e7(-25)", ("e6(-14)", "so(2)"), "", _always),
    ("e7(-25)", ("su(6,2)",), "", _always),
    ("e8(8)", ("e7(-5)", "su(2)"), "", _always),
    ("e8(8)", ("so*(16)",), "", _always),
    ("f4(4)", ("sp(2,1)", "su(2)"), "", _always),
    ("sl(2k,C)", ("su*(2k)",), "", _always),
    ("sl(n,C)", ("su(n-i,i)",), "2i < n-1", lambda e: 2 * e["i"] < e["n"] - 1),
    ("so(2k+1,C)", ("so(2k+1-i,i)",), "i < k", lambda e: e["i"] < e["k"]),
    ("sp(n,C)", ("sp(n-i,i)",), "", lambda e: e["i"] <= e["n"]),
    (
        "so(2k,C)",
        ("so(2k-i,i)",),
        "i < k, unless k = i+1 = 2m+1",
        lambda e: e["k"] >= 3 and e["i"] < e["k"] and not (e["k"] == e["i"] + 1 and e["k"] % 2 == 1),
    ),
    ("so(4m,C)", ("so(4m-2i+1,C)", "so(2i-1,C)"), "", lambda e: 1 <= e["i"] <= 2 * e["m"]),
    ("so(2k,C)", ("so*(2k)",), "", lambda e: e["k"] >= 3),
    ("e6C", ("e6(-14)",), "", _always),
    ("e6C", ("e6(-26)",), "", _always),
    ("e7C", ("e7(-5)",), "", _always),
    ("e7C", ("e7(-25)",), "", _always),
    ("e8C", ("e8(-24)",), "", _always),
    ("f4C", ("f4(-20)",), "", _always),
]


def proper_sl2_pairs() -> list[SymmetricPairEntry]:
    """The full corrected table of symmetric pairs admitting proper SL(2,R) actions."""
    return [SymmetricPairEntry(g, h, cond) for g, h, cond, _ in _ROWS]


def _match_row(row, g: Summand, h: list[Summand]) -> Optional[dict[str, int]]:
    """The first parameter values placing g and h on the row and passing its
    domains and side condition; the g equations are solved on their own first,
    which prunes most rows before any h placement is tried."""
    g_pat, h_pats, _, check = row
    if len(h_pats) != len(h):
        return None
    for g_eqs in _equations(g_pat, g):
        if _solve_in_domain(g_eqs) is None:
            continue
        for eqs in _placements(h_pats, h, g_eqs):
            env = _solve_in_domain(eqs)
            if env is not None and check(env):
                return env
    return None


def lookup_pair(g_label: str, h_description: str) -> Optional[tuple[SymmetricPairEntry, dict[str, int]]]:
    """Find the table row matching a concrete pair, with its parameter values.

    Returns None when no row matches or the row's side condition fails.
    """
    g = parse_summand(g_label)
    h = [parse_summand(piece) for piece in re.split(r"[+⊕]", h_description)]
    for row in _ROWS:
        env = _match_row(row, g, h)
        if env is not None:
            g_pat, h_pats, cond, _ = row
            return SymmetricPairEntry(g_pat, h_pats, cond), env
    return None


def pairs_for(g_label: str) -> list[SymmetricPairEntry]:
    """All rows whose g pattern can be instantiated to the given label with
    parameters in their domains."""
    g = parse_summand(g_label)
    return [
        SymmetricPairEntry(g_pat, h_pats, cond)
        for g_pat, h_pats, cond, _ in _ROWS
        if any(_solve_in_domain(eqs) is not None for eqs in _equations(g_pat, g))
    ]


def table_csv(entries: Optional[list[SymmetricPairEntry]] = None) -> str:
    """The given rows, by default the whole table, as CSV with a header line."""
    lines = ["g,h,condition"]
    for entry in proper_sl2_pairs() if entries is None else entries:
        cond = entry.condition.replace('"', "'")
        lines.append(f'"{entry.g}","{entry.h_display()}","{cond}"')
    return "\n".join(lines) + "\n"
