"""The corrected symmetric-pair table and its parameterized lookup."""

import hashlib
import itertools
import json
import random
import re
from collections import Counter

import pytest

from orbitspan.pairs import (
    _DOMAINS,
    _EXCEPTIONAL,
    _ROWS,
    _pattern,
    lookup_pair,
    pairs_for,
    parse_summand,
    proper_sl2_pairs,
    table_csv,
)
from orbitspan.rational import independent_prefix

_ARG_RE = re.compile(r"(?<=[(,])[^(),]+")


def _variables(row) -> list[str]:
    return sorted({v for pat in (row[0], *row[1]) for arg in _ARG_RE.findall(pat) for v in re.findall("[a-z]", arg)})


def _instantiate(pattern: str, env: dict[str, int]) -> str:
    """A row pattern with each argument evaluated by Python at the parameters:
    so*(4m-4i+2) at m=2, i=1 is so*(6)."""

    def value(m):
        arg = m.group(0)
        return arg if arg in ("R", "C") else str(eval(re.sub(r"(\d)([a-z])", r"\1*\2", arg), {}, dict(env)))

    return _ARG_RE.sub(value, pattern)


def _canonical(summand):
    """A summand with its arguments sorted: su(2,5) and su(5,2) are one algebra."""
    head, args, field = summand
    return head, tuple(sorted(args)), field or ""


def test_row_count():
    assert len(proper_sl2_pairs()) == 45


def test_summand_parsing():
    assert parse_summand("sp(2,1)") == ("sp", (2, 1), None)
    assert parse_summand("sl(4,R)") == ("sl", (4,), "R")
    assert parse_summand("so(5,C)") == ("so", (5,), "C")
    assert parse_summand("su*(6)") == ("su*", (6,), None)
    assert parse_summand("e6(-14)") == ("e6", (-14,), None)
    assert parse_summand("e7C") == ("e7", (), "C")
    with pytest.raises(ValueError):
        parse_summand("frobnicate(3)")


def test_lookup_positive_examples():
    found = lookup_pair("su(4,2)", "sp(2,1)")
    assert found is not None
    entry, env = found
    assert entry.g == "su(2p,2q)" and env == {"p": 2, "q": 1}
    assert lookup_pair("e6(-14)", "f4(-20)") is not None
    assert lookup_pair("so(4,4)", "so(4,C) + so(2)") is not None
    assert lookup_pair("sl(6,R)", "sl(3,C) + so(2)") is not None
    assert lookup_pair("so*(8)", "so*(6) + so*(2)") is not None
    assert lookup_pair("sp(4,R)", "sp(2,C)") is not None
    assert lookup_pair("so(9,C)", "so(6,3)") is not None
    assert lookup_pair("e8C", "e8(-24)") is not None


def test_lookup_negative_examples():
    assert lookup_pair("sl(4,R)", "so(2,2)") is None  # 2i < n-1 fails at i=2, n=4
    assert lookup_pair("sl(5,R)", "so(3,2)") is None  # fails the corrected bound
    assert lookup_pair("e8(8)", "f4(-20)") is None
    assert lookup_pair("sp(2,2)", "sp(1,1) + sp(1,1)") is None  # min constraint


def test_erratum_rows_present_only_in_corrected_form():
    # sl(n,R)/so(n-i,i): old bound 2i < n admitted (5,2); corrected 2i < n-1 does not
    assert lookup_pair("sl(5,R)", "so(3,2)") is None
    assert lookup_pair("sl(5,R)", "so(4,1)") is not None
    # su(n,n)/so*(2n) replaces su(2m-1,2m-1)/so*(4m-2): even n must now be admitted
    assert lookup_pair("su(2,2)", "so*(4)") is not None
    assert lookup_pair("su(3,3)", "so*(6)") is not None
    # so(k,k)/so(k,C)+so(2) replaces so(2k,C)
    assert lookup_pair("so(4,4)", "so(8,C) + so(2)") is None
    assert lookup_pair("so(4,4)", "so(4,C) + so(2)") is not None
    # sl(n,C)/su(n-i,i): corrected bound again
    assert lookup_pair("sl(4,C)", "su(2,2)") is None
    assert lookup_pair("sl(4,C)", "su(3,1)") is not None
    # the uncorrected patterns are absent from the table text
    gs = {entry.g for entry in proper_sl2_pairs()}
    assert "su(2m-1,2m-1)" not in gs
    for entry in proper_sl2_pairs():
        assert "2i < n" not in entry.condition or "2i < n-1" in entry.condition
        assert "so(2k,C)" not in entry.h_display() or entry.g != "so(k,k)"


def test_so_complex_unless_clause():
    # so(2k,C)/so(2k-i,i): excluded when k = i+1 = 2m+1
    assert lookup_pair("so(10,C)", "so(7,3)") is not None
    assert lookup_pair("so(10,C)", "so(7,3)")[1] == {"k": 5, "i": 3}
    assert lookup_pair("so(10,C)", "so(5,5)") is None  # i = k = 5 fails i < k
    assert lookup_pair("so(10,C)", "so(6,4)") is None  # k = 5 = i+1 odd, excluded
    assert lookup_pair("so(8,C)", "so(5,3)") is not None  # k = 4 = i+1 even, allowed


def test_min_constraint_rows():
    assert lookup_pair("so(5,4)", "so(5,0) + so(0,4)") is not None
    assert lookup_pair("so(5,4)", "so(3,2) + so(2,2)") is None
    assert lookup_pair("su(5,3)", "su(1,0) + su(4,3) + so(2)") is None
    assert lookup_pair("su(5,3)", "su(5,0) + su(0,3) + so(2)") is not None
    # so(p,q) even with p = q = 2m+1 and |i-j| = 1 is excluded
    assert lookup_pair("so(5,5)", "so(5,4) + so(0,1)") is None
    # so(p,q) odd analogue with the same split is fine when the min test passes
    assert lookup_pair("so(5,4)", "so(4,4) + so(1,0)") is None  # min fails anyway


def test_pairs_for_g():
    assert len(pairs_for("e8(8)")) == 2
    assert len(pairs_for("e6(2)")) == 3
    assert {e.h_display() for e in pairs_for("e6(-14)")} == {"f4(-20)"}
    assert pairs_for("g2(2)") == []


def test_pairs_for_lists_only_rows_a_lookup_can_reach():
    # a compact or degenerate symbol puts some g parameter below its domain
    for symbol in ("su(4,0)", "sp(1,R)", "sl(0,R)", "so(3,0)", "sl(1,C)"):
        assert pairs_for(symbol) == [], symbol
    # su(n,n) needs n >= 2, so su(1,1) keeps only the su(p,q) row
    assert [e.g for e in pairs_for("su(1,1)")] == ["su(p,q)"]


def test_csv_export():
    csv = table_csv()
    assert csv.splitlines()[0] == "g,h,condition"
    assert len(csv.splitlines()) == 46
    assert '"e6(-14)","f4(-20)"' in csv


def test_malformed_queries_raise():
    with pytest.raises(ValueError):
        lookup_pair("not-an-algebra", "so(2)")
    with pytest.raises(ValueError):
        lookup_pair("sl(4,R)", "so(2,2) % so(2)")


def test_g_patterns_instantiate_to_catalog_labels():
    """Each row's g pattern, instantiated at small parameters, is a label the
    Satake catalog accepts (skipping compact/alias instantiations)."""
    from orbitspan.satake import LabelError, parse_label

    instances = {
        "sl(2k,R)": "sl(4,R)", "sl(n,R)": "sl(3,R)", "su*(2k)": "su*(8)",
        "su(2p,2q)": "su(4,2)", "su(n,n)": "su(3,3)", "su(p,q)": "su(2,1)",
        "so(p,q)": "so(5,4)", "sp(n,R)": "sp(3,R)", "sp(2k,R)": "sp(4,R)",
        "sp(p,q)": "sp(2,1)", "so(2p,2q)": "so(6,2)", "so*(2k)": "so*(12)",
        "so(k,k)": "so(4,4)", "so*(4m)": "so*(8)", "sl(2k,C)": "slC(4)",
        "sl(n,C)": "slC(3)", "so(2k+1,C)": "soC(5)", "sp(n,C)": "spC(3)",
        "so(2k,C)": "soC(8)", "so(4m,C)": "soC(8)",
        "e6C": "e6C", "e7C": "e7C", "e8C": "e8C", "f4C": "f4C",
    }
    for entry in proper_sl2_pairs():
        text = instances.get(entry.g, entry.g)
        try:
            parse_label(text)
        except LabelError as exc:
            raise AssertionError(f"g pattern {entry.g} instance {text} rejected: {exc}")


def test_every_row_determines_its_parameters():
    """The g and h argument forms of each row have full column rank, so a
    solution of the row's equations is unique and no free parameter is set to 0."""
    for row in _ROWS:
        names = _variables(row)
        forms = [form for pat in (row[0], *row[1]) for form in _pattern(pat)[1]]
        columns = [[form.get(v, 0) for form in forms] for v in names]
        assert len(independent_prefix(columns)) == len(names), row[:2]


def _breaks_argument_rule(text: str) -> bool:
    head, args, _ = parse_summand(text)
    return head not in _EXCEPTIONAL and any(arg < 0 for arg in args)


def test_instantiated_rows_are_found_again():
    """Each row, instantiated wherever its domains and condition hold and no
    classical argument is negative, is looked up to a row that instantiates
    back to the same g and h."""
    checked = 0
    for row in _ROWS:
        g_pat, h_pats, _, check = row
        names = _variables(row)
        for values in itertools.product(range(6), repeat=len(names)):
            env = dict(zip(names, values))
            if not (all(env[v] >= _DOMAINS[v] for v in env) and check(env)):
                continue
            g, h = _instantiate(g_pat, env), [_instantiate(pat, env) for pat in h_pats]
            if any(map(_breaks_argument_rule, [g, *h])):
                continue
            found = lookup_pair(g, " + ".join(reversed(h)))
            assert found is not None, (g, h)
            entry, env2 = found
            assert _canonical(parse_summand(_instantiate(entry.g, env2))) == _canonical(parse_summand(g))
            back = sorted(_canonical(parse_summand(_instantiate(pat, env2))) for pat in entry.h)
            assert back == sorted(_canonical(parse_summand(text)) for text in h), (g, h, entry, env2)
            checked += 1
    assert checked == 827


# sha256 of the lookups below: it pins which row, and which parameters, the
# first match gives for every order of the h summands.
_GRID_SHA256 = "fed7120bd7cda57cdfce575b599fba8d49d62964b012af786bd2c7c745c562f3"


def test_lookup_grid_is_pinned():
    results = []
    for row in _ROWS:
        names = _variables(row)
        for values in itertools.product(range(3), repeat=len(names)):
            env = dict(zip(names, values))
            g = _instantiate(row[0], env)
            for h in itertools.permutations([_instantiate(pat, env) for pat in row[1]]):
                found = lookup_pair(g, " + ".join(h))
                results.append([g, h, found and [found[0].to_json(), found[1]]])
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert (len(results), digest) == (1181, _GRID_SHA256)


_HEADS = ["sl", "su", "su*", "so", "so*", "sp", "e6", "e7", "e8", "f4", "g2", "sq"]


def random_symbol(rng: random.Random) -> str:
    """An algebra symbol, mostly concrete: a head, zero to two arguments
    (negative, zero, small, over any rank limit, or a pattern's), then maybe a field."""
    values = [-14, -1, 0, 1, 2, 2, 3, 4, 5, 6, 8, 10**6, "2k", ""]
    args = [str(rng.choice(values)) for _ in range(rng.choice([0, 1, 2, 2]))] + rng.choice([[], [], ["R"], ["C"]])
    return rng.choice(_HEADS) + (f"({','.join(args)})" if args else rng.choice(["", "C"]))


def random_symbol_sum(rng: random.Random) -> str:
    return rng.choice([" + ", "+", " ⊕ "]).join(random_symbol(rng) for _ in range(rng.choice([1, 1, 2, 3])))


def _random_row_query(rng: random.Random) -> tuple[str, str]:
    """A row instantiated at parameters from -1 to 7, its h summands shuffled."""
    g_pat, h_pats, _, _ = rng.choice(_ROWS)
    env = {v: rng.randint(-1, 7) for v in "kmnpqij"}
    h = [_instantiate(pat, env) for pat in h_pats]
    rng.shuffle(h)
    return _instantiate(g_pat, env), rng.choice([" + ", " ⊕ "]).join(h)


def test_random_lookups_round_trip():
    """Seeded symbol sums, half of them instantiated rows: each lookup gives
    None, raises ValueError, or returns a row and parameters that instantiate
    back to the queried g and h, up to argument order."""
    rng = random.Random(32)
    outcomes = Counter()
    for n in range(300):
        g, h = _random_row_query(rng) if n % 2 else (random_symbol(rng), random_symbol_sum(rng))
        try:
            found = lookup_pair(g, h)
        except ValueError:
            outcomes["error"] += 1
            continue
        outcomes["found" if found else "none"] += 1
        if found:
            entry, env = found
            assert _canonical(parse_summand(_instantiate(entry.g, env))) == _canonical(parse_summand(g)), (g, h)
            back = sorted(_canonical(parse_summand(_instantiate(pat, env))) for pat in entry.h)
            assert back == sorted(_canonical(parse_summand(text)) for text in re.split("[+⊕]", h)), (g, h)
    assert min(outcomes[kind] for kind in ("error", "found", "none")) >= 30, outcomes
