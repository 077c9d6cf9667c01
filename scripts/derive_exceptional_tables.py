"""Regenerate the exceptional weighted-diagram tables from first principles.

For each exceptional type this enumerates Levi subsystems (subsets of the
simple roots), takes every combination of distinguished orbits of the
components, embeds the corresponding semisimple element and dominantizes it.
Every resulting diagram is certified by the sl2 witness oracle in the ambient
algebra, counts are checked against the classical row counts (5/16/21/45/70),
and E6 is additionally cross-checked by exhausting all {0,1,2} weight vectors.

Run from the repository root:
    PYTHONPATH=src python3 scripts/derive_exceptional_tables.py
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import product

from orbitspan.nilorbits import Partition, diagram_of_partition
from orbitspan.rational import solve
from orbitspan.rootcore import (
    SimpleType,
    WeightedDiagram,
    build_root_system,
    cartan_matrix,
    dominantize_weights,
)
from orbitspan.sl2oracle import build_chevalley, is_characteristic


def check(condition: bool, detail: str) -> None:
    """Stop on a failed derivation step; unlike `assert`, `python -O` keeps it."""
    if not condition:
        raise RuntimeError(detail)


EXPECTED_COUNTS = {"G2": 5, "F4": 16, "E6": 21, "E7": 45, "E8": 70}

# decorated-name sequences per component type, in decreasing orbit dimension
DECORATED_SEQUENCES = {
    "E6": ["E_6(a_1)", "E_6(a_3)"],
    "E7": ["E_7(a_1)", "E_7(a_2)", "E_7(a_3)", "E_7(a_4)", "E_7(a_5)"],
    "E8": [
        "E_8(a_1)", "E_8(a_2)", "E_8(a_3)", "E_8(a_4)", "E_8(b_4)",
        "E_8(a_5)", "E_8(b_5)", "E_8(a_6)", "E_8(b_6)", "E_8(a_7)",
    ],
}


def root_counts(t: SimpleType, weights) -> tuple[int, int, int]:
    rs = build_root_system(t)
    n0 = n1 = n2 = 0
    for beta in rs.positive_roots:
        v = sum(m * w for m, w in zip(beta, weights))
        if v == 0:
            n0 += 2
        elif abs(v) == 1:
            n1 += 2
        elif abs(v) == 2:
            n2 += 2
    return n0, n1, n2


def orbit_dim(t: SimpleType, weights) -> int:
    """dim g - dim g_0 - dim g_1 for the Cartan element with these weights."""
    rs = build_root_system(t)
    n0, n1, _ = root_counts(t, weights)
    return 2 * len(rs.positive_roots) - n0 - n1 // 2


def is_distinguished_candidate(t: SimpleType, weights) -> bool:
    """Necessary criterion dim g_0 = dim g_2 for even weights."""
    n0, _, n2 = root_counts(t, weights)
    return n0 + t.rank == n2 // 2


def distinguished_orbits(t: SimpleType) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, diagram weights, orbit dim) of all distinguished orbits of `t`,
    named per the standard decorated sequences."""
    if t.family == "A":
        w = tuple(2 for _ in range(t.rank))
        return [(f"A_{t.rank}", w, orbit_dim(t, w))]
    if t.family == "D":
        rows = []
        n = 2 * t.rank
        for parts in _distinct_odd_partitions(n):
            d = diagram_of_partition(t, Partition(parts))
            w = d.diagram.weights
            rows.append((parts, w, orbit_dim(t, w)))
        rows.sort(key=lambda r: -r[2])
        out = [(f"D_{t.rank}", rows[0][1], rows[0][2])]
        for k, (_, w, dim) in enumerate(rows[1:], start=1):
            out.append((f"D_{t.rank}(a_{k})", w, dim))
        return out
    if t.family == "E":
        model = build_chevalley(t, max_rank=8)
        rows = []
        for bits in product((0, 2), repeat=t.rank):
            if not any(bits):
                continue
            if not is_distinguished_candidate(t, bits):
                continue
            d = WeightedDiagram(t, bits)
            ok, _ = is_characteristic(model, d)
            if ok:
                rows.append((bits, orbit_dim(t, bits)))
        rows.sort(key=lambda r: -r[1])
        names = [f"E_{t.rank}"] + DECORATED_SEQUENCES[f"E{t.rank}"]
        check(len(rows) == len(names), f"{t}: {rows}")
        check(len({dim for _, dim in rows}) == len(rows), f"dim tie in {t}: {rows}")
        return [(name, w, dim) for name, (w, dim) in zip(names, rows)]
    raise ValueError(t)


def _distinct_odd_partitions(n: int) -> list[tuple[int, ...]]:
    out = []

    def rec(remaining, max_part, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        start = min(remaining, max_part)
        if start % 2 == 0:
            start -= 1
        for part in range(start, 0, -2):
            rec(remaining - part, part - 2, acc + [part])

    rec(n, n, [])
    return out


def components(nodes: list[int], a) -> list[list[int]]:
    remaining = set(nodes)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            x = frontier.pop()
            for y in list(remaining - comp):
                if a[x][y] != 0:
                    comp.add(y)
                    frontier.append(y)
        comps.append(sorted(comp))
        remaining -= comp
    return comps


def classify_component(comp: list[int], a) -> tuple[SimpleType, list[int]]:
    """Simply-laced component type plus its nodes in the package's node order."""
    deg = {x: [y for y in comp if y != x and a[x][y] != 0] for x in comp}
    branch = [x for x in comp if len(deg[x]) == 3]
    if not branch:
        if len(comp) == 1:
            return SimpleType("A", 1), comp
        ends = [x for x in comp if len(deg[x]) <= 1]
        chain = [min(ends)]
        while len(chain) < len(comp):
            nxt = [y for y in deg[chain[-1]] if y not in chain]
            chain.append(nxt[0])
        return SimpleType("A", len(comp)), chain

    b = branch[0]
    arms = []
    for first in deg[b]:
        arm = [first]
        while True:
            nxt = [y for y in deg[arm[-1]] if y != b and y not in arm]
            if not nxt:
                break
            arm.append(nxt[0])
        arms.append(arm)
    arms.sort(key=len)
    lengths = tuple(len(arm) for arm in arms)
    k = len(comp)
    if lengths[0] == 1 and lengths[1] == 1:
        # D_k: chain from the long-arm end to the branch, then the two forks
        order = list(reversed(arms[2])) + [b] + [arms[0][0], arms[1][0]]
        return SimpleType("D", k), order
    if lengths == (1, 2, 2):
        order = list(reversed(arms[1])) + [b] + arms[2] + [arms[0][0]]
        return SimpleType("E", 6), order
    if lengths == (1, 2, 3):
        order = list(reversed(arms[2])) + [b] + arms[1] + [arms[0][0]]
        return SimpleType("E", 7), order
    if lengths == (1, 2, 4):
        order = list(reversed(arms[2])) + [b] + arms[1] + [arms[0][0]]
        return SimpleType("E", 8), order
    raise ValueError(f"unrecognized component {comp}")


def embed_weights(big: SimpleType, placed: list[tuple[SimpleType, list[int], tuple[int, ...]]]):
    """Psi-coordinates in the big algebra of a sum of component elements."""
    a_big = cartan_matrix(big)
    l = big.rank
    psi = [Q(0)] * l
    for ct, order, w in placed:
        a_c = [[a_big[order[i]][order[j]] for j in range(ct.rank)] for i in range(ct.rank)]
        # coroot coefficients x with (A_c)^T x = w
        rows = [[a_c[j][i] for j in range(ct.rank)] for i in range(ct.rank)]
        x = solve(rows, w)
        for i in range(ct.rank):
            for j in range(l):
                psi[j] += x[i] * a_big[order[i]][j]
    dom = dominantize_weights(big, psi)
    check(all(v.denominator == 1 and 0 <= v <= 2 for v in dom), f"{placed}: {dom}")
    return tuple(int(v) for v in dom)


def format_name(parts: list[str]) -> str:
    def sort_key(name):
        base = name.split("(")[0]
        fam = base.lstrip("0123456789")[0]
        rank = int(base.split("_")[1])
        return (-rank, {"E": 0, "D": 1, "A": 2}.get(fam, 3), name)

    parts = sorted(parts, key=sort_key)
    grouped = []
    i = 0
    while i < len(parts):
        j = i
        while j < len(parts) and parts[j] == parts[i]:
            j += 1
        grouped.append((f"{j - i}" if j - i > 1 else "") + parts[i])
        i = j
    return "+".join(grouped)


def bala_carter_rows(t: SimpleType):
    a = cartan_matrix(t)
    l = t.rank
    rows: dict[tuple[int, ...], set[str]] = {}
    for mask in range(1 << l):
        nodes = [i for i in range(l) if (mask >> i) & 1]
        comps = components(nodes, a) if nodes else []
        classified = [classify_component(c, a) for c in comps]
        choice_lists = []
        for comp_type, order in classified:
            choice_lists.append(
                [(name, order, weights, comp_type) for name, weights, _ in distinguished_orbits(comp_type)]
            )
        for combo in product(*choice_lists) if choice_lists else [()]:
            placed = [(comp_type, order, weights) for (_, order, weights, comp_type) in combo]
            names = [name for (name, _, _, _) in combo]
            psi = embed_weights(t, placed) if placed else tuple(0 for _ in range(l))
            name = format_name(names) if names else "0"
            rows.setdefault(psi, set()).add(name)
    return rows


def resolve_primes(t: SimpleType, rows: dict[tuple[int, ...], set[str]]):
    """Collapse duplicate names (E7 primes) and check uniqueness elsewhere."""
    by_name: dict[str, list[tuple[int, ...]]] = {}
    out: dict[tuple[int, ...], str] = {}
    for psi, names in rows.items():
        check(len(names) == 1, f"conflicting names for {psi}: {names}")
        by_name.setdefault(next(iter(names)), []).append(psi)
    anchor = (2, 0, 0, 0, 0, 0, 0)  # the published (3A_1)'' diagram for E7
    for name, psis in sorted(by_name.items()):
        if len(psis) == 1:
            out[psis[0]] = name
            continue
        check(str(t) == "E7" and len(psis) == 2, f"{name}: {psis}")
        dims = {psi: orbit_dim(t, psi) for psi in psis}
        lo, hi = sorted(psis, key=lambda p: dims[p])
        if name == "3A_1":
            check(anchor in psis, f"{psis}")
            marks = {anchor: "''", (lo if hi == anchor else hi): "'"}
            print(f"  E7 prime calibration: ('' , dim)={dims[anchor]}  (', dim)={dims[lo if hi == anchor else hi]}")
            global PRIME_RULE
            PRIME_RULE = "low" if anchor == lo else "high"
        else:
            marks = {lo: "''", hi: "'"} if PRIME_RULE == "low" else {hi: "''", lo: "'"}
        for psi in psis:
            out[psi] = f"({name}){marks[psi]}"
    return out


PRIME_RULE = None


def main():
    for fam, rank in (("E", 6), ("E", 7), ("E", 8)):
        t = SimpleType(fam, rank)
        print(f"== {t} ==")
        rows = bala_carter_rows(t)
        named = resolve_primes(t, rows)
        expected = EXPECTED_COUNTS[str(t)]
        print(f"  rows: {len(named)} (expected {expected})")
        check(len(named) == expected, f"{t}: got {len(named)}")
        model = build_chevalley(t, max_rank=8)
        for psi in sorted(named):
            d = WeightedDiagram(t, psi)
            ok, _ = is_characteristic(model, d)
            check(ok, f"{t} {named[psi]} {psi} failed oracle certification")
        print("  all rows oracle-certified")
        if str(t) == "E6":
            found = set()
            for bits in product((0, 1, 2), repeat=6):
                d = WeightedDiagram(t, bits)
                ok, _ = is_characteristic(model, d)
                if ok:
                    found.add(bits)
            check(found == set(named), f"{found - set(named)} {set(named) - found}")
            print("  E6 exhaustion over 3^6 candidates agrees")
        ordered = sorted(named.items(), key=lambda kv: (orbit_dim(t, kv[0]), kv[1]))
        print(f'    "{t}": (')
        for psi, name in ordered:
            print(f'        ("{name}", {psi}),  # dim {orbit_dim(t, psi)}')
        print("    ),")


if __name__ == "__main__":
    main()
