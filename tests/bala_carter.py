"""The Bala-Carter derivation of the E6/E7/E8 weighted Dynkin diagrams.

Every nilpotent orbit is distinguished in a unique Levi subalgebra (Bala-Carter;
Collingwood-McGovern ch. 8).  So the orbits of E_n are reached by taking each
subset of the simple roots, a distinguished orbit of every component of that
Levi subsystem, and the dominant representative of the sum of their
characteristics.  The orbit is named by its components; in E7 five names
cover two orbits each and carry primes.  Rows come out in the canonical table
order: orbit dimension, then name.
"""

from collections import Counter
from functools import lru_cache
from itertools import product

from orbitspan.nilorbits import classical_partitions, diagram_of_partition
from orbitspan.rational import solve
from orbitspan.rootcore import SimpleType, WeightedDiagram, _dominantize, build_root_system, cartan_matrix
from orbitspan.sl2oracle import build_chevalley, is_characteristic

# decorated names of the distinguished orbits below the regular one, by decreasing dimension
DECORATED = {
    6: ["a_1", "a_3"],
    7: ["a_1", "a_2", "a_3", "a_4", "a_5"],
    8: ["a_1", "a_2", "a_3", "a_4", "b_4", "a_5", "b_5", "a_6", "b_6", "a_7"],
}


def grading(t: SimpleType, weights) -> Counter:
    """dim g_k for every degree k of the grading by the Cartan element with these weights."""
    dims = Counter({0: t.rank})
    for beta in build_root_system(t).positive_roots:
        k = sum(m * w for m, w in zip(beta, weights))
        dims[k] += 1
        dims[-k] += 1
    return dims


def orbit_dim(t: SimpleType, weights) -> int:
    """dim g - dim g_0 - dim g_1 for a dominant diagram."""
    dims = grading(t, weights)
    return sum(dims.values()) - dims[0] - dims[1]


@lru_cache(maxsize=None)
def distinguished(t: SimpleType) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(name, weights) of the distinguished orbits of a type A, D or E, by decreasing dimension."""
    if t.family == "A":
        return ((f"A_{t.rank}", (2,) * t.rank),)
    if t.family == "D":  # the partitions into distinct odd parts
        odd = [p for p in classical_partitions(t) if all(m % 2 for m in p)]
        weights = [diagram_of_partition(t, p).diagram.weights for p in odd if len(set(p)) == len(p)]
        decorated = [f"(a_{k})" for k in range(1, len(weights))]
    else:  # even diagrams with dim g_0 = dim g_2 that the oracle certifies
        model = build_chevalley(t, max_rank=8)
        even = [w for w in product((0, 2), repeat=t.rank) if any(w) and (g := grading(t, w))[0] == g[2]]
        weights = [w for w in even if is_characteristic(model, WeightedDiagram(t, w))[0]]
        decorated = [f"({d})" for d in DECORATED[t.rank]]
    weights.sort(key=lambda w: -orbit_dim(t, w))
    dims = [orbit_dim(t, w) for w in weights]
    if len(weights) != 1 + len(decorated) or len(set(dims)) != len(dims):
        raise ValueError(f"{t}: distinguished diagrams {weights} with dimensions {dims}")
    return tuple(zip([f"{t.family}_{t.rank}" + d for d in ["", *decorated]], weights))


def components(nodes: list[int], a) -> list[list[int]]:
    """The connected components of the subdiagram on `nodes`."""
    comps: list[list[int]] = []
    for x in nodes:
        linked = [c for c in comps if any(a[x][y] for y in c)]
        comps = [c for c in comps if c not in linked] + [sorted([x, *(y for c in linked for y in c)])]
    return comps


def classify(comp: list[int], a) -> tuple[SimpleType, list[int]]:
    """A simply-laced component's type and its nodes in the package's node order."""
    nbrs = {x: [y for y in comp if y != x and a[x][y]] for x in comp}
    branch = [x for x in comp if len(nbrs[x]) == 3]
    if not branch:  # a chain, read from its least end
        chain = [min(x for x in comp if len(nbrs[x]) <= 1)]
        while len(chain) < len(comp):
            chain.append(next(y for y in nbrs[chain[-1]] if y not in chain))
        return SimpleType("A", len(comp)), chain
    b = branch[0]
    arms = []
    for first in nbrs[b]:
        arm = [first]
        while nxt := [y for y in nbrs[arm[-1]] if y != b and y not in arm]:
            arm.append(nxt[0])
        arms.append(arm)
    short, middle, long_ = sorted(arms, key=len)
    if len(middle) == 1:  # D: the long arm up to the branch, then the two forks
        return SimpleType("D", len(comp)), [*reversed(long_), b, short[0], middle[0]]
    # E: the long arm up to the branch, the middle arm, then the one-node arm
    return SimpleType("E", len(comp)), [*reversed(long_), b, *middle, short[0]]


def embed(big: SimpleType, placed) -> tuple[int, ...]:
    """The dominant diagram in `big` of the sum of component characteristics,
    each given as (component type, its nodes in order, its weights)."""
    a = cartan_matrix(big)
    psi = [0] * big.rank
    for ct, order, w in placed:
        # coroot coefficients x with sum_i x_i <alpha_j, alpha_i^vee> = w_j on the component
        x = solve([[a[order[i]][order[j]] for i in range(ct.rank)] for j in range(ct.rank)], w)
        if any(c.denominator != 1 for c in x):
            raise ValueError(f"non-integral coroot coefficients {x} for {ct}")
        for i, c in zip(order, x):
            for j in range(big.rank):
                psi[j] += c.numerator * a[i][j]
    dom = _dominantize(psi, a)
    if not all(0 <= v <= 2 for v in dom):
        raise ValueError(f"{placed}: dominant weights {dom} are not 0, 1 or 2")
    return tuple(dom)


def bala_carter_name(parts: list[str]) -> str:
    """Component names joined by rank, then E before D before A, repeats counted."""
    def key(name):
        family, rank = name.split("(")[0].split("_")
        return -int(rank), "EDA".index(family), name

    counts = Counter(sorted(parts, key=key))
    return "+".join((str(k) if k > 1 else "") + name for name, k in counts.items()) or "0"


def derive_table(t: SimpleType) -> list[tuple[str, tuple[int, ...]]]:
    """Every (name, weights) row of E6, E7 or E8 in the canonical table order."""
    a = cartan_matrix(t)
    names: dict[tuple[int, ...], set[str]] = {}
    for mask in range(1 << t.rank):
        levi = [classify(c, a) for c in components([i for i in range(t.rank) if mask >> i & 1], a)]
        for combo in product(*(distinguished(ct) for ct, _ in levi)):
            psi = embed(t, [(ct, order, w) for (ct, order), (_, w) in zip(levi, combo)])
            names.setdefault(psi, set()).add(bala_carter_name([name for name, _ in combo]))
    by_name: dict[str, list[tuple[int, ...]]] = {}
    for psi, found in names.items():
        if len(found) != 1:
            raise ValueError(f"{psi} is named {found}")
        by_name.setdefault(found.pop(), []).append(psi)
    rows = []
    for name, psis in by_name.items():
        if len(psis) == 1:
            rows.append((name, psis[0]))
            continue
        # two orbits share the name: in E7, '' marks the smaller one, as (3A_1)'' = (2,0,0,0,0,0,0)
        dims = sorted((orbit_dim(t, p), p) for p in psis)
        if t != SimpleType("E", 7) or len(dims) != 2 or dims[0][0] == dims[1][0]:
            raise ValueError(f"{t}: {name} names {psis}")
        (_, low), (_, high) = dims
        rows += [(f"({name})''", low), (f"({name})'", high)]
    return sorted(rows, key=lambda row: (orbit_dim(t, row[1]), row[0]))
