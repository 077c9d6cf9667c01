"""Cross-validation oracle: decide whether a dominant integral weighted diagram
is the characteristic of a nilpotent orbit by solving for an sl2 triple in a
Chevalley-basis model of the complex Lie algebra."""

from __future__ import annotations

import random
import zlib
from fractions import Fraction as Q
from functools import lru_cache
from typing import NamedTuple, Optional

from .rational import independent_prefix, solve
from .rootcore import RootSystemData, SimpleType, WeightedDiagram, build_root_system, simple_root_norms

IntVec = tuple[int, ...]

DEFAULT_RANK_BOUND = 6


def _add(a: IntVec, b: IntVec) -> IntVec:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: IntVec, b: IntVec) -> IntVec:
    return tuple(x - y for x, y in zip(a, b))


def _neg(a: IntVec) -> IntVec:
    return tuple(-x for x in a)


def _exact(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise AssertionError("non-integer structure constant")
    return q


def _structure_constants(positives: list[IntVec], norm: dict[IntVec, int]) -> dict[tuple[IntVec, IntVec], int]:
    """N(alpha, beta) for every pair of roots whose sum is a root.

    Positive pairs are fixed in order of height: N = p + 1 on the extraspecial
    pair, then the Jacobi identity.  Each value is recorded at once on its
    zero-sum triple and the negated one, since N is antisymmetric,
    N(-x, -y) = -N(x, y), and N(x, y)/(z, z) is the same for each rotation of
    x + y + z = 0 (Carter, Simple Groups of Lie Type, 4.1).
    """
    order = {r: k for k, r in enumerate(positives)}
    n: dict[tuple[IntVec, IntVec], int] = {}

    def record(alpha: IntVec, beta: IntVec, value: int) -> None:
        gamma = _neg(_add(alpha, beta))
        for x, y, z in ((alpha, beta, gamma), (beta, gamma, alpha), (gamma, alpha, beta)):
            v = _exact(value * norm[z], norm[gamma])
            n[(x, y)], n[(y, x)] = v, -v
            n[(_neg(x), _neg(y))], n[(_neg(y), _neg(x))] = -v, v

    for gamma in positives:
        if sum(gamma) == 1:
            continue
        eps = next(r for r in positives if _sub(gamma, r) in order)
        eta = _sub(gamma, eps)
        p, cur = 0, _sub(eta, eps)
        while cur in norm:  # p is the largest with eta - p*eps a root
            p, cur = p + 1, _sub(cur, eps)
        record(eps, eta, p + 1)
        for alpha in positives[order[eps] + 1 :]:
            beta = _sub(gamma, alpha)
            if order.get(beta, -1) <= order[alpha]:
                continue
            # Jacobi identity for (e_{-eps}, e_alpha, e_beta):
            #   N(alpha,beta) N(-eps,gamma) + N(beta,-eps) N(alpha,beta-eps)
            #     + N(-eps,alpha) N(beta,alpha-eps) = 0
            minus, t = _neg(eps), 0
            if (beta_eps := _sub(beta, eps)) in norm:
                t += n[(beta, minus)] * n[(alpha, beta_eps)]
            if (alpha_eps := _sub(alpha, eps)) in norm:
                t += n[(minus, alpha)] * n[(beta, alpha_eps)]
            record(alpha, beta, _exact(-t, n[(minus, gamma)]))
    return n


class ChevalleyModel:
    """Basis h_1..h_l (simple coroots) plus e_beta for every root beta.

    Structure constants use the extraspecial-pair sign convention; the
    resulting bracket satisfies antisymmetry and the Jacobi identity, which is
    what the oracle relies on (the sign choices themselves are irrelevant).
    They are held in one integer table over basis indices, built once:
    `table[(i, j)]` lists the (k, c) with [x_i, x_j] = sum of c x_k.
    """

    def __init__(self, root_system: RootSystemData):
        self.root_system = root_system
        t = root_system.simple_type
        self.rank = rank = t.rank
        self.cartan = cartan = root_system.cartan_matrix
        positives = list(root_system.positive_roots)
        self.roots: list[IntVec] = positives + [_neg(r) for r in positives]
        self._index = index = {r: rank + k for k, r in enumerate(self.roots)}
        d = [n // 2 for n in simple_root_norms(t)]  # (alpha_i, alpha_i)/2
        norm = {
            r: sum(r[i] * r[j] * d[i] * cartan[i][j] for i in range(rank) for j in range(rank)) for r in self.roots
        }
        self.table: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        for beta, k in index.items():
            self.table[(k, index[_neg(beta)])] = tuple(
                (i, _exact(2 * m * d[i], norm[beta])) for i, m in enumerate(beta) if m
            )
            for i in range(rank):
                if c := sum(m * cartan[i][j] for j, m in enumerate(beta)):
                    self.table[(i, k)], self.table[(k, i)] = ((k, c),), ((k, -c),)
        for (alpha, beta), c in _structure_constants(positives, norm).items():
            self.table[(index[alpha], index[beta])] = ((index[_add(alpha, beta)], c),)

    @property
    def dimension(self) -> int:
        return self.rank + len(self.roots)

    # An element is a sparse dict: index -> Q, where indices 0..rank-1 are the
    # Cartan generators h_i and rank+k is the root vector of self.roots[k].

    def root_index(self, root: IntVec) -> int:
        return self._index[root]

    def bracket(self, x: dict[int, Q], y: dict[int, Q]) -> dict[int, Q]:
        out: dict[int, Q] = {}
        for ix, cx in x.items():
            for iy, cy in y.items():
                for k, c in self.table.get((ix, iy), ()):
                    out[k] = out.get(k, 0) + cx * cy * c
        return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def _cached_model(t: SimpleType) -> ChevalleyModel:
    return ChevalleyModel(build_root_system(t))


def build_chevalley(t: SimpleType, max_rank: int = DEFAULT_RANK_BOUND) -> ChevalleyModel:
    """Construct (and cache) the Chevalley model; ranks above `max_rank` are
    rejected since exact arithmetic gets slow (pass a larger bound to allow)."""
    if t.rank > max_rank:
        raise ValueError(f"rank {t.rank} exceeds the oracle bound max_rank={max_rank}")
    return _cached_model(t)


class TripleWitness(NamedTuple):
    """An exact sl2 triple certifying a characteristic."""

    h: WeightedDiagram
    e: tuple[tuple[IntVec, Q], ...]
    f: tuple[tuple[IntVec, Q], ...]

    def to_json(self) -> dict:
        def side(coeffs):
            return {",".join(map(str, root)): str(c) for root, c in coeffs}

        return {
            "H": list(self.h.weights),
            "E": side(self.e),
            "F": side(self.f),
        }


def is_characteristic(
    model: ChevalleyModel,
    d: WeightedDiagram,
    trials: int = 20,
) -> tuple[bool, Optional[TripleWitness]]:
    """Decide whether `d` is the characteristic of a nilpotent orbit, exactly.

    Each trial draws E in g_2 and solves [E, F] = H for F in g_{-2} by exact
    integer elimination; the matrices of ad(e_beta) from g_{-2} to g_0 are read
    from the table once per diagram, so a trial only sums them.  True is
    certified by exact brackets of the witness.  False comes only at a failed
    solve whose E has full rank, i.e. ad E maps g_0 onto g_2 (the trial matrix
    is minus its Killing transpose).  Then G_0.E is open in g_2, as is G_0.E'
    for the E' of any sl2 triple with this H; two open orbits meet and G_0
    fixes H, so no triple exists (de Graaf, LMS J. Comput. Math. 11 (2008)).
    If no draw reaches a full-rank E, the query is undecided: ValueError.
    """
    t = model.root_system.simple_type
    if d.simple_type != t:
        raise ValueError("diagram type does not match the model")
    weights = list(d.weights)  # the list's repr seeds the trials
    if any(w < 0 for w in weights):
        raise ValueError("oracle needs nonnegative integer weights")
    if all(w == 0 for w in weights):
        return True, TripleWitness(d, (), ())
    r2 = [beta for beta in model.roots if sum(m * w for m, w in zip(beta, weights)) == 2]
    if not r2:
        return False, None

    rank = model.rank
    # g_0 coordinates: Cartan 0..rank-1 followed by zero-degree root vectors
    r0 = [beta for beta in model.roots if sum(m * w for m, w in zip(beta, weights)) == 0]
    coord = {k: k for k in range(rank)} | {model.root_index(beta): rank + k for k, beta in enumerate(r0)}
    h_coeffs = solve([[model.cartan[j][i] for j in range(rank)] for i in range(rank)], weights)
    rhs = h_coeffs + [0] * len(r0)
    # ad(e_beta): g_{-2} -> g_0 as (g_0 row, g_{-2} column, entry) triples
    ad_e = [
        [
            (coord[k], j, c)
            for j, delta in enumerate(r2)
            for k, c in model.table.get((model.root_index(beta), model.root_index(_neg(delta))), ())
        ]
        for beta in r2
    ]

    def certify(coeffs, y) -> TripleWitness:
        e_elt = {model.root_index(beta): Q(c) for beta, c in zip(r2, coeffs)}
        f_elt = {model.root_index(_neg(delta)): v for delta, v in zip(r2, y) if v != 0}
        h_elt = {i: c for i, c in enumerate(h_coeffs) if c != 0}
        if model.bracket(h_elt, e_elt) != {k: 2 * v for k, v in e_elt.items()}:
            raise AssertionError("witness fails [H, E] = 2E")
        if model.bracket(h_elt, f_elt) != {k: -2 * v for k, v in f_elt.items()}:
            raise AssertionError("witness fails [H, F] = -2F")
        if model.bracket(e_elt, f_elt) != h_elt:
            raise AssertionError("witness fails [E, F] = H")
        e_pairs = tuple((model.roots[k - model.rank], c) for k, c in sorted(e_elt.items()))
        f_pairs = tuple((model.roots[k - model.rank], c) for k, c in sorted(f_elt.items()))
        return TripleWitness(d, e_pairs, f_pairs)

    rng = random.Random(zlib.crc32(f"{t}|{weights}".encode()))
    for trial in range(trials):
        spread = 3 if trial < trials // 2 else 9
        pool = [x for x in range(-spread, spread + 1) if x != 0]
        coeffs = [rng.choice(pool) for _ in r2]
        a = [[0] * len(r2) for _ in range(len(rhs))]
        for c, entries in zip(coeffs, ad_e):
            for i, j, v in entries:
                a[i][j] += c * v
        y = solve(a, rhs)
        if y is not None:
            return True, certify(coeffs, y)
        if len(independent_prefix(a)) == len(r2):
            return False, None
    raise ValueError(
        f"oracle undecided on {t} {weights}: no E with an open G_0-orbit in {trials} trials; allow more trials"
    )
