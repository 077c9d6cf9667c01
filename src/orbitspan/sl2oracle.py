"""Cross-validation oracle: decide whether a dominant integral weighted diagram
is the characteristic of a nilpotent orbit by solving for an sl2 triple in a
Chevalley-basis model of the complex Lie algebra."""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from typing import Optional

from .rational import solve
from .rootcore import RootSystemData, SimpleType, WeightedDiagram, build_root_system, simple_root_norms

IntVec = tuple[int, ...]

DEFAULT_RANK_BOUND = 6
SWEEP_DIM_CAP = 12


def _add(a: IntVec, b: IntVec) -> IntVec:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: IntVec, b: IntVec) -> IntVec:
    return tuple(x - y for x, y in zip(a, b))


def _neg(a: IntVec) -> IntVec:
    return tuple(-x for x in a)


class ChevalleyModel:
    """Basis h_1..h_l (simple coroots) plus e_beta for every root beta.

    Structure constants use the extraspecial-pair sign convention; the
    resulting bracket satisfies antisymmetry and the Jacobi identity, which is
    what the oracle relies on (the sign choices themselves are irrelevant).
    """

    def __init__(self, root_system: RootSystemData):
        self.root_system = root_system
        t = root_system.simple_type
        self.rank = t.rank
        self.cartan = root_system.cartan_matrix
        positives = list(root_system.positive_roots)
        self.positives = positives
        self.roots: list[IntVec] = positives + [_neg(r) for r in positives]
        self.root_set = set(self.roots)
        self._index = {r: self.rank + k for k, r in enumerate(self.roots)}
        self.order = {r: k for k, r in enumerate(positives)}
        norms = simple_root_norms(t)
        self._d = [n / 2 for n in norms]  # (alpha_i, alpha_i)/2
        self._norm_cache: dict[IntVec, Q] = {}
        self._ntable: dict[tuple[IntVec, IntVec], Q] = {}
        self._build_structure_constants()

    @property
    def dimension(self) -> int:
        return self.rank + len(self.roots)

    # -- root geometry -------------------------------------------------

    def norm2(self, root: IntVec) -> Q:
        got = self._norm_cache.get(root)
        if got is None:
            got = sum(
                Q(root[i]) * Q(root[j]) * self._d[i] * self.cartan[i][j]
                for i in range(self.rank)
                for j in range(self.rank)
                if root[i] and root[j] and self.cartan[i][j]
            )
            self._norm_cache[root] = got
        return got

    def coroot_coefficients(self, root: IntVec) -> list[Q]:
        """Expansion of root^vee over the simple coroots h_1..h_l."""
        n2 = self.norm2(root)
        return [Q(root[i]) * 2 * self._d[i] / n2 for i in range(self.rank)]

    def pairing(self, root: IntVec, i: int) -> int:
        """<root, alpha_i^vee>."""
        return sum(m * self.cartan[i][j] for j, m in enumerate(root))

    def _chain_p(self, alpha: IntVec, beta: IntVec) -> int:
        """Largest p with beta - p*alpha a root."""
        p = 0
        cur = _sub(beta, alpha)
        while cur in self.root_set:
            p += 1
            cur = _sub(cur, alpha)
        return p

    # -- structure constants --------------------------------------------

    def _build_structure_constants(self) -> None:
        for gamma in self.positives:
            if sum(gamma) == 1:
                continue
            eps = next(r for r in self.positives if _sub(gamma, r) in self.root_set and all(c >= 0 for c in _sub(gamma, r)) and any(_sub(gamma, r)))
            eta = _sub(gamma, eps)
            self._ntable[(eps, eta)] = Q(self._chain_p(eps, eta) + 1)
            for alpha in self.positives:
                if self.order[alpha] <= self.order[eps]:
                    continue
                beta = _sub(gamma, alpha)
                if beta not in self.root_set or not all(c >= 0 for c in beta):
                    continue
                if self.order[beta] <= self.order[alpha]:
                    continue
                # Jacobi identity for (e_{-eps}, e_alpha, e_beta):
                #   N(alpha,beta) N(-eps,gamma) + N(beta,-eps) N(alpha,beta-eps)
                #     + N(-eps,alpha) N(beta,alpha-eps) = 0
                t2 = Q(0)
                if _sub(beta, eps) in self.root_set:
                    t2 = self.n(beta, _neg(eps)) * self.n(alpha, _sub(beta, eps))
                t3 = Q(0)
                if _sub(alpha, eps) in self.root_set:
                    t3 = self.n(_neg(eps), alpha) * self.n(beta, _sub(alpha, eps))
                denom = self.n(_neg(eps), gamma)
                value = -(t2 + t3) / denom
                if value.denominator != 1:
                    raise AssertionError("non-integer structure constant")
                self._ntable[(alpha, beta)] = value

    def n(self, alpha: IntVec, beta: IntVec) -> Q:
        """Structure constant N with [e_alpha, e_beta] = N e_{alpha+beta}."""
        gamma = _add(alpha, beta)
        if gamma not in self.root_set:
            return Q(0)
        pos_a = alpha in self.order or (alpha in self.root_set and all(c >= 0 for c in alpha))
        pos_b = beta in self.order or (beta in self.root_set and all(c >= 0 for c in beta))
        if pos_a and pos_b:
            if self.order[alpha] < self.order[beta]:
                return self._ntable[(alpha, beta)]
            return -self._ntable[(beta, alpha)]
        if not pos_a and not pos_b:
            return -self.n(_neg(alpha), _neg(beta))
        delta = _neg(gamma)
        return self.n(beta, delta) * self.norm2(delta) / self.norm2(alpha)

    # -- elements and brackets -------------------------------------------
    # An element is a sparse dict: index -> Q, where indices 0..rank-1 are the
    # Cartan generators h_i and rank+k is the root vector of self.roots[k].

    def root_index(self, root: IntVec) -> int:
        return self._index[root]

    def cartan_element(self, coroot_coeffs) -> dict[int, Q]:
        return {i: Q(c) for i, c in enumerate(coroot_coeffs) if c != 0}

    def bracket(self, x: dict[int, Q], y: dict[int, Q]) -> dict[int, Q]:
        out: dict[int, Q] = {}

        def accumulate(idx: int, val: Q) -> None:
            if val == 0:
                return
            cur = out.get(idx, Q(0)) + val
            if cur == 0:
                out.pop(idx, None)
            else:
                out[idx] = cur

        for ix, cx in x.items():
            for iy, cy in y.items():
                c = cx * cy
                if ix < self.rank and iy < self.rank:
                    continue
                if ix < self.rank:  # [h_i, e_beta]
                    beta = self.roots[iy - self.rank]
                    accumulate(iy, c * self.pairing(beta, ix))
                elif iy < self.rank:  # [e_alpha, h_i] = -[h_i, e_alpha]
                    alpha = self.roots[ix - self.rank]
                    accumulate(ix, -c * self.pairing(alpha, iy))
                else:
                    alpha = self.roots[ix - self.rank]
                    beta = self.roots[iy - self.rank]
                    gamma = _add(alpha, beta)
                    if all(v == 0 for v in gamma):
                        for i, coeff in enumerate(self.coroot_coefficients(alpha)):
                            accumulate(i, c * coeff)
                    elif gamma in self.root_set:
                        accumulate(self.root_index(gamma), c * self.n(alpha, beta))
        return out


@lru_cache(maxsize=None)
def _cached_model(t: SimpleType) -> ChevalleyModel:
    return ChevalleyModel(build_root_system(t))


def build_chevalley(t: SimpleType, max_rank: int = DEFAULT_RANK_BOUND) -> ChevalleyModel:
    """Construct (and cache) the Chevalley model; ranks above `max_rank` are
    rejected since exact arithmetic gets slow (pass a larger bound to allow)."""
    if t.rank > max_rank:
        raise ValueError(
            f"rank {t.rank} exceeds the oracle bound {max_rank}; "
            f"pass max_rank={t.rank} explicitly if you accept the runtime"
        )
    return _cached_model(t)


@dataclass(frozen=True)
class TripleWitness:
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


def _integral(value: Q) -> int:
    if value.denominator != 1:
        raise AssertionError("non-integral entry of ad(e_beta)")
    return value.numerator


def is_characteristic(
    model: ChevalleyModel,
    d: WeightedDiagram,
    trials: int = 20,
) -> tuple[bool, Optional[TripleWitness]]:
    """Decide whether `d` is the characteristic of a nilpotent orbit.

    Each trial picks E = sum c_beta e_beta in g_2 and solves [E, F] = H for F
    in g_{-2} by exact integer elimination: the matrices of ad(e_beta) from
    g_{-2} to g_0 are built once per diagram, so a trial only sums them.  A
    True answer is certified by exact brackets of the witness.  A False answer
    is probabilistic: random small-coefficient E are tried, then a
    deterministic {0,1}-coefficient sweep when g_2 is small enough.
    """
    t = model.root_system.simple_type
    if d.simple_type != t:
        raise ValueError("diagram type does not match the model")
    weights = list(d.weights)  # the list's repr seeds the trials
    if any(type(w) is not int or w < 0 for w in weights):
        raise ValueError("oracle needs nonnegative integer weights")
    if all(w == 0 for w in weights):
        return True, TripleWitness(d, (), ())
    r2 = [beta for beta in model.roots if sum(m * w for m, w in zip(beta, weights)) == 2]
    if not r2:
        return False, None

    rank = model.rank
    # g_0 coordinates: Cartan 0..rank-1 followed by zero-degree root vectors
    r0 = [beta for beta in model.roots if sum(m * w for m, w in zip(beta, weights)) == 0]
    coord = {beta: rank + k for k, beta in enumerate(r0)}
    h_coeffs = solve([[model.cartan[j][i] for j in range(rank)] for i in range(rank)], weights)
    rhs = h_coeffs + [0] * len(r0)
    # ad(e_beta): g_{-2} -> g_0 as (g_0 row, g_{-2} column, entry) triples
    ad_e = []
    for beta in r2:
        entries = []
        for j, delta in enumerate(r2):
            if beta == delta:
                entries.extend((i, j, _integral(c)) for i, c in enumerate(model.coroot_coefficients(beta)) if c)
            elif (gamma := _sub(beta, delta)) in coord:
                entries.append((coord[gamma], j, _integral(model.n(beta, _neg(delta)))))
        ad_e.append(entries)

    def certify(coeffs, y) -> TripleWitness:
        e_elt = {model.root_index(beta): Q(c) for beta, c in zip(r2, coeffs) if c != 0}
        f_elt = {model.root_index(_neg(delta)): v for delta, v in zip(r2, y) if v != 0}
        h_elt = model.cartan_element(h_coeffs)
        if model.bracket(h_elt, e_elt) != {k: 2 * v for k, v in e_elt.items()}:
            raise AssertionError("witness fails [H, E] = 2E")
        if model.bracket(h_elt, f_elt) != {k: -2 * v for k, v in f_elt.items()}:
            raise AssertionError("witness fails [H, F] = -2F")
        if model.bracket(e_elt, f_elt) != h_elt:
            raise AssertionError("witness fails [E, F] = H")
        e_pairs = tuple((model.roots[k - model.rank], c) for k, c in sorted(e_elt.items()))
        f_pairs = tuple((model.roots[k - model.rank], c) for k, c in sorted(f_elt.items()))
        return TripleWitness(d, e_pairs, f_pairs)

    def candidates():
        rng = random.Random(zlib.crc32(f"{t}|{weights}".encode()))
        for trial in range(trials):
            spread = 3 if trial < trials // 2 else 9
            pool = [x for x in range(-spread, spread + 1) if x != 0]
            yield [rng.choice(pool) for _ in r2]
        if len(r2) <= SWEEP_DIM_CAP:
            for mask in range(1, 1 << len(r2)):
                yield [(mask >> k) & 1 for k in range(len(r2))]

    for coeffs in candidates():
        a = [[0] * len(r2) for _ in range(len(rhs))]
        for c, entries in zip(coeffs, ad_e):
            if c:
                for i, j, v in entries:
                    a[i][j] += c * v
        y = solve(a, rhs)
        if y is not None:
            return True, certify(coeffs, y)
    return False, None
