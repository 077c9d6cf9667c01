"""Reference for the Chevalley model's structure constants: the recursive
`n`, the lazy `Fraction` norms, `_chain_p` and the extraspecial-pair loop
that the integer structure-constant table replaced, kept verbatim, with the
three-case `bracket` that read them."""

from fractions import Fraction as Q

from orbitspan.rootcore import RootSystemData, simple_root_norms

IntVec = tuple[int, ...]


def _add(a: IntVec, b: IntVec) -> IntVec:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: IntVec, b: IntVec) -> IntVec:
    return tuple(x - y for x, y in zip(a, b))


def _neg(a: IntVec) -> IntVec:
    return tuple(-x for x in a)


class ReferenceModel:
    """Basis h_1..h_l (simple coroots) plus e_beta for every root beta."""

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
        self._d = [Q(n, 2) for n in norms]  # (alpha_i, alpha_i)/2
        self._norm_cache: dict[IntVec, Q] = {}
        self._ntable: dict[tuple[IntVec, IntVec], Q] = {}
        self._build_structure_constants()

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
            eps = next(
                r
                for r in self.positives
                if _sub(gamma, r) in self.root_set and all(c >= 0 for c in _sub(gamma, r)) and any(_sub(gamma, r))
            )
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

    def root_index(self, root: IntVec) -> int:
        return self._index[root]

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
