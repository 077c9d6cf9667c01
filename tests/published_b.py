"""Golden data for the tests: the b-subspace of each real form, transcribed
from the published per-form tables rather than computed from Satake diagrams
and the opposition involution."""

from orbitspan.rational import RationalSubspace, coordinate_kernel
from orbitspan.satake import RealFormLabel, split_label_of, underlying_type


def expected_b_form(label: RealFormLabel) -> RationalSubspace:
    """The subspace transcribed from the published per-form tables."""
    split = split_label_of(label)
    if split != label:  # a complex form viewed as real
        return expected_b_form(split)
    t = underlying_type(label)
    l = t.rank
    k, p = label.kind, label.params
    palindrome = [(i, l - 1 - i) for i in range(l // 2)]
    if k == "sl":
        return coordinate_kernel(l, (), palindrome)
    if k == "su":
        return coordinate_kernel(l, range(p[1], l - p[1]), palindrome)
    if k == "su*":
        return coordinate_kernel(l, range(0, l, 2), palindrome)
    if k == "so" and t.family == "B":
        return coordinate_kernel(l, range(p[1], l))
    if k == "spR":
        return coordinate_kernel(l)
    if k == "sp":
        q = p[1]
        white = {2 * i + 1 for i in range(q)}
        return coordinate_kernel(l, sorted(set(range(l)) - white))
    if k == "so" and t.family == "D":
        pp, q = p
        if pp == q:
            return coordinate_kernel(l) if l % 2 == 0 else coordinate_kernel(l, (), [(l - 2, l - 1)])
        if pp == q + 2:
            return coordinate_kernel(l, (), [(l - 2, l - 1)])
        return coordinate_kernel(l, range(q, l))
    if k == "so*":
        m, odd = divmod(l, 2)
        if odd:
            return coordinate_kernel(l, range(0, l - 2, 2), [(l - 2, l - 1)])
        return coordinate_kernel(l, range(0, l, 2))
    expected = {
        ("e6", (6,)): ((), [(0, 4), (1, 3)]),
        ("e6", (2,)): ((), [(0, 4), (1, 3)]),
        ("e6", (-14,)): ((1, 2, 3), [(0, 4)]),
        ("e6", (-26,)): ((1, 2, 3, 5), [(0, 4)]),
        ("e7", (7,)): ((), ()),
        ("e7", (-5,)): ((0, 2, 6), ()),
        ("e7", (-25,)): ((2, 3, 4, 6), ()),
        ("e8", (8,)): ((), ()),
        ("e8", (-24,)): ((3, 4, 5, 7), ()),
        ("f4", (4,)): ((), ()),
        ("f4", (-20,)): ((0, 1, 2), ()),
        ("g2", (2,)): ((), ()),
    }
    zeros, pairs = expected[(k, tuple(p))]
    return coordinate_kernel(l, zeros, pairs)
