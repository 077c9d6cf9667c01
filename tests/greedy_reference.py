"""Reference for the greedy basis: the rebuild-per-candidate loop that
`rational.independent_prefix` replaced.  Each candidate is appended to the
current canonical basis and the span is recomputed by `Fraction` RREF; the
candidate is kept iff the dimension grows."""

from rref_reference import span_of


def greedy_reference(vectors, l):
    """Indices of the first independent spanning subset, and its span."""
    span = span_of(l, [])
    picked = []
    for k, v in enumerate(vectors):
        bigger = span_of(l, list(span.basis) + [v])
        if bigger.dim > span.dim:
            span = bigger
            picked.append(k)
    return picked, span
