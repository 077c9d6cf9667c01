"""The Chevalley-model witness oracle: bracket axioms and characteristic tests."""

import os
import subprocess
import sys
from fractions import Fraction as Q
from itertools import product

import pytest
from chevalley_reference import ReferenceModel

import orbitspan

from orbitspan.nilorbits import diagram_of_partition, enumerate_complex_characteristics
from orbitspan.rootcore import SimpleType, WeightedDiagram, build_root_system
from orbitspan.sl2oracle import build_chevalley, is_characteristic


def elt(model, idx):
    return {idx: Q(1)}


def lie_add(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, Q(0)) + v
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def test_model_dimensions():
    assert build_chevalley(SimpleType("A", 1)).dimension == 3
    assert build_chevalley(SimpleType("G", 2)).dimension == 14
    assert build_chevalley(SimpleType("C", 3)).dimension == 21
    assert build_chevalley(SimpleType("F", 4)).dimension == 52


def test_rank_bound_guard():
    with pytest.raises(ValueError, match="max_rank"):
        build_chevalley(SimpleType("E", 7))
    assert build_chevalley(SimpleType("E", 7), max_rank=7).dimension == 133


def basis_elements(model):
    out = [elt(model, i) for i in range(model.rank)]
    out += [elt(model, model.root_index(r)) for r in model.roots]
    return out


@pytest.mark.parametrize("fam,rank", [("A", 2), ("B", 2), ("G", 2), ("C", 3)])
def test_jacobi_identity_full(fam, rank):
    model = build_chevalley(SimpleType(fam, rank))
    basis = basis_elements(model)
    for x in basis:
        for y in basis:
            bxy = model.bracket(x, y)
            byx = model.bracket(y, x)
            assert lie_add(bxy, byx) == {}, "antisymmetry"
            for z in basis:
                j = lie_add(
                    model.bracket(x, model.bracket(y, z)),
                    lie_add(
                        model.bracket(y, model.bracket(z, x)),
                        model.bracket(z, model.bracket(x, y)),
                    ),
                )
                assert j == {}, "jacobi"


def test_jacobi_identity_spot_check_f4_d4():
    import random

    rng = random.Random(11)
    for fam, rank in [("F", 4), ("D", 4)]:
        model = build_chevalley(SimpleType(fam, rank))
        basis = basis_elements(model)
        for _ in range(250):
            x, y, z = (rng.choice(basis) for _ in range(3))
            j = lie_add(
                model.bracket(x, model.bracket(y, z)),
                lie_add(
                    model.bracket(y, model.bracket(z, x)),
                    model.bracket(z, model.bracket(x, y)),
                ),
            )
            assert j == {}


DIFFERENTIAL_TYPES = (
    [("A", r) for r in range(1, 7)]
    + [("B", r) for r in range(2, 6)]
    + [("C", r) for r in range(2, 6)]
    + [("D", r) for r in range(4, 7)]
    + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
)


@pytest.mark.parametrize("fam,rank", DIFFERENTIAL_TYPES)
def test_structure_constants_match_reference(fam, rank):
    """Every N(alpha, beta) in the integer table, and the bracket of every pair
    of basis vectors, equals the recursive `Fraction` reference."""
    t = SimpleType(fam, rank)
    model = build_chevalley(t, max_rank=8)
    ref = ReferenceModel(build_root_system(t))
    assert model.roots == ref.roots
    for alpha in model.roots:
        for beta in model.roots:
            gamma = tuple(a + b for a, b in zip(alpha, beta))
            if gamma in ref.root_set:
                entry = model.table[(model.root_index(alpha), model.root_index(beta))]
                assert entry == ((model.root_index(gamma), ref.n(alpha, beta)),), (alpha, beta)
    for i in range(model.dimension):
        for j in range(model.dimension):
            assert model.bracket({i: Q(1)}, {j: Q(1)}) == ref.bracket({i: Q(1)}, {j: Q(1)}), (i, j)


def test_cartan_acts_with_integer_eigenvalues():
    model = build_chevalley(SimpleType("G", 2))
    for i in range(model.rank):
        for r in model.roots:
            out = model.bracket(elt(model, i), elt(model, model.root_index(r)))
            assert set(out) <= {model.root_index(r)}
            if out:
                assert out[model.root_index(r)].denominator == 1


def test_sl2_identity_case():
    t = SimpleType("A", 1)
    model = build_chevalley(t)
    ok, witness = is_characteristic(model, WeightedDiagram(t, (Q(2),)))
    assert ok
    assert witness is not None and len(witness.e) == 1 and len(witness.f) == 1


def test_g2_examples():
    t = SimpleType("G", 2)
    model = build_chevalley(t)
    ok, witness = is_characteristic(model, WeightedDiagram(t, (Q(2), Q(0))))
    assert ok and witness is not None
    ok2, w2 = is_characteristic(model, WeightedDiagram(t, (Q(0), Q(2))))
    assert not ok2 and w2 is None


def test_witness_brackets_hold_exactly():
    t = SimpleType("C", 3)
    model = build_chevalley(t)
    for od in enumerate_complex_characteristics(t):
        ok, witness = is_characteristic(model, od.diagram)
        assert ok, od.label
        if not any(od.diagram.weights):
            assert witness.e == () and witness.f == ()
            continue
        # reconstruct elements and re-check the three bracket relations
        e = {model.root_index(r): c for r, c in witness.e}
        f = {model.root_index(r): c for r, c in witness.f}
        from orbitspan.rational import solve

        h_coeffs = solve(
            [[Q(model.cartan[j][i]) for j in range(model.rank)] for i in range(model.rank)],
            [Q(x) for x in od.diagram.weights],
        )
        h = {i: c for i, c in enumerate(h_coeffs) if c != 0}
        assert model.bracket(e, f) == h
        assert model.bracket(h, e) == {k: 2 * v for k, v in e.items()}
        assert model.bracket(h, f) == {k: -2 * v for k, v in f.items()}


_WRONG_BRACKET = """
from fractions import Fraction as Q
from orbitspan.rootcore import SimpleType, WeightedDiagram
from orbitspan.sl2oracle import ChevalleyModel, build_chevalley, is_characteristic

print("debug", __debug__)
ChevalleyModel.bracket = lambda self, x, y: {}
t = SimpleType("G", 2)
is_characteristic(build_chevalley(t), WeightedDiagram(t, (Q(2), Q(2))))
"""


def test_certification_survives_optimized_mode():
    """Under `python -O` a witness whose brackets are wrong is still refused."""
    src = os.path.dirname(os.path.dirname(orbitspan.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_BRACKET],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.stdout.strip() == "debug False"
    assert proc.returncode != 0
    assert "AssertionError: witness fails" in proc.stderr


def test_oracle_rejects_bad_weights():
    t = SimpleType("A", 2)
    model = build_chevalley(t)
    with pytest.raises(ValueError):
        is_characteristic(model, WeightedDiagram(t, (Q(1, 2), Q(0))))
    with pytest.raises(ValueError):
        is_characteristic(model, WeightedDiagram(SimpleType("A", 1), (Q(2),)))


def test_grading_consistency():
    # a nonzero accepted diagram always has a nonempty degree-2 layer
    t = SimpleType("B", 3)
    model = build_chevalley(t)
    for od in enumerate_complex_characteristics(t):
        if not any(od.diagram.weights):
            continue
        ok, _ = is_characteristic(model, od.diagram)
        assert ok
        r2 = [
            beta
            for beta in model.roots
            if sum(m * int(wt) for m, wt in zip(beta, od.diagram.weights)) == 2
        ]
        assert r2


@pytest.mark.parametrize("rank", [6, 7, 8])
def test_every_embedded_e_table_row_is_certified(rank):
    """Positive certification of the E-type tables in their full models.

    Every row is a characteristic.  Completeness rests on the Bala-Carter
    derivation (`test_exceptional_tables.py`): it reaches every orbit, one per
    Levi subsystem and distinguished orbit of it, and regenerates exactly the
    embedded rows.
    """
    t = SimpleType("E", rank)
    model = build_chevalley(t, max_rank=8)
    for od in enumerate_complex_characteristics(t):
        ok, witness = is_characteristic(model, od.diagram)
        assert ok, od.label
        assert witness is not None


@pytest.mark.parametrize(
    "fam,rank",
    [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("A", 5), ("B", 4), ("C", 4), ("F", 4), ("G", 2), ("D", 5), ("A", 6)]
    + [("E", 6), ("E", 7)],
)
def test_oracle_agrees_with_enumeration(fam, rank):
    """Every nonzero {0,1,2}-vector gets an exact verdict at the default trials
    (none raises undecided), and the accepted ones are the enumerated weights."""
    t = SimpleType(fam, rank)
    model = build_chevalley(t, max_rank=8)
    expected = {tuple(int(x) for x in od.diagram.weights) for od in enumerate_complex_characteristics(t)}
    accepted = set()
    for bits in product((0, 1, 2), repeat=rank):
        d = WeightedDiagram(t, tuple(Q(b) for b in bits))
        ok, _ = is_characteristic(model, d)
        if ok:
            accepted.add(bits)
    assert accepted == expected


def test_trials_without_an_open_orbit_are_undecided():
    """One draw at B4 [3,1^6] fails its solve at an E of lower rank: that proves
    nothing, so the oracle raises instead of rejecting; two draws accept."""
    t = SimpleType("B", 4)
    model = build_chevalley(t)
    d = diagram_of_partition(t, (3, 1, 1, 1, 1, 1, 1)).diagram
    with pytest.raises(ValueError, match=r"undecided on B4 \[2, 0, 0, 0\].* in 1 trials; allow more trials"):
        is_characteristic(model, d, trials=1)
    ok, witness = is_characteristic(model, d, trials=2)
    assert ok and witness is not None
