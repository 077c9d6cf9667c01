"""The package's immutable records: construction by position and by keyword,
structural equality and hashing, immutability, `repr`, the order of the two
sortable records, and the exact messages of the five validating ones."""

import re
from fractions import Fraction as Q

import pytest

from orbitspan.nilorbits import OrbitDiagram
from orbitspan.pairs import SymmetricPairEntry
from orbitspan.rational import RationalSubspace
from orbitspan.rootcore import DiagramInvolution, RootSystemData, SimpleType, WeightedDiagram
from orbitspan.satake import Kind, RealFormLabel, SatakeDiagram
from orbitspan.sl2oracle import TripleWitness
from orbitspan.spanverify import VerificationReport

A2 = SimpleType("A", 2)
D4 = SimpleType("D", 4)
W = WeightedDiagram(A2, (2, 2))
OD = OrbitDiagram("[3]", W)

# (record class, its fields in order, the repr of the record built from them)
CASES = [
    (SimpleType, {"family": "D", "rank": 5}, "SimpleType(family='D', rank=5)"),
    (
        RootSystemData,
        {"simple_type": A2, "cartan_matrix": ((2, -1), (-1, 2)), "positive_roots": ((1, 0), (0, 1), (1, 1))},
        "RootSystemData(simple_type=SimpleType(family='A', rank=2), cartan_matrix=((2, -1), (-1, 2)), "
        "positive_roots=((1, 0), (0, 1), (1, 1)))",
    ),
    (
        WeightedDiagram,
        {"simple_type": A2, "weights": (2, 0)},
        "WeightedDiagram(simple_type=SimpleType(family='A', rank=2), weights=(2, 0))",
    ),
    (
        DiagramInvolution,
        {"simple_type": A2, "permutation": (1, 0)},
        "DiagramInvolution(simple_type=SimpleType(family='A', rank=2), permutation=(1, 0))",
    ),
    (
        OrbitDiagram,
        {"label": "[3]", "diagram": W},
        "OrbitDiagram(label='[3]', diagram=WeightedDiagram(simple_type=SimpleType(family='A', rank=2), weights=(2, 2)))",
    ),
    (RationalSubspace, {"classes": (0, 0, -1)}, "RationalSubspace(classes=(0, 0, -1))"),
    (
        Kind,
        {
            "format": "x({})", "draw": len, "pattern": "x(n)", "constraints": "n >= 1",
            "candidates": abs, "basis": None, "split": None, "finite": ((1,),),
        },
        "Kind(format='x({})', draw=<built-in function len>, pattern='x(n)', constraints='n >= 1', "
        "candidates=<built-in function abs>, basis=None, split=None, finite=((1,),))",
    ),
    (RealFormLabel, {"kind": "su", "params": (4, 2)}, "RealFormLabel(kind='su', params=(4, 2))"),
    (
        SatakeDiagram,
        {"simple_type": A2, "black_nodes": frozenset({1}), "arrows": ()},
        "SatakeDiagram(simple_type=SimpleType(family='A', rank=2), black_nodes=frozenset({1}), arrows=())",
    ),
    (
        VerificationReport,
        {
            "label": RealFormLabel("sl", (3,)), "simple_type": A2, "matching_orbits": (OD,), "dim_b": 1,
            "dim_span": 1, "theorem_holds": True, "greedy_basis": ("[3]",), "easy_inclusion_holds": True,
            "paper_basis_verified": True,
        },
        "VerificationReport(label=RealFormLabel(kind='sl', params=(3,)), "
        "simple_type=SimpleType(family='A', rank=2), matching_orbits=(OrbitDiagram(label='[3]', "
        "diagram=WeightedDiagram(simple_type=SimpleType(family='A', rank=2), weights=(2, 2))),), dim_b=1, "
        "dim_span=1, theorem_holds=True, greedy_basis=('[3]',), easy_inclusion_holds=True, paper_basis_verified=True)",
    ),
    (
        TripleWitness,
        {"h": W, "e": (((1, 0), Q(1)),), "f": (((1, 0), Q(2)),)},
        "TripleWitness(h=WeightedDiagram(simple_type=SimpleType(family='A', rank=2), weights=(2, 2)), "
        "e=(((1, 0), Fraction(1, 1)),), f=(((1, 0), Fraction(2, 1)),))",
    ),
    (
        SymmetricPairEntry,
        {"g": "su(p,q)", "h": ("so(p,q)",), "condition": ""},
        "SymmetricPairEntry(g='su(p,q)', h=('so(p,q)',), condition='')",
    ),
]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=[case[0].__name__ for case in CASES])
def test_record_semantics(cls, fields, text):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
    assert not by_position != by_keyword
    assert [getattr(by_keyword, name) for name in fields] == list(fields.values())
    assert repr(by_keyword) == text
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, value)
    with pytest.raises(AttributeError):
        by_keyword.extra = 1


def test_records_differ_when_a_field_differs():
    assert SimpleType("A", 3) != SimpleType("A", 4)
    assert WeightedDiagram(A2, (2, 0)) != WeightedDiagram(A2, (0, 2))
    assert RealFormLabel("su", (4, 2)) != RealFormLabel("su", (5, 1))
    assert len({SimpleType("A", 3), SimpleType("A", 3), SimpleType("B", 3)}) == 2


def test_defaults():
    assert RealFormLabel("e6C") == RealFormLabel("e6C", ())
    kind = Kind("y", len, "y")
    assert (kind.constraints, kind.basis, kind.split, kind.finite) == ("", None, None, None)
    assert kind.candidates(1, 2) is None


def test_order_and_str():
    types = [SimpleType("D", 4), SimpleType("A", 10), SimpleType("A", 2), SimpleType("C", 3)]
    assert sorted(types) == [SimpleType("A", 2), SimpleType("A", 10), SimpleType("C", 3), SimpleType("D", 4)]
    assert SimpleType("A", 2) < SimpleType("A", 3) <= SimpleType("B", 2) and SimpleType("G", 2) > SimpleType("F", 4)
    assert str(SimpleType("E", 7)) == "E7" and f"{D4}" == "D4"
    texts = ["su(4,2)", "e6C", "sl(5,R)", "e6(-14)", "su(3,3)", "e6(-26)"]
    labels = [RealFormLabel("su", (4, 2)), RealFormLabel("e6C"), RealFormLabel("sl", (5,)), RealFormLabel("e6", (-14,))]
    labels += [RealFormLabel("su", (3, 3)), RealFormLabel("e6", (-26,))]
    assert [str(label) for label in labels] == texts
    order = ["e6(-26)", "e6(-14)", "e6C", "sl(5,R)", "su(3,3)", "su(4,2)"]
    assert [str(label) for label in sorted(labels)] == order
    assert RealFormLabel("su", (3, 3)) < RealFormLabel("su", (4, 2))
    assert not RealFormLabel("sl", (5,)) > RealFormLabel("su", (1, 1))


def _raises(message: str):
    return pytest.raises(ValueError, match="^" + re.escape(message) + "$")


def test_simple_type_messages():
    with _raises("unknown family 'X'; expected one of ('A', 'B', 'C', 'D', 'E', 'F', 'G')"):
        SimpleType("X", 3)
    for family, rank, message in [
        ("A", 0, "A_0 is not supported"),
        ("B", 1, "B_1 is not supported (B_1 is excluded; use A_1)"),
        ("B", 0, "B_0 is not supported"),
        ("C", 1, "C_1 is not supported (C_1 is excluded; use A_1)"),
        ("D", 3, "D_3 is not supported (D_3 is excluded; use A_3)"),
        ("D", 2, "D_2 is not supported (D_2 is not simple)"),
        ("D", 1, "D_1 is not supported"),
        ("E", 5, "E_5 does not exist; rank must be 6, 7 or 8"),
        ("F", 3, "F family has rank 4 only"),
        ("G", 3, "G family has rank 2 only"),
    ]:
        with _raises(message):
            SimpleType(family, rank)
        with _raises(message):
            SimpleType(family=family, rank=rank)


def test_weighted_diagram_normalises_and_checks():
    d = WeightedDiagram(A2, (Q(4, 2), 0))
    assert d.weights == (2, 0) and type(d.weights[0]) is int and d == WeightedDiagram(A2, (2, 0))
    assert hash(d) == hash(WeightedDiagram(A2, (2, 0)))
    assert WeightedDiagram(A2, [1, 1]).weights == (1, 1)
    assert WeightedDiagram(A2, iter([Q(2), Q(0)])).weights == (2, 0)
    assert repr(WeightedDiagram(simple_type=A2, weights=[Q(2), 1])) == repr(WeightedDiagram(A2, (2, 1)))
    with _raises("weight count does not match rank"):
        WeightedDiagram(A2, (1,))
    with _raises("diagram weights must be integers; got (Fraction(1, 2), 0)"):
        WeightedDiagram(A2, (Q(1, 2), 0))
    with _raises("diagram weights must be integers; got (2.0, 0)"):
        WeightedDiagram(A2, [2.0, 0])


def test_diagram_involution_messages():
    assert DiagramInvolution(A2, (0, 1)).permutation == (0, 1)
    with _raises("not a permutation of the nodes"):
        DiagramInvolution(A2, (0, 0))
    with _raises("not a permutation of the nodes"):
        DiagramInvolution(A2, (0, 1, 2))
    with _raises("permutation is not an involution"):
        DiagramInvolution(SimpleType("A", 3), (1, 2, 0))
    with _raises("permutation does not preserve the Cartan matrix"):
        DiagramInvolution(SimpleType("A", 3), (1, 0, 2))
    assert DiagramInvolution(D4, (0, 1, 3, 2)).permutation == (0, 1, 3, 2)


def test_orbit_diagram_messages():
    with _raises("orbit diagram weights must be 0, 1 or 2; got 3"):
        OrbitDiagram("x", WeightedDiagram(A2, (0, 3)))
    with _raises("orbit diagram weights must be 0, 1 or 2; got -1"):
        OrbitDiagram(label="x", diagram=WeightedDiagram(A2, (Q(-1), 0)))


def test_satake_diagram_messages():
    a3 = SimpleType("A", 3)
    for black, arrows, message in [
        ({3}, (), "black node out of range"),
        ({-1}, (), "black node out of range"),
        ((), ((0, 0),), "arrow must join two distinct nodes"),
        ((), ((0, 3),), "arrow must join two distinct nodes"),
        ({1}, ((0, 1),), "arrows join only white nodes"),
        ((), ((0, 2), (2, 1)), "arrow relation must be fixed-point-free on its support"),
    ]:
        with _raises(message):
            SatakeDiagram(a3, frozenset(black), arrows)
    assert SatakeDiagram(a3, frozenset({1}), ((0, 2),)).to_json() == {
        "type": "A", "rank": 3, "black": [2], "arrows": [[1, 3]]
    }
