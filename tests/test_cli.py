"""CLI behaviour: exit codes, formats and determinism."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import orbitspan
from orbitspan import cli
from orbitspan.cli import _orbit_json, _write_listing, main
from orbitspan.nilorbits import exceptional_table
from orbitspan.rootcore import SimpleType
from orbitspan.satake import LabelError, catalog_labels, parse_label, underlying_type
from orbitspan.spanverify import h_n_a_plus, verify_theorem


def run_cli(args):
    src = os.path.dirname(os.path.dirname(orbitspan.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "orbitspan.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_forms_lists_patterns(capsys):
    assert main(["forms"]) == 0
    out = capsys.readouterr().out
    assert "g2(2)" in out and "su(p,q)" in out
    assert main(["forms", "su"]) == 0
    filtered = capsys.readouterr().out
    assert "su*(2k)" in filtered and "g2(2)" not in filtered


# sha256 of `forms` stdout in both formats, the reference bytes the kind records must keep
FORMS_DIGESTS = {
    "text": "9be8684f42fde210eceecd6c3c4d92f8e5bba4abc82e11ea73e5e642f0f0b826",
    "json": "5bfb1065e86a0947ae79218ffd01511aacc78a98362bd7869385368a1e637b8f",
}


def test_forms_reference_bytes(capsys):
    for fmt, digest in FORMS_DIGESTS.items():
        assert main(["forms", "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, fmt


def _accepted_params(fmt, scan):
    """The canonical parameters of every label written by the format with arguments from the scan
    that the catalog accepts."""
    found = set()
    for args in itertools.product(scan, repeat=fmt.count("{}")):
        try:
            found.add(parse_label(fmt.format(*args)).params)
        except LabelError:
            pass
    return found


def test_forms_constraints_state_the_least_accepted_parameters(capsys):
    """Each classical and complex row of `forms` states the bounds the catalog
    enforces: scanning the parameters 0-12, the least accepted label of each
    pattern is the one its constraint names."""
    assert main(["forms", "--format", "json"]) == 0
    stated = {row["pattern"]: row["constraints"] for row in json.loads(capsys.readouterr().out)}
    scan = range(13)
    least = {  # pattern -> (label format, the bound its constraint opens with, least accepted parameters)
        "sl(n,R)": ("sl({},R)", "n >= 2", (2,)),
        "su*(2k)": ("su*({})", "k >= 2", (4,)),
        "su(p,q)": ("su({},{})", "p >= q >= 1, p+q >= 2", (1, 1)),
        "so(p,q)": ("so({},{})", "p >= q >= 1", (3, 2)),
        "sp(l,R)": ("sp({},R)", "l >= 1", (1,)),
        "sp(p,q)": ("sp({},{})", "p >= q >= 1", (1, 1)),
        "so*(2n)": ("so*({})", "n >= 4", (8,)),
        "slC(n)": ("slC({})", "n >= 2", (2,)),
        "soC(n)": ("soC({})", "n >= 5", (5,)),
        "spC(l)": ("spC({})", "l >= 2", (2,)),
    }
    accepted = {pattern: _accepted_params(fmt, scan) for pattern, (fmt, _, _) in least.items()}
    for pattern, (_, bound, params) in least.items():
        assert stated[pattern].startswith(bound), pattern
        assert min(accepted[pattern], key=lambda ps: (sum(ps), ps)) == params, pattern
        if len(params) == 2:  # "p >= q >= 1": the least accepted q
            assert min(q for _, q in accepted[pattern]) == 1, pattern
    sums = {sum(ps) for ps in accepted["so(p,q)"]}
    assert "p+q odd >= 5 or even >= 8" in stated["so(p,q)"]
    assert (min(n for n in sums if n % 2), min(n for n in sums if n % 2 == 0)) == (5, 8)
    assert "n != 6" in stated["soC(n)"]
    assert {(5,), (7,)} <= accepted["soC(n)"] and (6,) not in accepted["soC(n)"]
    classical_or_complex = {pattern for pattern, text in stated.items() if text and "exceptional" not in text}
    assert classical_or_complex == least.keys()


def test_verify_specific_labels(capsys):
    assert main(["verify", "g2(2)", "f4(-20)"]) == 0
    out = capsys.readouterr().out
    assert "dim_b=2 dim_span=2" in out
    assert out.count(" ok") == 2


def test_verify_json_schema(capsys):
    assert main(["verify", "e6(-26)", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["label"] == "e6(-26)"
    assert record["theorem_holds"] is True
    assert record["easy_inclusion"] is True
    assert record["paper_basis_verified"] is True
    assert record["basis"] == ["2A_1"]


def test_unknown_label_is_usage_error():
    code, out, err = run_cli(["verify", "zz(1)"])
    assert code == 2
    assert "error:" in err
    code2, _, err2 = run_cli(["orbits", "so(2,2)"])
    assert code2 == 2
    assert "sl(2,R)" in err2  # alias diagnostic


def test_second_parameter_on_a_one_parameter_kind_is_usage_error():
    code, out, err = run_cli(["verify", "su*(4,2)"])
    assert (code, out) == (2, "")
    assert "cannot parse label" in err


def test_orbits_text_and_json(capsys):
    assert main(["orbits", "f4(-20)"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("0")
    assert main(["orbits", "sl(3,R)", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 2
    assert len(payload["orbits"]) == 3  # partitions of 3
    assert {"label", "weights"} <= set(payload["orbits"][0])


def test_verbose_verify_includes_matching_diagrams(capsys):
    assert main(["verify", "f4(-20)", "--format", "json", "--verbose"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert [od["weights"] for od in record["orbits"]] == [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 2]]
    assert main(["verify", "f4(-20)", "--format", "json"]) == 0
    assert "orbits" not in json.loads(capsys.readouterr().out)


def test_orbits_oracle_witnesses(capsys):
    assert main(["orbits", "g2(2)", "--oracle", "--trials", "5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all("witness" in od for od in payload["orbits"])
    principal = next(od for od in payload["orbits"] if od["label"] == "G_2")
    assert principal["witness"]["H"] == [2, 2]
    assert principal["witness"]["E"]  # nonzero nilpotent side


def test_oracle_trials_below_one_is_usage_error(capsys):
    for value in ("0", "-3"):
        assert main(["orbits", "f4(4)", "--oracle", "--trials", value]) == 2
        assert "--trials must be at least 1" in capsys.readouterr().err


def test_undecided_oracle_query_is_usage_error(capsys):
    assert main(["orbits", "so(5,4)", "--oracle", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: oracle undecided on B4 [2, 0, 0, 0]: no E with an open G_0-orbit in 1 trials; allow more trials\n"
    )


def test_orbits_contains_zero_orbit(capsys):
    assert main(["orbits", "e7(-5)", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert any(all(w == 0 for w in od["weights"]) for od in payload["orbits"])


def test_render_dot_and_json(capsys, tmp_path):
    assert main(["render", "su(4,4)"]) == 0
    dot = capsys.readouterr().out
    assert dot.count("style=dashed") == 3
    assert dot.startswith('graph "su(4,4)"')
    out_file = tmp_path / "d.json"
    assert main(["render", "su*(6)", "--format", "json", "--out", str(out_file)]) == 0
    data = json.loads(out_file.read_text())
    assert data == {"type": "A", "rank": 5, "black": [1, 3, 5], "arrows": []}


def test_pairs_queries(capsys):
    assert main(["pairs", "--g", "su(4,2)", "--h", "sp(2,1)"]) == 0
    assert "su(2p,2q)" in capsys.readouterr().out
    assert main(["pairs", "--g", "sl(4,R)", "--h", "so(2,2)"]) == 1
    capsys.readouterr()
    assert main(["pairs", "--g", "e8(8)"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert main(["pairs"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 45
    assert main(["pairs", "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("g,h,condition")


def test_pairs_csv_keeps_to_g_and_h(capsys):
    assert main(["pairs", "--g", "e8(8)", "--format", "csv"]) == 0
    assert capsys.readouterr().out == 'g,h,condition\n"e8(8)","e7(-5) + su(2)",""\n"e8(8)","so*(16)",""\n'
    assert main(["pairs", "--g", "su(4,2)", "--h", "sp(2,1)", "--format", "csv"]) == 0
    assert capsys.readouterr().out == 'g,h,condition\n"su(2p,2q)","sp(p,q)",""\n'
    assert main(["pairs", "--g", "sl(4,R)", "--h", "so(2,2)", "--format", "csv"]) == 1
    assert capsys.readouterr().out == "g,h,condition\n"


def test_pairs_pattern_symbol_is_usage_error():
    code, out, err = run_cli(["pairs", "--g", "so(2k,C)"])
    assert (code, out) == (2, "")
    assert err == "error: cannot parse algebra symbol 'so(2k,C)'\n"


def test_pairs_h_without_g_is_usage_error(capsys):
    assert main(["pairs", "--h", "sp(2,1)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--h needs --g" in captured.err


def test_empty_pairs_symbol_is_parsed_not_dropped(capsys):
    for argv in (["--g", "sl(4,R)", "--h", ""], ["--g", ""], ["--g", "", "--h", "sp(2,1)"]):
        assert main(["pairs", *argv]) == 2
        assert capsys.readouterr() == ("", "error: cannot parse algebra symbol ''\n")
    assert main(["pairs", "--h", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--h needs --g" in captured.err


def test_pairs_for_symbol_out_of_domain_prints_the_empty_list(capsys):
    for fmt in ("text", "json", "csv"):
        assert main(["pairs", "--g", "g2(2)", "--format", fmt]) == 0
        empty = capsys.readouterr()
        for symbol in ("su(4,0)", "sp(1,R)", "sl(0,R)"):
            assert main(["pairs", "--g", symbol, "--format", fmt]) == 0
            assert capsys.readouterr() == empty, (symbol, fmt)


def test_verify_labels_with_all_is_usage_error():
    code, out, err = run_cli(["verify", "sl(2,R)", "--all"])
    assert (code, out, err) == (2, "", "error: pass labels or --all, not both\n")


def test_unwritable_out_is_usage_error(tmp_path):
    for target in (tmp_path / "missing" / "x", tmp_path):
        code, out, err = run_cli(["verify", "sl(2,R)", "--out", str(target)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}") and "Traceback" not in err


# `orbits --oracle --format json` bytes, as produced when weights were Fractions and the structure
# constants recursive `Fraction`s; sp(3,R) and so(5,4) pin the rescaling between two root lengths
ORACLE_JSON = {
    "sl(3,R)": '{"label":"sl(3,R)","orbits":[{"label":"[3]","weights":[2,2],"witness":{"E":{"0,1":"1","1,0":"-3"},'
    '"F":{"-1,0":"-2/3","0,-1":"2"},"H":[2,2]}},{"label":"[2,1]","weights":[1,1],"witness":{"E":{"1,1":"2"},'
    '"F":{"-1,-1":"1/2"},"H":[1,1]}},{"label":"[1^3]","weights":[0,0],"witness":{"E":{},"F":{},"H":[0,0]}}],'
    '"rank":2,"type":"A"}\n',
    "g2(2)": '{"label":"g2(2)","orbits":[{"label":"0","weights":[0,0],"witness":{"E":{},"F":{},"H":[0,0]}},'
    '{"label":"A_1","weights":[1,0],"witness":{"E":{"2,3":"-2"},"F":{"-2,-3":"-1/2"},"H":[1,0]}},'
    '{"label":"\\u00c3_1","weights":[0,1],"witness":{"E":{"1,2":"1"},"F":{"-1,-2":"1"},"H":[0,1]}},'
    '{"label":"G_2(a_1)","weights":[2,0],"witness":{"E":{"1,0":"3","1,1":"2","1,2":"-1","1,3":"1"},'
    '"F":{"-1,-1":"18/53","-1,-2":"8/53","-1,-3":"86/53","-1,0":"14/53"},"H":[2,0]}},'
    '{"label":"G_2","weights":[2,2],"witness":{"E":{"0,1":"-1","1,0":"-1"},"F":{"-1,0":"-10","0,-1":"-6"},'
    '"H":[2,2]}}],"rank":2,"type":"G"}\n',
    "sp(3,R)": '{"label":"sp(3,R)","orbits":[{"label":"[6]","weights":[2,2,2],"witness":{"E":{"0,0,1":"-2",'
    '"0,1,0":"1","1,0,0":"-2"},"F":{"-1,0,0":"-5/2","0,-1,0":"8","0,0,-1":"-9/2"},"H":[2,2,2]}},{"label":"[4,2]",'
    '"weights":[2,0,2],"witness":{"E":{"0,0,1":"2","0,1,1":"2","0,2,1":"3","1,0,0":"-3","1,1,0":"3"},'
    '"F":{"-1,0,0":"-1","0,-1,-1":"4/5","0,-2,-1":"4/5","0,0,-1":"-3/10"},"H":[2,0,2]}},{"label":"[4,1^2]",'
    '"weights":[2,1,0],"witness":{"E":{"0,2,1":"-3","1,0,0":"3"},"F":{"-1,0,0":"1","0,-2,-1":"-4/3"},'
    '"H":[2,1,0]}},{"label":"[3^2]","weights":[0,2,0],"witness":{"E":{"0,1,0":"1","0,1,1":"-2","1,1,0":"2",'
    '"1,1,1":"-1"},"F":{"-1,-1,-1":"2/3","-1,-1,0":"4/3","0,-1,-1":"-4/3","0,-1,0":"-2/3"},"H":[0,2,0]}},'
    '{"label":"[2^3]","weights":[0,0,2],"witness":{"E":{"0,0,1":"-3","0,1,1":"-1","0,2,1":"-2","1,1,1":"2",'
    '"1,2,1":"-1","2,2,1":"-1"},"F":{"-1,-1,-1":"5/2","-1,-2,-1":"1/2","-2,-2,-1":"7/2","0,-1,-1":"-1/2",'
    '"0,-2,-1":"-1/2","0,0,-1":"3/2"},"H":[0,0,2]}},{"label":"[2^2,1^2]","weights":[0,1,0],'
    '"witness":{"E":{"0,2,1":"-3","1,2,1":"1","2,2,1":"1"},"F":{"-1,-2,-1":"-1/2","-2,-2,-1":"3/2",'
    '"0,-2,-1":"-1/2"},"H":[0,1,0]}},{"label":"[2,1^4]","weights":[1,0,0],"witness":{"E":{"2,2,1":"2"},'
    '"F":{"-2,-2,-1":"1/2"},"H":[1,0,0]}},{"label":"[1^6]","weights":[0,0,0],"witness":{"E":{},"F":{},'
    '"H":[0,0,0]}}],"rank":3,"type":"C"}\n',
    "so(5,4)": '{"label":"so(5,4)","orbits":[{"label":"[9]","weights":[2,2,2,2],'
    '"witness":{"E":{"0,0,0,1":"-3","0,0,1,0":"-2","0,1,0,0":"-3","1,0,0,0":"1"},"F":{"-1,0,0,0":"8",'
    '"0,-1,0,0":"-14/3","0,0,-1,0":"-9","0,0,0,-1":"-10/3"},"H":[2,2,2,2]}},{"label":"[7,1^2]",'
    '"weights":[2,2,2,0],"witness":{"E":{"0,0,1,0":"-3","0,0,1,1":"-1","0,0,1,2":"-1","0,1,0,0":"1",'
    '"1,0,0,0":"2"},"F":{"-1,0,0,0":"3","0,-1,0,0":"10","0,0,-1,-1":"3","0,0,-1,-2":"-9","0,0,-1,0":"-3"},'
    '"H":[2,2,2,0]}},{"label":"[5,3,1]","weights":[2,0,2,0],"witness":{"E":{"0,0,1,0":"3","0,0,1,1":"-1",'
    '"0,0,1,2":"3","0,1,1,0":"-3","0,1,1,1":"2","0,1,1,2":"-2","1,0,0,0":"-3","1,1,0,0":"2"},'
    '"F":{"-1,-1,0,0":"65/58","-1,0,0,0":"-17/29","0,-1,-1,-1":"178/551","0,-1,-1,-2":"-275/1102",'
    '"0,-1,-1,0":"-1084/1653","0,0,-1,-1":"500/551","0,0,-1,-2":"691/551","0,0,-1,0":"1264/1653"},'
    '"H":[2,0,2,0]}},{"label":"[5,2^2]","weights":[2,1,0,1],"witness":{"E":{"0,0,1,2":"-1","0,1,1,1":"-3",'
    '"1,0,0,0":"1"},"F":{"-1,0,0,0":"4","0,-1,-1,-1":"-1","0,0,-1,-2":"-1"},"H":[2,1,0,1]}},{"label":"[5,1^4]",'
    '"weights":[2,2,0,0],"witness":{"E":{"0,1,0,0":"1","0,1,1,0":"2","0,1,1,1":"1","0,1,1,2":"3","0,1,2,2":"-1",'
    '"1,0,0,0":"-1"},"F":{"-1,0,0,0":"-4","0,-1,-1,-1":"-1/2","0,-1,-1,-2":"1","0,-1,-1,0":"3/2",'
    '"0,-1,-2,-2":"-1/2","0,-1,0,0":"1/2"},"H":[2,2,0,0]}},{"label":"[4^2,1]","weights":[0,2,0,1],'
    '"witness":{"E":{"0,0,1,2":"1","0,1,0,0":"3","0,1,1,0":"1","1,1,0,0":"-1","1,1,1,0":"-3"},'
    '"F":{"-1,-1,-1,0":"-9/8","-1,-1,0,0":"3/8","0,-1,-1,0":"-3/8","0,-1,0,0":"9/8","0,0,-1,-2":"4"},'
    '"H":[0,2,0,1]}},{"label":"[3^3]","weights":[0,0,2,0],"witness":{"E":{"0,0,1,0":"-2","0,0,1,1":"-2",'
    '"0,0,1,2":"3","0,1,1,0":"1","0,1,1,1":"-1","0,1,1,2":"-1","1,1,1,0":"-2","1,1,1,1":"-2","1,1,1,2":"-1"},'
    '"F":{"-1,-1,-1,-1":"-1/16","-1,-1,-1,-2":"-1/2","-1,-1,-1,0":"-5/8","0,-1,-1,-1":"-1/2","0,-1,-1,0":"1",'
    '"0,0,-1,-1":"-3/16","0,0,-1,-2":"1/2","0,0,-1,0":"1/8"},"H":[0,0,2,0]}},{"label":"[3^2,1^3]",'
    '"weights":[0,2,0,0],"witness":{"E":{"0,1,0,0":"-2","0,1,1,0":"3","0,1,1,1":"-1","0,1,1,2":"-3",'
    '"0,1,2,2":"3","1,1,0,0":"-2","1,1,1,0":"-1","1,1,1,1":"-1","1,1,1,2":"-2","1,1,2,2":"3"},'
    '"F":{"-1,-1,-1,-1":"30/161","-1,-1,-1,-2":"26/161","-1,-1,-1,0":"-74/161","-1,-1,-2,-2":"60/161",'
    '"-1,-1,0,0":"-90/161","0,-1,-1,-1":"-2/23","0,-1,-1,-2":"-14/23","0,-1,-1,0":"8/23","0,-1,-2,-2":"-4/23",'
    '"0,-1,0,0":"6/23"},"H":[0,2,0,0]}},{"label":"[3,2^2,1^2]","weights":[1,0,1,0],'
    '"witness":{"E":{"0,1,2,2":"-1","1,1,1,0":"-2","1,1,1,1":"-3","1,1,1,2":"3"},"F":{"-1,-1,-1,-1":"-1/5",'
    '"-1,-1,-1,-2":"2/15","-1,-1,-1,0":"-1/5","0,-1,-2,-2":"-1"},"H":[1,0,1,0]}},{"label":"[3,1^6]",'
    '"weights":[2,0,0,0],"witness":{"E":{"1,0,0,0":"1","1,1,0,0":"-2","1,1,1,0":"1","1,1,1,1":"-3","1,1,1,2":"2",'
    '"1,1,2,2":"1","1,2,2,2":"1"},"F":{"-1,-1,-1,-1":"-3/4","-1,-1,-1,-2":"-1/4","-1,-1,-1,0":"-1/2",'
    '"-1,-1,-2,-2":"-1/2","-1,-1,0,0":"1/4","-1,-2,-2,-2":"-1/4","-1,0,0,0":"-1/4"},"H":[2,0,0,0]}},'
    '{"label":"[2^4,1]","weights":[0,0,0,1],"witness":{"E":{"0,0,1,2":"-1","0,1,1,2":"-2","0,1,2,2":"1",'
    '"1,1,1,2":"-3","1,1,2,2":"-1","1,2,2,2":"3"},"F":{"-1,-1,-1,-2":"-1/2","-1,-1,-2,-2":"-1",'
    '"-1,-2,-2,-2":"-1/2","0,-1,-1,-2":"-1/2","0,-1,-2,-2":"3/2","0,0,-1,-2":"3/2"},"H":[0,0,0,1]}},'
    '{"label":"[2^2,1^5]","weights":[0,1,0,0],"witness":{"E":{"1,2,2,2":"-1"},"F":{"-1,-2,-2,-2":"-1"},'
    '"H":[0,1,0,0]}},{"label":"[1^9]","weights":[0,0,0,0],"witness":{"E":{},"F":{},"H":[0,0,0,0]}}],"rank":4,'
    '"type":"B"}\n',
}


def test_oracle_json_bytes_unchanged_by_integer_weights(capsys):
    for label, expected in ORACLE_JSON.items():
        assert main(["orbits", label, "--oracle", "--format", "json"]) == 0
        assert capsys.readouterr().out == expected


def test_oracle_over_rank_8_is_refused_before_any_model_is_built(monkeypatch, capsys):
    from orbitspan import sl2oracle

    def no_model(t):
        raise AssertionError(f"built a model of {t}")

    monkeypatch.setattr(sl2oracle, "_cached_model", no_model)
    for label, rank in (("su(120,1)", 120), ("sl(12,R)", 11)):
        assert main(["orbits", label, "--oracle"]) == 2
        assert capsys.readouterr() == ("", f"error: rank {rank} exceeds the oracle bound max_rank=8\n")


def test_verify_all_small_bound_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--all", "--bound", "3", "--format", "json", "--out", str(f1)]) == 0
    assert main(["verify", "--all", "--bound", "3", "--format", "json", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    records = [json.loads(line) for line in f1.read_text().splitlines()]
    labels = [r["label"] for r in records]
    assert labels == sorted(labels)
    assert all(r["theorem_holds"] for r in records)


def test_bound_below_two_is_usage_error():
    code, _, err = run_cli(["verify", "--all", "--bound", "1"])
    assert code == 2
    assert "rank bound" in err


def test_inputs_over_the_rank_cap_are_usage_errors():
    code, out, err = run_cli(["verify", "su(100000000,1)"])
    assert (code, out) == (2, "")
    assert "rank 100000000 is over the cap" in err
    code, out, err = run_cli(["verify", "--all", "--bound", "999999999999"])
    assert (code, out) == (2, "")
    assert "rank bound must be between 2 and" in err


def test_candidate_lists_over_the_cap_are_usage_errors(capsys):
    for argv in (["sl(200,R)"], ["so(500,500)"], ["so*(2000)"], ["spC(1000)"], ["su(480,20)"]):
        assert main(["verify", *argv]) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "candidate orbits; candidates x rank is capped at" in err, argv
    # each report is written as it is made, so the 18 labels before sl(100,R) are printed before the error
    before = [str(label) for label in catalog_labels(100)[:18]]
    assert main(["verify", *before]) == 0
    reports = capsys.readouterr().out
    assert len(reports.splitlines()) == 18
    assert main(["verify", "--all", "--bound", "100"]) == 2
    out, err = capsys.readouterr()
    assert out == reports
    assert err.startswith("error: sl(100,R): A99 has over") and "candidates x rank is capped at" in err


def test_unwritable_out_is_reported_before_any_label_is_verified(monkeypatch, capsys, tmp_path):
    def unreachable(label):
        raise AssertionError(f"{label} verified before --out was opened")

    monkeypatch.setattr(cli, "verify_theorem", unreachable)
    target = tmp_path / "missing" / "x"
    assert main(["verify", "--all", "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}")


def test_bound_without_all_is_usage_error(capsys):
    for bound in ("30", "0"):
        assert main(["verify", "sl(4,R)", "--bound", bound]) == 2
        assert capsys.readouterr() == ("", "error: --bound needs --all: it bounds the ranks of the catalog\n")


# sha256 of `verify --all --bound 12 --verbose` stdout in two formats, the
# reference behaviour that refactors must keep byte for byte
REFERENCE_DIGESTS = {
    "json": "3bceb3d7c63e8930cce0bda6b3f154950f1f0d31d28133a188572cec7d894056",
    "text": "e72764d173a0a3fff085db99739a5b5013d2eaaf14a80f1f7bb2642a9a986968",
}


def test_bound_12_reference_bytes(capsys):
    for fmt, digest in REFERENCE_DIGESTS.items():
        assert main(["verify", "--all", "--bound", "12", "--format", fmt, "--verbose"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, fmt


# sha256 of `verify LABEL --format json --verbose` stdout for large single
# labels: split forms, whose greedy grows with rank, and rank-one forms, which
# enumerate tens of thousands of partitions
LADDER_DIGESTS = {
    "sl(20,R)": "21600ec4af2e178d7b1e772a240880497364301ffa5b06189d2e3407f0d9e65e",
    "sl(24,R)": "22bee6175df1bc15690814523b1cb8bcca466b514c6d5e12562bb250554abdd4",
    "sl(26,R)": "292133ddf5745c7bb86eafb0a117b25eb0b66f200cb4e81cc671679fbeecf5ec",
    "sp(14,R)": "ecc30b7a96440c8b0216880c5c712edd5070c5f6e0ec1eaf156304c0b27f306d",
    "so(14,14)": "3b5c698a8861fa779181fa2c347c24303d3b2c76b74864c140b31126f4680bc2",
    "su(31,1)": "129dc7041c061c0933fdd19e46b61c7c84b1ef7299757e61d2f94f07ee4bbf2c",
    "su(35,1)": "a8637b22468ddaa09ec28fa458a212aff4b26467b5b784f22bdaf34b103f35f8",
    "so(34,1)": "75100c6375098855293c7a678b0017646317c81938885dfba0678cbd37624380",
    "sp(18,1)": "7b8e035b7874ce689021d6eb9134d60e37cea60ea35192d3178781d26a997abb",
}


def test_ladder_reference_bytes(capsys):
    for label, digest in LADDER_DIGESTS.items():
        assert main(["verify", label, "--format", "json", "--verbose"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, label


def test_failed_verification_exits_one(monkeypatch, capsys, tmp_path):
    real = cli.verify_theorem
    monkeypatch.setattr(cli, "verify_theorem", lambda label: real(label)._replace(theorem_holds=False))
    assert main(["verify", "g2(2)"]) == 1
    assert capsys.readouterr().out.rstrip("\n").endswith("FAILED")
    out_file = tmp_path / "r.json"
    assert main(["verify", "g2(2)", "--format", "json", "--out", str(out_file)]) == 1
    record = json.loads(out_file.read_text())
    assert record["label"] == "g2(2)" and record["theorem_holds"] is False


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def orbit_record(od):
    """An orbit's record as the listings once built it, a dict encoded by `_dumps`."""
    return {"label": od.label, "weights": list(od.diagram.weights)}


def test_orbit_json_equals_the_encoded_record():
    orbits = [od for label in catalog_labels(12) for od in h_n_a_plus(label)]
    for family, rank in (("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)):
        orbits.extend(exceptional_table(SimpleType(family, rank)))
    assert len(orbits) > 17_000
    for od in orbits:
        assert _orbit_json(od) == _dumps(orbit_record(od)), od


# g2(2) escapes its label \u00c3_1; so(4,4) and so(8,8) carry _I/_II tags;
# sl(26,R) lists 2,436 orbits, ten batches
LISTED = ("g2(2)", "so(4,4)", "so(8,8)", "sl(26,R)")


def test_listings_equal_the_encoded_payloads(capsys):
    for text in LISTED:
        label = parse_label(text)
        t, matching = underlying_type(label), h_n_a_plus(label)
        payload = {"label": text, "type": t.family, "rank": t.rank, "orbits": [orbit_record(od) for od in matching]}
        assert main(["orbits", text, "--format", "json"]) == 0
        assert capsys.readouterr().out == _dumps(payload) + "\n", text
        width = max(len(od.label) for od in matching)
        lines = [f"{od.label:{width}s}  " + " ".join(str(w) for w in od.diagram.weights) for od in matching]
        assert main(["orbits", text]) == 0
        assert capsys.readouterr().out == "\n".join(lines) + "\n", text
        report = verify_theorem(label)
        record = {**report.to_json(), "orbits": [orbit_record(od) for od in matching]}
        assert main(["verify", text, "--format", "json", "--verbose"]) == 0
        assert capsys.readouterr().out == _dumps(record) + "\n", text
        assert main(["verify", text]) == 0
        header = capsys.readouterr().out.rstrip("\n")
        lines = [f"    {od.label:16s} " + " ".join(str(w) for w in od.diagram.weights) for od in matching]
        assert main(["verify", text, "--verbose"]) == 0
        assert capsys.readouterr().out == "\n".join([header, *lines]) + "\n", text


def test_listing_writes_at_most_one_batch_of_rows(monkeypatch, capsys):
    argvs = (["orbits", "g2(2)"], ["orbits", "g2(2)", "--format", "json"], ["verify", "so(4,4)", "--verbose"])
    expected = []
    for argv in argvs:
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)
    for batch in (1, 2, 3, 5):
        monkeypatch.setattr(cli, "ORBIT_BATCH", batch)
        for argv, out in zip(argvs, expected):
            assert main(argv) == 0
            assert capsys.readouterr().out == out, (argv, batch)
    monkeypatch.setattr(cli, "ORBIT_BATCH", 2)
    for rows, writes in (("abcde", ["[a,b", ",c,d", ",e]"]), ("abcd", ["[a,b", ",c,d]"]), ("", ["[]"])):
        written = []
        _write_listing(written.append, "[", rows, ",", "]")
        assert written == writes, rows


def test_verbose_report_costs_no_memory(tmp_path):
    """With warm caches, the verbose JSON report of sl(26,R), 213 KB, is
    written with under 1 MB of traced allocations (4.5 MB when the whole
    record was one encoded dict), and so is that of sl(30,R), 2.3 times as
    many orbits (1.7 MB when the whole listing was one joined string)."""
    out = str(tmp_path / "r.json")
    for label in ("sl(26,R)", "sl(30,R)"):
        assert main(["verify", label, "--format", "json", "--out", out]) == 0
        tracemalloc.start()
        try:
            assert main(["verify", label, "--format", "json", "--verbose", "--out", out]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert os.path.getsize(out) > 200_000
        assert peak < 1_000_000, (label, peak)


def test_reader_that_leaves_early_is_not_a_failure():
    src = os.path.dirname(os.path.dirname(orbitspan.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "orbitspan.cli", "verify", "--all", "--bound", "12", "--format", "json", "--verbose"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.read(50).startswith(b'{"basis":')
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE
    assert "Traceback" not in err and "Error" not in err, err
