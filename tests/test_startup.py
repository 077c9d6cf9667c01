"""Start-up stays lean: every command pays for the modules `orbitspan.cli`
imports, so those imports leave out `dataclasses` (which compiles `inspect`,
`ast` and `dis` in a process without a bytecode cache) and the modules of the
commands that need them, `pairs` and the sl2 oracle.  Checked in a fresh
interpreter, since the test runner has loaded all of them already."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ["dataclasses", "inspect", "ast", "dis"]

PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
for name in sys.argv[2].split(","):
    __import__(name)
out = {"loaded": sorted(set(sys.modules) - before), "runs": []}
if sys.argv[3] == "cli":
    from orbitspan.cli import main
    for argv in (["pairs", "--g", "su(4,2)", "--h", "sp(2,1)"], ["orbits", "g2(2)", "--oracle", "--format", "json"]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        out["runs"].append([code, buf.getvalue()])
    out["after"] = [name for name in ("orbitspan.pairs", "orbitspan.sl2oracle") if name in sys.modules]
print(json.dumps(out))
"""


def _probe(modules: str, run: str = "") -> dict:
    proc = subprocess.run(
        [sys.executable, "-B", "-c", PROBE, str(SRC), modules, run], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


def test_cli_import_loads_no_dataclasses_nor_unused_commands():
    found = _probe("orbitspan.cli", "cli")
    assert "orbitspan.cli" in found["loaded"]
    unwanted = HEAVY + ["orbitspan.pairs", "orbitspan.sl2oracle"]
    assert [name for name in unwanted if name in found["loaded"]] == []
    (pairs_code, pairs_out), (orbits_code, orbits_out) = found["runs"]
    assert pairs_code == 0 and pairs_out.startswith("su(2p,2q)  |  sp(p,q)")
    assert orbits_code == 0 and all("witness" in od for od in json.loads(orbits_out)["orbits"])
    assert found["after"] == ["orbitspan.pairs", "orbitspan.sl2oracle"]


def test_oracle_import_loads_no_dataclasses():
    found = _probe("orbitspan.rootcore,orbitspan.sl2oracle")
    assert "orbitspan.sl2oracle" in found["loaded"]
    assert [name for name in ("dataclasses", "inspect") if name in found["loaded"]] == []
