"""A seeded fuzz of the command line, run in-process.  Every argument list must
end within a per-case alarm, with exit 0 or 2, or 1 only where `pairs` finds
no matching pair, and print no traceback.

The grammar covers the five subcommands and their flags: catalog labels,
malformed and non-ASCII ones, ranks at and over the caps (the rank cap, the
candidate cap and the oracle's rank cap), `pairs` symbol sums, and edge flag
values.  Work that is served but takes seconds is left to the tests that pin
it: labels near the candidate cap such as sl(46,R), and `--all` with a bound
over 12.  The catalog grows with the square of the bound, and at a bound of
400 building it alone takes 10 s (ROADMAP item 23)."""

import random
import signal

import pytest

from orbitspan.cli import main
from orbitspan.satake import catalog_labels
from test_pairs import random_symbol, random_symbol_sum

CASES = 300
ALARM_S = 2

LABELS = [str(label) for label in catalog_labels(4)]
ODD_LABELS = [
    "", " ", "su(", "su(4,2", "su(4,,2)", "su(2,4)", "sl(4)", "sl(4,C)", "xx(3)", "E6", "e9(1)", "e6(7)",
    "su*(7)", "so*(6)", "slC(0)", "soC(6)", "sl(-3,R)", "su(4,-2)", "sp(0,R)", "so(1,1)", "so(2,2)",
    "su(٤,2)", "sl(４,R)", "ｓｌ(4,R)", "é6(6)", "su(4,2)\x00", "sl(" + "9" * 5000 + ",R)", "so(" + "9" * 30 + ",3)",
]
# at the rank cap (1000) and over it, over the candidate cap, and at and over the oracle's rank cap (8)
CAP_LABELS = [
    "su(1000,1)", "sl(1001,R)", "su(1001,1)", "sp(1000,1)", "sl(1002,R)", "soC(2003)",
    "sl(200,R)", "so(500,500)", "so*(2000)", "spC(1000)", "su(480,20)", "sl(9,R)", "so(20,19)",
]


class CaseTimeout(Exception):
    pass


def _label(rng: random.Random) -> str:
    pool = rng.choices([LABELS, ODD_LABELS, CAP_LABELS], weights=[8, 3, 2])[0]
    return rng.choice(pool)


def _flag(rng: random.Random, name: str, values) -> list[str]:
    value = rng.choice(values)
    return [] if value is None else [name, value]


def _case(rng: random.Random, out_dir) -> list[str]:
    command = rng.choices(["forms", "verify", "orbits", "render", "pairs", "frobnicate"], weights=[2, 6, 6, 3, 6, 1])[0]
    argv = [command]
    if command == "forms":
        argv += [rng.choice(["su", "E", "ü", "(", ""])] if rng.random() < 0.5 else []
        argv += _flag(rng, "--format", [None, "text", "json", "csv"])
    elif command == "verify":
        argv += [_label(rng) for _ in range(rng.choice([0, 1, 1, 1, 2, 3]))]
        argv += ["--all"] if rng.random() < 0.2 else []
        argv += _flag(rng, "--bound", [None] * 6 + ["-1", "0", "1", "2", "3", "12", "٣", "1001", "99999999999", "x"])
        argv += _flag(rng, "--format", [None, "text", "json", "json", "dot"])
        argv += ["--verbose"] if rng.random() < 0.3 else []
    elif command == "orbits":
        argv += [_label(rng)] if rng.random() < 0.95 else []
        argv += ["--oracle"] if rng.random() < 0.4 else []
        argv += _flag(rng, "--trials", [None] * 4 + ["-1", "0", "1", "2", "100", "x"])
        argv += _flag(rng, "--format", [None, "text", "json", "json", "csv"])
    elif command == "render":
        argv += [_label(rng)] if rng.random() < 0.95 else []
        argv += _flag(rng, "--format", [None, "dot", "json", "json", "text"])
    elif command == "pairs":
        argv += _flag(rng, "--g", [None, random_symbol(rng), rng.choice(LABELS), "su(4,2)"])
        argv += _flag(rng, "--h", [None, random_symbol_sum(rng), "sp(2,1)", "so(2) ⊕ sl(3,C)"])
        argv += _flag(rng, "--format", [None, "text", "json", "csv", "csv", "json", "dot"])
    else:
        argv += [_label(rng)]
    argv += _flag(rng, "--out", [None] * 8 + ["", str(out_dir / "out.txt"), str(out_dir / "missing" / "out.txt")])
    argv += rng.choice([[]] * 20 + [["--frob"], ["--help"], ["-"]])
    return argv


@pytest.fixture
def alarm():
    def ring(signum, frame):
        raise CaseTimeout

    previous = signal.signal(signal.SIGALRM, ring)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_cli_fuzz(alarm, capsys, tmp_path):
    rng = random.Random(23)
    codes = {}
    for _ in range(CASES):
        argv = _case(rng, tmp_path)
        signal.alarm(ALARM_S)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a usage error, or --help
            code = exc.code
        except CaseTimeout:
            pytest.fail(f"{argv} ran past the {ALARM_S} s alarm")
        except Exception as exc:
            pytest.fail(f"{argv} raised {exc!r}")
        finally:
            signal.alarm(0)
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err, argv
        assert code in (0, 2) or (code == 1 and argv[0] == "pairs" and "--h" in argv), (argv, code, err)
        codes[code] = codes.get(code, 0) + 1
    assert min(codes.get(code, 0) for code in (0, 1, 2)) >= 10, codes  # the draws reach every outcome
