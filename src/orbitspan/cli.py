"""Command-line interface: catalog listing, per-form computation, full-catalog
verification, Satake diagram rendering and the symmetric-pair table."""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Optional

from .nilorbits import OrbitDiagram
from .satake import (
    KINDS,
    LabelError,
    RealFormLabel,
    catalog_labels,
    parse_label,
    satake_catalog,
    satake_to_dot,
    underlying_type,
)
from .spanverify import h_n_a_plus, verify_theorem

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer whose reader left

# Most orbits formatted into one write, so a listing holds tens of KB of text
# at a time, whatever its length; 256 measured leaner than 1,024 on large labels.
ORBIT_BATCH = 256


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@contextmanager
def _output(out: Optional[str]) -> Iterator[Callable[[str], object]]:
    """A writer to the --out file, opened at once, or else to sys.stdout as
    it stands at each write."""
    if not out:
        yield lambda text: sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            yield fh.write
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror}") from exc


def _write(out: Optional[str], text: str) -> None:
    with _output(out) as write:
        write(text)


def _orbit_json(od: OrbitDiagram, witness=None) -> str:
    """One orbit's record, the bytes `_json_dumps` gives its dict, with the
    sl2 witness when given."""
    label = encode_basestring_ascii(od.label)  # what json.dumps writes for a str
    weights = str(list(od.diagram.weights)).replace(" ", "")  # an int list prints a space only after each comma
    more = "" if witness is None else ',"witness":' + _json_dumps(witness.to_json())
    return '{"label":%s,"weights":%s%s}' % (label, weights, more)


def _weights_text(od: OrbitDiagram) -> str:
    return " ".join(map(str, od.diagram.weights))


def _write_listing(write: Callable[[str], object], head: str, rows: Iterable[str], sep: str, tail: str) -> None:
    """Write head, the rows joined by sep, then tail, with at most ORBIT_BATCH
    rows per write; a listing of one batch is one write."""
    rows = iter(rows)
    text = head + sep.join(islice(rows, ORBIT_BATCH))
    while batch := list(islice(rows, ORBIT_BATCH)):
        write(text)
        text = sep + sep.join(batch)
    write(text + tail)


def _write_json_listing(write: Callable[[str], object], record: dict, orbits: Iterable[str]) -> None:
    """Write the record, with the encoded orbits as its "orbits" list, as one line of `_json_dumps` bytes."""
    head, _, tail = _json_dumps({**record, "orbits": []}).partition('"orbits":[]')
    _write_listing(write, head + '"orbits":[', orbits, ",", "]" + tail + "\n")


def cmd_forms(args) -> int:
    needle = (args.filter or "").lower()
    patterns = dict.fromkeys((kind.pattern, kind.constraints) for kind in KINDS.values())  # e6C..g2C share one row
    rows = [(pat, cond) for pat, cond in patterns if needle in pat.lower()]
    if args.format == "json":
        _write(args.out, _json_dumps([{"pattern": p, "constraints": c} for p, c in rows]) + "\n")
    else:
        lines = [f"{pat:40s} {cond}" for pat, cond in rows]
        _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _resolve_labels(args) -> list[RealFormLabel]:
    if args.all and args.labels:
        raise LabelError("pass labels or --all, not both")
    if args.bound is not None and not args.all:
        raise ValueError("--bound needs --all: it bounds the ranks of the catalog")
    if args.all:
        return catalog_labels(12 if args.bound is None else args.bound)
    if not args.labels:
        raise LabelError("no labels given; pass labels or --all")
    return [parse_label(text) for text in args.labels]


def _write_report(write: Callable[[str], object], report, args) -> None:
    if args.format == "json":
        if args.verbose:
            _write_json_listing(write, report.to_json(), map(_orbit_json, report.matching_orbits))
        else:
            write(_json_dumps(report.to_json()) + "\n")
        return
    status = "ok" if report.verified else "FAILED"
    line = (
        f"{report.label!s:12s} {report.simple_type} dim_b={report.dim_b} "
        f"dim_span={report.dim_span} theorem={report.theorem_holds} "
        f"inclusion={report.easy_inclusion_holds} basis=[{', '.join(report.greedy_basis)}] {status}"
    )
    rows = (f"\n    {od.label:16s} {_weights_text(od)}" for od in report.matching_orbits) if args.verbose else ()
    _write_listing(write, line, rows, "", "\n")


def cmd_verify(args) -> int:
    """Write each label's report as soon as it is made."""
    labels = _resolve_labels(args)
    all_ok = True
    with _output(args.out) as write:
        for label in labels:
            try:
                report = verify_theorem(label)
            except ValueError as exc:
                raise ValueError(f"{label}: {exc}") from exc
            all_ok = all_ok and report.verified
            _write_report(write, report, args)
    return EXIT_OK if all_ok else EXIT_VERIFICATION_FAILED


def cmd_orbits(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    label = parse_label(args.label)
    t = underlying_type(label)
    if args.oracle:
        from .sl2oracle import build_chevalley, is_characteristic

        model = build_chevalley(t, max_rank=8)  # refuses a larger rank before any diagram is enumerated
    matching = h_n_a_plus(label)
    witnesses = None
    if args.oracle:
        witnesses = [is_characteristic(model, od.diagram, trials=args.trials) for od in matching]
        if not all(ok for ok, _ in witnesses):
            print("error: an enumerated diagram failed oracle certification", file=sys.stderr)
            return EXIT_VERIFICATION_FAILED
    with _output(args.out) as write:
        if args.format == "json":
            record = {"label": str(label), "type": t.family, "rank": t.rank}
            if witnesses is None:
                orbits = map(_orbit_json, matching)
            else:
                orbits = (_orbit_json(od, witness) for od, (_, witness) in zip(matching, witnesses))
            _write_json_listing(write, record, orbits)
        else:
            width = max(len(od.label) for od in matching)
            mark = "  [certified]" if witnesses is not None else ""
            rows = (f"{od.label:{width}s}  {_weights_text(od)}{mark}\n" for od in matching)
            _write_listing(write, "", rows, "", "")
    return EXIT_OK


def cmd_render(args) -> int:
    label = parse_label(args.label)
    if args.format == "json":
        _write(args.out, _json_dumps(satake_catalog(label).to_json()) + "\n")
    else:
        _write(args.out, satake_to_dot(label))
    return EXIT_OK


def cmd_pairs(args) -> int:
    from .pairs import lookup_pair, pairs_for, proper_sl2_pairs, table_csv

    if args.h is not None and args.g is None:
        raise ValueError("--h needs --g: a subalgebra is looked up within one algebra")
    if args.h is not None:
        found = lookup_pair(args.g, args.h)
        if args.format == "json":
            payload = None if found is None else {"entry": found[0].to_json(), "parameters": found[1]}
            _write(args.out, _json_dumps(payload) + "\n")
        elif args.format == "csv":
            _write(args.out, table_csv([] if found is None else [found[0]]))
        elif found is None:
            _write(args.out, "no matching pair\n")
        else:
            entry, env = found
            params = ", ".join(f"{k}={v}" for k, v in sorted(env.items()))
            _write(args.out, f"{entry.g}  |  {entry.h_display()}  [{entry.condition or 'no condition'}] ({params})\n")
        return EXIT_OK if found is not None else EXIT_VERIFICATION_FAILED
    entries = proper_sl2_pairs() if args.g is None else pairs_for(args.g)
    if args.format == "json":
        _write(args.out, _json_dumps([e.to_json() for e in entries]) + "\n")
    elif args.format == "csv":
        _write(args.out, table_csv(entries))
    else:
        lines = [f"{e.g:14s} {e.h_display():38s} {e.condition}" for e in entries]
        _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitspan",
        description=(
            "Weighted Dynkin diagrams of nilpotent orbits matching Satake diagrams "
            "of real simple Lie algebras, with exact span verification. Labels use "
            "a family token with integer parameters, e.g. su(4,2), so*(12), e7(-5), "
            "sp(3,R), slC(4); run `orbitspan forms` for the catalog."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_forms = sub.add_parser("forms", help="list supported real-form label patterns")
    p_forms.add_argument("filter", nargs="?", help="substring filter")
    p_forms.add_argument("--format", choices=["text", "json"], default="text")
    p_forms.add_argument("--out", help="write output to a file")
    p_forms.set_defaults(func=cmd_forms)

    p_verify = sub.add_parser("verify", help="verify the span theorem for labels")
    p_verify.add_argument("labels", nargs="*", help="real-form labels")
    p_verify.add_argument("--all", action="store_true", help="verify the whole catalog")
    bound_help = "rank bound on the classical forms; needs --all, and the 17 exceptional forms are always listed (default 12)"
    p_verify.add_argument("--bound", type=int, help=bound_help)
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.add_argument("--verbose", action="store_true", help="include all matching diagrams in reports")
    p_verify.add_argument("--out", help="write output to a file")
    p_verify.set_defaults(func=cmd_verify)

    p_orbits = sub.add_parser("orbits", help="list matching orbit diagrams for a label")
    p_orbits.add_argument("label")
    p_orbits.add_argument("--format", choices=["text", "json"], default="text")
    p_orbits.add_argument("--oracle", action="store_true", help="certify each diagram with an exact sl2 witness")
    p_orbits.add_argument("--trials", type=int, default=20, help="attempts to reach an E whose G_0-orbit is open (default 20)")
    p_orbits.add_argument("--out", help="write output to a file")
    p_orbits.set_defaults(func=cmd_orbits)

    p_render = sub.add_parser("render", help="render a Satake diagram (DOT or JSON)")
    p_render.add_argument("label")
    p_render.add_argument("--format", choices=["dot", "json"], default="dot")
    p_render.add_argument("--out", help="write output to a file")
    p_render.set_defaults(func=cmd_render)

    p_pairs = sub.add_parser("pairs", help="query the proper-SL(2,R)-action pair table")
    p_pairs.add_argument("--g", help="algebra label, e.g. e8(8) or su(4,2)")
    p_pairs.add_argument("--h", help="subalgebra description, e.g. 'sp(2,1)'")
    p_pairs.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_pairs.add_argument("--out", help="write output to a file")
    p_pairs.set_defaults(func=cmd_pairs)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left is met here, not at the interpreter's exit
        return code
    except ValueError as exc:  # LabelError included; also an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the exit flushes stdout again; point it at devnull so that flush cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
