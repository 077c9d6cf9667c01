"""One benchmark step in a fresh interpreter, so every step starts with cold
``lru_cache``s as a user's ``orbitspan`` invocation does.

Reads a JSON spec on stdin, runs it, and prints one JSON result line.  The
spec's ``kind`` is ``cli`` (an ``orbitspan`` command through
``orbitspan.cli.main``) or ``oracle`` (given weight vectors decided by the
sl2 oracle).  With
``probe`` set it stops just before the first call into the entry point, which
measures set-up alone.  With ``trace_path`` set it wraps the layers' public
functions, replays the step single-threaded and writes its spans there.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import resource
import sys
import time
from fractions import Fraction


def _import(kind: str, traced: bool):
    if kind == "cli" or traced:
        import orbitspan.cli  # noqa: F401
    if kind != "cli" or traced:
        import orbitspan.rootcore  # noqa: F401
        import orbitspan.sl2oracle  # noqa: F401


def _install(tracer) -> None:
    """Wrap the layer boundaries; a missing target is recorded, not raised."""

    def cells(key):
        def before(counts, args):
            rows = args[0] if args else ()
            if rows:
                counts[key] += len(rows) * len(rows[0])

        return before

    enumerated = set()

    def count_enumerated(counts, args, result):
        if args and args[0] not in enumerated:
            enumerated.add(args[0])
            if hasattr(result, "__len__"):
                counts["nilorbits.diagrams"] += len(result)
            else:
                counts["nilorbits.diagrams_unsized"] += 1

    def count_filter_in(counts, args):
        if args and hasattr(args[0], "__len__"):
            counts["satake.filter_in"] += len(args[0])

    def count_filter_out(counts, args, result):
        counts["satake.matched"] += len(result)

    def count_candidates(counts, args):
        counts["spanverify.greedy_candidates"] += len(args[0])

    def count_picked(counts, args, result):
        counts["spanverify.greedy_picked"] += len(result[0])

    def count_verdict(counts, args, result):
        counts["sl2oracle.accepted" if result[0] else "sl2oracle.rejected"] += 1

    patch = tracer.patch_function
    patch("orbitspan.rational", "rref", "rational.rref", before=cells("rational.rref_cells"))
    patch("orbitspan.rational", "nullspace", "rational.nullspace")
    patch("orbitspan.rational", "solve", "rational.solve", before=cells("rational.solve_cells"))
    patch("orbitspan.nilorbits", "enumerate_complex_characteristics", "nilorbits.enumerate", after=count_enumerated)
    patch("orbitspan.rootcore", "build_root_system", "rootcore.root_system")
    patch("orbitspan.rootcore", "opposition_involution", "rootcore.opposition")
    patch("orbitspan.satake", "satake_catalog", "satake.catalog")
    patch("orbitspan.satake", "b_subspace", "satake.b_subspace")
    patch("orbitspan.spanverify", "filter_matching", "satake.filter", before=count_filter_in, after=count_filter_out)
    patch("orbitspan.spanverify", "greedy_basis_of", "spanverify.greedy", before=count_candidates, after=count_picked)
    patch("orbitspan.spanverify", "check_easy_inclusion", "spanverify.inclusion")
    patch("orbitspan.spanverify", "verify_paper_basis", "spanverify.paper_basis")
    patch("orbitspan.spanverify", "verify_theorem", "spanverify.verify_theorem")
    patch("orbitspan.cli", "main", "cli.main")
    patch("orbitspan.sl2oracle", "build_chevalley", "sl2oracle.model_build")
    patch("orbitspan.sl2oracle", "is_characteristic", "sl2oracle.decide", after=count_verdict)
    tracer.patch_method("orbitspan.sl2oracle", "ChevalleyModel", "bracket", "sl2oracle.bracket")


# Public cached functions whose cache_info() feeds the cache.* metrics.
CACHED = ("nilorbits.enumerate", "rootcore.root_system", "rootcore.opposition", "satake.catalog", "satake.b_subspace")


def _trace_summary(tracer) -> dict:
    from tracer import overlap_length

    cache = None
    infos = [getattr(tracer.originals.get(name), "cache_info", None) for name in CACHED]
    if all(callable(info) for info in infos):
        stats = [info() for info in infos]
        cache = {"hits": sum(s.hits for s in stats), "misses": sum(s.misses for s in stats)}
    cli_self = None
    if "cli.main" in tracer.originals and "spanverify.verify_theorem" in tracer.originals:
        outer = tracer.intervals("cli.main")
        cli_self = sum(end - start for start, end in outer) - overlap_length(
            outer, tracer.intervals("spanverify.verify_theorem")
        )
    return {
        "self_s": dict(tracer.self_s),
        "calls": dict(tracer.calls),
        "counts": dict(tracer.counts),
        "wrapped": sorted(tracer.originals),
        "missing": tracer.missing,
        "cache": cache,
        "cli_self_s": cli_self,
        "solve_inclusive_s": tracer.inclusive_s("rational.solve"),
    }


def _single_threaded(argv: list[str]) -> list[str]:
    """The CLI with ``--jobs 1`` if it still has that flag."""
    from orbitspan import cli

    with contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.build_parser().parse_args(argv + ["--jobs", "1"])
        except SystemExit:
            return argv
    return argv + ["--jobs", "1"]


def _run_cli(argv: list[str]) -> dict:
    from orbitspan import cli

    buf = io.StringIO()
    t_entry = time.monotonic()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        error = None
    except (Exception, SystemExit) as exc:  # reported as a failed item
        code, error = None, repr(exc)
    t_done = time.monotonic()
    return {"t_entry": t_entry, "t_done": t_done, "exit_code": code, "error": error, "output": buf.getvalue()}


def _decide_all(models: list, items: list) -> dict:
    """Build every model, then decide every item, inside the timed region;
    each decision is also timed alone.  ``models`` is a list of (SimpleType,
    max_rank); ``items`` a list of (model index, WeightedDiagram)."""
    from orbitspan.sl2oracle import build_chevalley, is_characteristic

    clock = time.perf_counter
    errors = []
    t_entry = time.monotonic()
    built = []
    for t, max_rank in models:
        try:
            built.append(build_chevalley(t, max_rank=max_rank))
        except Exception as exc:  # every decision in this model fails
            errors.append(f"{t}: {exc!r}")
            built.append(None)
    verdicts, item_s = [], []
    for k, d in items:
        start = clock()
        try:
            if built[k] is None:
                raise RuntimeError("no model")
            ok, _witness = is_characteristic(built[k], d)
            verdicts.append(bool(ok))
        except Exception as exc:
            errors.append(f"{d.simple_type} {[str(w) for w in d.weights]}: {exc!r}")
            verdicts.append(None)
        item_s.append(clock() - start)
    t_done = time.monotonic()
    return {"t_entry": t_entry, "t_done": t_done, "verdicts": verdicts, "item_s": item_s, "errors": errors}


def _oracle_inputs(spec: dict) -> tuple[list, list]:
    from orbitspan.rootcore import SimpleType, WeightedDiagram

    types = [SimpleType(fam, rank) for fam, rank in spec["types"]]
    models = [(t, spec["max_rank"]) for t in types]
    items = [(k, WeightedDiagram(types[k], tuple(Fraction(w) for w in weights))) for k, weights in spec["items"]]
    return models, items


def _peak_rss_kb() -> int:
    """This process's own peak resident set.  ``ru_maxrss`` is not used where
    VmHWM exists: it carries over the spawning process's peak across exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    spec = json.load(sys.stdin)
    kind = spec["kind"]
    trace_path = spec.get("trace_path")
    _import(kind, bool(trace_path))
    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        _install(tracer)
    if kind == "cli":
        step = functools.partial(_run_cli, _single_threaded(spec["argv"]) if tracer else spec["argv"])
    else:
        step = functools.partial(_decide_all, *_oracle_inputs(spec))
    result = {"t_entry": time.monotonic()} if spec.get("probe") else step()
    result["peak_rss_kb"] = _peak_rss_kb()
    if tracer is not None:
        result["trace"] = _trace_summary(tracer)
        result["trace"]["spans"] = tracer.write(trace_path, {"spec": spec})
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
