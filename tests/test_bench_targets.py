"""The benchmark under perfbench/ wraps the library's layer functions by name.
A refactor that renames or drops one of them would silently remove per-layer
metrics, so this checks, read-only and in a fresh interpreter, that every
target is still there and that the cached ones still have `cache_info`."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import worker
from tracer import Tracer
worker._import("cli", True)
tracer = Tracer()
worker._install(tracer)
uncached = [name for name in worker.CACHED if not callable(getattr(tracer.originals.get(name), "cache_info", None))]
print(json.dumps({"missing": tracer.missing, "uncached": uncached}))
"""


def test_benchmark_wrap_targets_exist():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", PROBE, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(proc.stdout) == {"missing": [], "uncached": []}
