"""Self-tests of the benchmark, at a tiny scale.

Runs every workload untraced and traced on a 300-entity dataset and
checks that the result line carries exactly the metrics named in
``BENCHMARK.json``, each with its unit, that the answers check out, and
that the oracle gate fires when a measured answer is corrupted::

    python3 perfbench/selftest.py

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import core  # noqa: E402
import run  # noqa: E402

TINY_ENTITIES = 300
SECONDS = "1"


def _run(workload: str, trace: int, seed: int = 1) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main([
            "--workload", workload, "--seed", str(seed),
            "--seconds", SECONDS, "--trace", str(trace),
        ])
    if code != 0:
        raise AssertionError(f"{workload} trace={trace} exited {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _expect_metrics(result: dict, named, label: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    want = {entry["name"]: entry["unit"] for entry in named}
    if got != want:
        raise AssertionError(f"{label}: metrics {got} != named {want}")
    for name, value in result["metrics"].items():
        if not isinstance(value["value"], float):
            raise AssertionError(f"{label}: {name} is not a number")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        raise AssertionError(f"{label}: run not correct: {result}")


def _corrupting(original, every):
    """A fingerprint function that spoils its first digest, or
    ``every`` one."""
    calls = [0]

    def corrupted(*args, **kwargs):
        calls[0] += 1
        digest = original(*args, **kwargs)
        return "corrupted" + digest if every or calls[0] == 1 else digest

    return corrupted


def _expect_caught(workload: str, what: str) -> None:
    result = _run(workload, 0)
    if result["correct"] or result["failed"] < 1:
        raise AssertionError(f"{workload}: {what} went unnoticed: {result}")
    print(f"ok  {workload}: {what} caught ({result['failed']} failed)",
          file=sys.stderr)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named_workloads = [w["name"] for w in spec["workloads"]]
    if named_workloads != list(run.WORKLOADS):
        raise AssertionError(f"workloads {named_workloads}")
    for key, listed in (("end_to_end", run.END_TO_END),
                        ("per_layer", run.PER_LAYER)):
        named = [(m["name"], m["unit"]) for m in spec[key]]
        if named != list(listed):
            raise AssertionError(f"{key} in BENCHMARK.json != run.py")

    core.NUM_ENTITIES = TINY_ENTITIES
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload, trace)
            _expect_metrics(result, spec[key], f"{workload} trace={trace}")
            print(f"ok  {workload} trace={trace}: "
                  f"{len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations", file=sys.stderr)

    # The gate must fire: corrupt one measured answer per workload path.
    import exec_unique
    import serve_zipf
    import write_read

    # write-read digests the answers before each cycle's writes too, so
    # there every digest is spoiled rather than the first.
    for module, name, workload, every in (
        (exec_unique, "fingerprint", "exec-unique", False),
        (serve_zipf, "body_fingerprint", "serve-zipf", False),
        (write_read, "fingerprint", "write-read", True),
    ):
        original = getattr(module, name)
        setattr(module, name, _corrupting(original, every))
        try:
            _expect_caught(workload, "a corrupted answer")
        finally:
            setattr(module, name, original)

    # A write path that drops its writes must fail write-read too (the
    # heap twin in the oracle process still applies them).
    original = write_read.apply_write
    write_read.apply_write = lambda indexes, op: None
    try:
        _expect_caught("write-read", "a lost write")
    finally:
        write_read.apply_write = original
    print("all self-tests passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
