"""Benchmark for padegalois: table reproduction and single-polynomial verdicts.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tables-cold --seed 1 --seconds 20 --trace 0

Workloads (one caller, closed loop: the next call starts when the previous
one returns; one process, one thread):

* ``tables-cold``: ``reproduce(t, cache=None, verify=True)`` for all six
  tables.  One operation is one table.
* ``tables-warm``: set-up fills an empty cache directory through the CLI;
  the measured passes re-run every table through the CLI in text, JSON and
  CSV, all served from that cache.  One operation is one CLI call.
* ``classify-mix``: a seeded stream of polynomials (see ``inputs.py``), each
  run through ``classify`` and then ``verify_identification``.  One
  operation is one polynomial; one pass is one block of the stream.  After
  the measured passes, the inputs of ``inputs.known_defect`` go through
  the same two calls, untimed and outside the counts; the run record says
  how many verdicts ``verify_identification`` rejected.

A run with ``--trace 0`` measures whole passes until ``--seconds`` have
gone by (and at least the workload's fixed pass count), then checks every
output and reports the end-to-end metrics, the same on every workload.
Every time is in seconds at nominal machine speed: ``speed.py`` samples
the speed of the shared host all through the run and scales each timed
interval by it, which takes out most of the host's swings; the run record
gives the raw median pass time too.

* ``setup_s``: median set-up time.  For tables-cold and classify-mix, a
  fresh interpreter importing the package and loading the group census,
  as every CLI call pays (timed inside it, so not its own start); for
  tables-warm, filling an empty cache.
* ``wall_s``: median time of one pass.
* ``ops_per_s``: operations per second over all passes.
* ``op_p90_ms``: nearest-rank 90th percentile of operation latency.  The
  run record gives the sample count; on tables-cold, with six operations
  a pass, it is about the time of the slowest table.
* ``ok_frac``: share of operations that did not fail.  An operation fails
  when it raises, when its output is wrong, or when
  ``verify_identification`` rejects its verdict.  No operation of any
  workload fails today, so it is 1.
* ``peak_rss_mb``: peak resident set size of the process.

A run with ``--trace 1`` runs the fixed pass count untraced and then again
with the layer wrappers of ``tracer.py`` installed, so its counts repeat
exactly; it checks that every output is byte-identical with tracing on and
off, and reports the per-layer metrics.

The last line of standard output is the result object; the line before it
is the run record (revision, Python version, CPU count, seed, per-table and
per-family detail).  Spans of a traced run go to ``.bench_out/`` at the
root.  Exit status is 0 when every correctness check passed, 1 when one
failed and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

from speed import MachineSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Cells per table, 86 in all.
TABLE_CELLS = {
    "ExpPade": 20,
    "InvSqrtPade": 14,
    "InvSqrtTrunc": 8,
    "Atanh2Pade": 16,
    "SinSinh": 4,
    "SchurTrunc": 24,
}
TABLE_IDS = tuple(TABLE_CELLS)
FORMATS = ((), ("--json",), ("--csv",))

# Fresh-interpreter start-ups timed per run; setup_s is their median.
STARTUP_REPEATS = 11
# Cache fills timed per tables-warm run; setup_s is their median.
WARM_FILLS = 2
# Fixed pass counts: the least a timed run measures, and what a traced run
# measures.  Three blocks of classify-mix are 141 polynomials.
COLD_PASSES = 1
WARM_PASSES = 5
MIX_BLOCKS = 3



class Op(NamedTuple):
    """One timed call plus the untimed check of its output.

    ``call()`` returns the raw output; ``check(output)`` returns
    ``(failed, wrong, digest)``: whether the operation failed, whether its
    output is wrong, and bytes that must repeat exactly across passes.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, bool, bytes]]


class Workload(NamedTuple):
    """What a workload's set-up hands to the measuring loop.

    ``passes(k)`` gives the operations of pass k; ``fixed_passes`` is the
    pass count of a traced run and the least a timed run makes;
    ``repeats`` says whether every pass runs the same operations (so
    outputs must repeat exactly); ``workdir`` is removed at the end;
    ``probe()``, when given, runs once after the measurement and returns
    the known-defect record (see ``classify_mix``).
    """

    setup_s: float
    passes: Callable[[int], list[Op]]
    fixed_passes: int
    repeats: bool
    workdir: Path | None = None
    probe: Callable[[], dict] | None = None


class Outcome:
    """Timings and check results of the passes of one measurement.

    ``spans`` holds, per pass, each operation's label, start, end and the
    sampling time spent inside it; :meth:`scale` turns them into the
    timings, in seconds at nominal machine speed (see ``speed.py``).
    """

    def __init__(self):
        self.spans: list[list[tuple[str, float, float, float]]] = []
        self.pass_times: list[float] = []
        self.raw_pass_times: list[float] = []
        self.latencies: list[float] = []
        self.time_by: dict[str, list[float]] = {}
        self.digests: list[list[bytes]] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failed_by: Counter = Counter()

    def scale(self, speed: MachineSpeed) -> None:
        for spans in self.spans:
            latencies = [speed.seconds(*span[1:]) for span in spans]
            self.pass_times.append(sum(latencies))
            self.raw_pass_times.append(
                sum(end - start - spent for _, start, end, spent in spans)
            )
            self.latencies += latencies
            for (label, *_), latency in zip(spans, latencies):
                self.time_by.setdefault(label, []).append(latency)


def attempt(op: Op):
    try:
        return op.call(), None
    except Exception as exc:  # counted as a failed operation
        return None, exc


def run_pass(ops: list[Op], outcome: Outcome, speed: MachineSpeed) -> None:
    spans, results = [], []
    for op in ops:
        result, *span = speed.timed(attempt, op)
        spans.append((op.label, *span))
        results.append(result)
    outcome.spans.append(spans)
    digests = []
    for op, (output, error) in zip(ops, results):
        outcome.attempted += 1
        if error is not None:  # no workload raises on its inputs
            failed, wrong, digest = True, True, repr(error).encode()
            print(f"{op.label}: operation raised", file=sys.stderr)
            traceback.print_exception(error)
        else:
            failed, wrong, digest = op.check(output)
        if failed:
            outcome.failed += 1
            outcome.failed_by[op.label] += 1
        outcome.wrong += wrong
        digests.append(digest)
    outcome.digests.append(digests)


def measure(
    passes, min_passes: int, speed: MachineSpeed, seconds: float = 0.0
) -> Outcome:
    """Run passes ``passes(0), passes(1), ...`` until ``min_passes`` ran
    and ``seconds`` have gone by."""
    outcome = Outcome()
    start = time.perf_counter()
    count = 0
    while count < min_passes or time.perf_counter() - start < seconds:
        run_pass(passes(count), outcome, speed)
        count += 1
    outcome.scale(speed)
    return outcome


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def startup_seconds() -> float:
    """Median time a fresh interpreter takes to import the package and
    load the transitive-group census, as every CLI call pays (timed and
    scaled inside that interpreter by ``startup.py``)."""
    argv = [sys.executable, str(HERE / "startup.py"), str(SRC)]
    return statistics.median(
        float(subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout)
        for _ in range(STARTUP_REPEATS)
    )


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    import padegalois.cli

    buffer = io.BytesIO()
    stream = io.TextIOWrapper(buffer, encoding="utf-8")
    with contextlib.redirect_stdout(stream):
        code = padegalois.cli.main(argv)
        stream.flush()
    return code, buffer.getvalue()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


def table_gate(report: dict) -> bool:
    """A report passes with every cell of its table, and every proven cell
    replayed when the run verified."""
    summary = report["summary"]
    if summary["status"] != "pass" or summary["cells"] != TABLE_CELLS[report["table"]]:
        return False
    return not report["verify"] or all(
        cell.get("verified") is True
        for row in report["rows"]
        for cell in row["cells"]
        if cell["certainty"] == "proven"
    )


def tables_cold(seed: int, speed: MachineSpeed):
    import padegalois

    def op(table_id: str) -> Op:
        def call():
            return padegalois.reproduce(table_id, cache=None, verify=True)

        def check(report):
            bad = not table_gate(report)
            return bad, bad, canonical(report)

        return Op(table_id, call, check)

    ops = [op(t) for t in TABLE_IDS]
    return Workload(startup_seconds(), lambda k: ops, COLD_PASSES, True)


def tables_warm(seed: int, speed: MachineSpeed):
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="warm-", dir=OUT))
    try:
        return _tables_warm(workdir, speed)
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise


def _tables_warm(workdir: Path, speed: MachineSpeed) -> Workload:
    """Fill fresh cache directories through the CLI, then read them back."""
    import padegalois

    def fill(cache_dir: str) -> dict[str, tuple[int, bytes]]:
        return {
            t: run_cli(["reproduce", t, "--cache-dir", cache_dir, "--json"])
            for t in TABLE_IDS
        }

    fills = []
    fill_times = []
    for n in range(WARM_FILLS):
        result, *span = speed.timed(fill, str(workdir / f"fill{n}"))
        fills.append(result)
        fill_times.append(speed.seconds(*span))
    expected: dict[tuple[str, tuple], bytes] = {}
    for t in TABLE_IDS:
        code, data = fills[0][t]
        report = json.loads(data)
        if code != 0 or not table_gate(report):
            raise SystemExit(f"error: cache fill of {t} did not pass")
        if any(fill[t] != fills[0][t] for fill in fills):
            raise SystemExit(f"error: cache fills of {t} differ")
        for fmt in FORMATS:
            expected[t, fmt] = padegalois.emit(report, fmt[0][2:] if fmt else "text")
    cache_dir = str(workdir / "fill0")

    def op(table_id: str, fmt: tuple) -> Op:
        argv = ["reproduce", table_id, "--cache-dir", cache_dir, *fmt]

        def check(result):
            code, data = result
            bad = code != 0 or data != expected[table_id, fmt]
            return bad, bad, data

        return Op(" ".join([table_id, *fmt]), lambda: run_cli(argv), check)

    ops = [op(t, fmt) for t in TABLE_IDS for fmt in FORMATS]
    return Workload(
        statistics.median(fill_times), lambda k: ops, WARM_PASSES, True, workdir
    )


def classify_mix(seed: int, speed: MachineSpeed):
    import padegalois

    import inputs

    blocks: dict[int, list[Op]] = {}

    def op(entry: dict) -> Op:
        poly = padegalois.IntPoly(tuple(entry["coeffs"]))
        known = entry["expected"]

        def call():
            ident = padegalois.classify(poly)
            return ident, padegalois.verify_identification(poly, ident)

        def check(result):
            ident, verified = result
            wrong = known is not None and (
                ident.group_name != known
                and known not in ident.certainty.candidates
            )
            if wrong:
                print(
                    f"{padegalois.format_poly(poly)}: expected {known}, "
                    f"got {ident.group_name}",
                    file=sys.stderr,
                )
            digest = canonical([ident.to_dict(), verified])
            return (not verified) or wrong, wrong, digest

        return Op(entry["family"], call, check)

    def passes(k: int) -> list[Op]:
        if k not in blocks:
            blocks[k] = [op(e) for e in inputs.block(seed, k)]
        return blocks[k]

    def probe() -> dict:
        """Run the known-defect inputs; list those whose verdict the
        verifier rejects (or whose call raises) and those whose verdict
        misses the known group."""
        entries = inputs.known_defect(seed)
        rejected, wrong = [], []
        for entry in entries:
            known_op = op(entry)
            try:
                failed, bad, _ = known_op.check(known_op.call())
            except Exception:  # reported like a rejection
                traceback.print_exc()
                failed, bad = True, False
            text = padegalois.format_poly(padegalois.IntPoly(tuple(entry["coeffs"])))
            if failed:
                rejected.append(text)
            if bad:
                wrong.append(text)
        return {"inputs": len(entries), "rejected": rejected, "wrong": wrong}

    return Workload(startup_seconds(), passes, MIX_BLOCKS, False, probe=probe)


WORKLOADS = {
    "tables-cold": tables_cold,
    "tables-warm": tables_warm,
    "classify-mix": classify_mix,
}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(setup_s: float, outcome: Outcome) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(outcome.pass_times), "s"),
        "ops_per_s": (len(outcome.latencies) / sum(outcome.pass_times), "1/s"),
        "op_p90_ms": (percentile(outcome.latencies, 0.9) * 1e3, "ms"),
        "ok_frac": ((outcome.attempted - outcome.failed) / outcome.attempted, "1"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
        ),
    }


SELF_TIMED = (
    "modp.gf_ddf_degree_multiset",
    "modp.gf_equal_degree",
    "galois.dedekind_cycle_type",
    "galois.classify",
    "galois.exact_small_degree",
    "galois.eliminate_degree_le7",
    "galois.cyclic_heuristic",
    "galois.wreath_structure",
    "galois.verify_identification",
    "polynomials.resultant",
    "polynomials.discriminant",
    "factor.factor_over_integers",
    "pade.pade_diagonal",
    "series.taylor",
    "cache.get_or_compute",
    "tables.reproduce",
    "reporting.emit",
    "cli.main",
)
CALLS_REPORTED = (
    "modp.gf_ddf_degree_multiset",
    "modp.gf_equal_degree",
    "galois.dedekind_cycle_type",
    "galois.verify_identification",
    "polynomials.resultant",
    "polynomials.discriminant",
    "factor.factor_over_integers",
    "pade.pade_diagonal",
    "series.taylor",
    "reporting.emit",
)
COUNTS_REPORTED = ("modp.gf_mul", "modp.gf_divmod", "modp.gf_pow_mod")


def per_layer(tracer, untraced: Outcome, traced: Outcome, known_defect) -> dict:
    rows = tracer.summary()
    counts = tracer.counts
    metrics = {}
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (rows.get(name, {}).get("self_s", 0.0), "s")
    for name in CALLS_REPORTED:
        metrics[f"{name}.calls"] = (rows.get(name, {}).get("calls", 0), "count")
    for name in COUNTS_REPORTED:
        metrics[f"{name}.calls"] = (counts[name], "count")
    attempts = rows.get("galois.dedekind_cycle_type", {}).get("calls", 0)
    usable = counts["galois.dedekind_cycle_type.usable"]
    metrics["galois.frobenius_usable_ratio"] = (
        usable / attempts if attempts else 0.0,
        "1",
    )
    metrics["cache.hits"] = (counts["cache.hits"], "count")
    metrics["cache.misses"] = (counts["cache.misses"], "count")
    metrics["galois.verify_rejected_known_defect"] = (
        len(known_defect["rejected"]) if known_defect else 0,
        "count",
    )
    metrics["trace.overhead_frac"] = (
        sum(traced.pass_times) / sum(untraced.pass_times) - 1,
        "1",
    )
    return metrics


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "padegalois").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_record(args, outcome: Outcome, speed: MachineSpeed) -> dict:
    """Where and how the run was made, plus detail the metrics summarise."""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(outcome.pass_times),
        "ops": len(outcome.latencies),
        "op_p50_ms": percentile(outcome.latencies, 0.5) * 1e3,
        "raw_wall_s": statistics.median(outcome.raw_pass_times),
        "calibration_ms": speed.median_ms(),
        "calibration_samples": len(speed.durations),
        "failed_frac": outcome.failed / outcome.attempted,
        "failed_by": dict(outcome.failed_by),
        "median_s_by_op": {
            label: statistics.median(times)
            for label, times in sorted(outcome.time_by.items())
        },
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "padegalois" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import padegalois
    import padegalois.cli  # noqa: F401  (the tracer wraps cli.main)
    from padegalois.groupdata import transitive_groups

    if Path(padegalois.__file__).resolve().parent != SRC / "padegalois":
        print("error: imported padegalois from outside the checkout", file=sys.stderr)
        return 2
    for degree in range(2, 8):  # one-time census load, outside the timings
        transitive_groups(degree)

    with MachineSpeed() as speed:
        workload = WORKLOADS[args.workload](args.seed, speed)
        try:
            if args.trace:
                from tracer import Tracer

                outcome = measure(workload.passes, workload.fixed_passes, speed)
                with Tracer() as tracer:
                    traced = measure(workload.passes, workload.fixed_passes, speed)
                OUT.mkdir(exist_ok=True)
                tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
            else:
                outcome = measure(
                    workload.passes, workload.fixed_passes, speed, args.seconds
                )
                traced = None
            known_defect = workload.probe() if workload.probe else None
        finally:
            if workload.workdir is not None:
                shutil.rmtree(workload.workdir, ignore_errors=True)
    if traced is not None:
        metrics = per_layer(tracer, outcome, traced, known_defect)
    else:
        metrics = end_to_end(workload.setup_s, outcome)

    correct = not outcome.wrong and not (known_defect and known_defect["wrong"])
    attempted, failed = outcome.attempted, outcome.failed
    if workload.repeats and any(d != outcome.digests[0] for d in outcome.digests):
        print("error: outputs differ between passes", file=sys.stderr)
        correct = False
    if traced is not None:
        correct = correct and not traced.wrong
        attempted += traced.attempted
        failed += traced.failed
        if traced.digests != outcome.digests:
            print("error: outputs differ with tracing on", file=sys.stderr)
            correct = False

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if sorted(names) != sorted(metrics):
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        correct = False

    record = run_record(args, outcome, speed)
    if known_defect is not None:
        record["known_defect"] = known_defect
    print(json.dumps({"run": record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
