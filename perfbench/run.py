"""End-to-end benchmark of the sitecalc CLI.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 15 --trace 0

Each op is one `sitecalc` invocation, `sitecalc.cli.main(argv)` called
in-process on a freshly generated `.site` document: read, parse, run the
command, render.  One client, closed loop: an op starts when the previous
one has returned and its verdict has been checked against the known
answer.  The loop stops at the first cycle boundary after `--seconds`.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json
and climbs the workload's size ladder, one child process per rung.  With
`--trace 1` it runs half the time untraced and half with every public
sitecalc function wrapped (see `spans.py`), and reports the per-layer
metrics.  The last line of standard output is the JSON result; the line
before it is a human-readable summary.  Scratch files go to `.perfbench/`
in the checkout.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

import gen  # noqa: E402  (sibling modules of this script)
import workloads  # noqa: E402
from refclock import REFERENCE_S, reference_s  # noqa: E402

SETUPS = 11  # setup_s is the median of this many set-ups


class SourceMissing(Exception):
    pass


def import_sitecalc():
    """A fresh import of `sitecalc.cli` from this checkout's `src/`, never
    an installed copy; earlier imports are dropped first."""
    if not (SRC / "sitecalc" / "cli.py").is_file():
        raise SourceMissing(f"no sitecalc sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "sitecalc" or m.startswith("sitecalc.")]:
        del sys.modules[name]
    cli = importlib.import_module("sitecalc.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "sitecalc").resolve():
        raise SourceMissing(f"sitecalc imported from {cli.__file__}, not {SRC}")
    return cli


@dataclass(frozen=True)
class OpResult:
    label: str
    wall_s: float
    cpu_s: float
    ok: bool


def run_op(cli, op: workloads.Op, path: Path) -> OpResult:
    """Write the document, time one CLI invocation, check its verdict.
    An op fails on an unexpected exit code, a traceback (an exception out
    of `main`, or one printed) or a verdict other than the known answer."""
    path.write_text(op.text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(path), *op.argv, "--format", "machine"])
    except MemoryError:
        raise
    except (Exception, SystemExit):  # a traceback is a failed op, not a crash of the run
        pass
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return OpResult(op.label, wall, cpu, code is not None and "Traceback" not in err.getvalue()
                    and _verdict_ok(op, code, out.getvalue()))


def _verdict_ok(op: workloads.Op, code: int, text: str) -> bool:
    results, status = {}, None
    try:
        for line in text.splitlines():
            rec = json.loads(line)
            if rec.get("record") == "result":
                results[rec["name"]] = rec["value"]
            elif rec.get("record") == "status":
                status = rec
    except (ValueError, KeyError):
        return False
    return status is not None and status.get("exit") == code and op.check(code, results)


@dataclass
class Loop:
    results: list[OpResult]
    refs: list[float]  # reference seconds before each op and after the last

    def scales(self) -> list[float]:
        """Per op: REFERENCE_S over the mean of the references around it."""
        return [2 * REFERENCE_S / (self.refs[i] + self.refs[i + 1])
                for i in range(len(self.results))]

    def scaled_latencies(self) -> list[float]:
        return [r.wall_s * k for r, k in zip(self.results, self.scales())]


def measure(cli, stream, seconds: float, path: Path, tracer=None) -> Loop:
    """Run whole cycles of ops until `seconds` have passed.  Before each op
    and after the last, collect garbage (a CLI process starts with none)
    and time the reference."""
    results, refs = [], []
    deadline = time.perf_counter() + seconds
    current = None
    for cycle, op in stream:
        if cycle != current:
            if current is not None and time.perf_counter() >= deadline:
                break
            current = cycle
        gc.collect()
        refs.append(reference_s())
        if tracer is not None:
            tracer.begin_op(len(results))
        results.append(run_op(cli, op, path))
        if tracer is not None:
            tracer.end_op()
    gc.collect()
    refs.append(reference_s())
    return Loop(results, refs)


@dataclass(frozen=True)
class Setup:
    cli: object
    scaled_s: float
    warm: OpResult


def setup(workload: workloads.Workload, relabel: gen.Relabeller, path: Path) -> Setup:
    """Import sitecalc afresh, generate one cycle of documents and run the
    first as the untimed warm-up op; time it all, scaled."""
    gc.collect()
    before = reference_s(3)
    start = time.perf_counter()
    cli = import_sitecalc()
    first = [make(relabel) for make in workload.cycle][0]
    warm = run_op(cli, first, path)
    seconds = time.perf_counter() - start
    gc.collect()
    return Setup(cli, seconds * 2 * REFERENCE_S / (before + reference_s(3)), warm)


def climb(workload: workloads.Workload, rng: random.Random) -> tuple[int, list[dict]]:
    """Run the ladder's rungs in child processes until one misses the
    budget; return the arrow count of the largest rung that made it."""
    ladder = workload.ladder
    frontier, rungs = 0, []
    for size in ladder.sizes:
        argv = [sys.executable, str(HERE / "rung.py"), "--workload", workload.name,
                "--size", str(size), "--seed", str(rng.randrange(1 << 32))]
        # a rung that misses its budget is the frontier; one that crashes is a failed op
        rung = {"finished": False, "correct": True, "cpu_s": None}
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                                  timeout=4 * ladder.budget_s + 30)
            rung = json.loads(proc.stdout.strip().splitlines()[-1])
        except subprocess.TimeoutExpired:
            pass
        except (ValueError, IndexError):
            rung["correct"] = False
        rungs.append({"size": size, **rung})
        if not rung["finished"]:
            break
        frontier = ladder.arrows(size)
    return frontier, rungs


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def plain_run(cli, workload, stream, seconds, path, rng) -> tuple[dict, int, int]:
    loop = measure(cli, stream, seconds, path)
    latencies = loop.scaled_latencies()
    frontier, rungs = climb(workload, rng)
    failed = sum(not r.ok for r in loop.results) + sum(not r["correct"] for r in rungs)
    attempted = len(loop.results) + sum(r["finished"] for r in rungs)
    p90 = _p90(latencies)
    walls = [r.wall_s for r in loop.results]
    by_label: dict[str, list[float]] = {}
    for r, x in zip(loop.results, latencies):
        by_label.setdefault(r.label, []).append(x)
    print(json.dumps({
        "workload": workload.name, "ops": len(latencies),
        "beyond_p90": sum(x > p90 for x in latencies),
        "failed_frac": failed / attempted,
        "raw_wall_p50_ms": statistics.median(walls) * 1e3,
        "raw_wall_p90_ms": _p90(walls) * 1e3,
        "reference_ms": statistics.median(loop.refs) * 1e3,
        "cpu_over_wall": sum(r.cpu_s for r in loop.results) / sum(walls),
        "p50_ms_by_op": {k: round(statistics.median(v) * 1e3, 2)
                         for k, v in sorted(by_label.items())},
        "rungs": rungs}))
    metrics = {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "ops_per_s": len(latencies) / sum(latencies),
        "frontier_arrows": frontier,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, attempted, failed


def traced_run(cli, workload, stream, seconds, path) -> tuple[dict, int, int]:
    from spans import Tracer

    plain = measure(cli, stream, seconds / 2, path)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(cli, stream, seconds / 2, path, tracer)
    finally:
        tracer.uninstall()
    tracer.write(WORK / f"spans-{workload.name}.tsv.gz")
    metrics = tracer.derive(traced.scales())
    metrics["trace.overhead_frac"] = (statistics.median(traced.scaled_latencies())
                                      / statistics.median(plain.scaled_latencies()) - 1)
    metrics["host.reference_ms"] = statistics.median(plain.refs + traced.refs) * 1e3
    results = plain.results + traced.results
    print(json.dumps({"workload": workload.name, "ops": len(results),
                      "spans": len(tracer.start)}))
    return metrics, len(results), sum(not r.ok for r in results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    path = WORK / f"op-{os.getpid()}.site"
    rng = random.Random(args.seed)
    relabel = gen.Relabeller(rng)
    try:
        setups = [setup(workload, relabel, path) for _ in range(SETUPS)]
        cli, stream = setups[-1].cli, workload.ops(rng, relabel)
        if args.trace:
            metrics, attempted, failed = traced_run(cli, workload, stream, args.seconds, path)
        else:
            metrics, attempted, failed = plain_run(cli, workload, stream, args.seconds,
                                                   path, rng)
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        path.unlink(missing_ok=True)
    metrics["setup_s"] = statistics.median(s.scaled_s for s in setups)
    failed += sum(not s.warm.ok for s in setups)
    attempted += len(setups)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in reported}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
