"""One rung of a workload's size ladder, in its own process.

    python3 perfbench/rung.py --workload classify --size 12 --seed 7

Runs the ladder's single op at `--size` under a CPU-time budget: a SIGPROF
timer stops the op when the process has used the workload's `budget_s` of
CPU, so waiting for a processor does not count.  Times are not scaled by
the reference (see `refclock`): a reference snapshot taken before and after
a seconds-long op misses the host's speed changes during it.  The ladder
steps instead leave a margin of about 1.7x or more between the budget and
the rungs on either side of it.  The address space is capped so a runaway
rung fails instead of exhausting memory.  Prints one JSON line: whether the
op finished, whether its verdict was right, and its CPU seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import sys

import gen
import run
import workloads

ADDRESS_SPACE = 2 << 30


class OverBudget(BaseException):
    """Raised from the SIGPROF handler; a BaseException so that no
    `except Exception` inside sitecalc swallows it."""


def _stop(signum, frame):
    raise OverBudget


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    ladder = workloads.WORKLOADS[args.workload].ladder

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    cli = run.import_sitecalc()
    op = ladder.make(gen.Relabeller(random.Random(args.seed)), args.size)
    run.WORK.mkdir(exist_ok=True)
    path = run.WORK / f"rung-{os.getpid()}.site"
    out = {"finished": False, "correct": True, "cpu_s": None}
    signal.signal(signal.SIGPROF, _stop)
    try:
        signal.setitimer(signal.ITIMER_PROF, ladder.budget_s)
        result = run.run_op(cli, op, path)
        signal.setitimer(signal.ITIMER_PROF, 0)
        out.update(finished=result.cpu_s <= ladder.budget_s, correct=result.ok,
                   cpu_s=result.cpu_s)
    except (OverBudget, MemoryError):
        signal.setitimer(signal.ITIMER_PROF, 0)
    finally:
        path.unlink(missing_ok=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
