#!/usr/bin/env python3
"""Benchmark of the compauction toolkit: one workload, one seed, one run.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory, never from an installed copy. One client in this process
issues one instance at a time through ``compauction.cli.main`` (a closed
loop), so the ``cli`` and ``serialize`` layers are part of every timing. The
instance list runs pass after pass while another pass fits in ``--seconds``;
each program call counts with its best pass, and every answer is checked
outside the timed calls. The last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A traced run times one untraced pass and then the same pass
with the tracer installed, and writes its spans under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# One compute thread for NumPy, and the CLI's default of one worker process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("COMPAUCTION_THREADS", None)

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUPS = 5  # set-up repeats; setup_s is their median
TAIL_BEYOND = 10  # the tail percentile keeps this many instances above it

END_TO_END = {
    "wall_s": "s",
    "instance_s.p50": "s",
    "instance_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
TRACE_METRICS = ["trace.overhead_s", "trace.wall_s", "trace.untraced_wall_s",
                 "trace.top_level_s"]
PER_LAYER = {name: tracing.unit_of(name) for name in tracing.METRICS + TRACE_METRICS}


class SetupError(RuntimeError):
    """The checkout does not hold the program this benchmark measures."""


def load_program() -> SimpleNamespace:
    """Import every compauction module afresh from the checkout's ``src/``."""
    if not (SRC / "compauction" / "__init__.py").is_file():
        raise SetupError(f"no compauction package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "compauction" or m.startswith("compauction.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"compauction.{name}") for name in tracing.MODULES}
    if Path(modules["cli"].__file__).resolve().parent != SRC / "compauction":
        raise SetupError(f"compauction was imported from {modules['cli'].__file__}")
    return SimpleNamespace(modules=modules, **modules)


def set_up(workload: str, seed: int, workdir: Path, scale: str):
    """Import, write the seeded inputs, and warm up on the first instance."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    prog = load_program()
    instances = workloads.build(prog, workload, seed, str(workdir), scale)
    workloads.run_instance(instances[0], workloads.Runner(prog))
    return prog, instances


def run_pass(instances, runner, tracer=None) -> list:
    results = []
    for inst in instances:
        if tracer is not None:
            tracer.request = inst.label
        results.append(workloads.run_instance(inst, runner))
    return results


def pass_wall(results) -> float:
    return sum(sum(r.calls) for r in results)


def best_times(passes: list[list]) -> list[float]:
    """Each instance's time: the sum over its program calls of each call's best pass.

    The best of several passes drops the time a call spent while the shared
    host ran it slowly, which a median over a few passes does not.
    """
    times = []
    for runs in zip(*passes):  # one instance, every pass
        if len({len(r.calls) for r in runs}) == 1:
            times.append(sum(min(call) for call in zip(*(r.calls for r in runs))))
        else:  # a failing call cut one pass short
            times.append(min(sum(r.calls) for r in runs))
    return times


def tail_of(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND - 1
    if rank < 0:  # too few instances for any such percentile: report the maximum
        rank = len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def measure(workload: str, seed: int, seconds: float, traced: bool, scale: str = "full") -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    setup_times = []
    try:
        for _ in range(SETUPS):
            start = time.perf_counter()
            prog, instances = set_up(workload, seed, workdir, scale)
            setup_times.append(time.perf_counter() - start)

        runner = workloads.Runner(prog)
        started = time.perf_counter()
        passes = [run_pass(instances, runner)]
        if traced:
            tracer = tracing.Tracer(prog.modules)
            runner.tracer = tracer
            tracer.install()
            try:
                passes.append(run_pass(instances, runner, tracer))
            finally:
                tracer.uninstall()
            tracer.write_spans(str(WORK / f"spans-{workload}-{seed}.jsonl"))
        else:
            while True:
                walls = [pass_wall(p) for p in passes]
                if time.perf_counter() - started + statistics.median(walls) > seconds:
                    break
                passes.append(run_pass(instances, runner))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [r for p in passes for r in p]
    failed = [r for r in results if r.problems]
    for r in failed:
        print(f"FAILED {r.label}: {'; '.join(r.problems)}", file=sys.stderr)
    walls = [pass_wall(p) for p in passes]
    if traced:
        values = {name: 0 for name in PER_LAYER}
        values.update({k: v for k, v in tracer.aggregate().items() if k in PER_LAYER})
        values["trace.untraced_wall_s"], values["trace.wall_s"] = walls
        values["trace.overhead_s"] = walls[1] - walls[0]
        units = PER_LAYER
    else:
        times = best_times(passes)
        tail, pct = tail_of(times)
        print(f"# {workload} seed {seed}: {len(passes)} passes of {len(times)} instances, "
              f"instance_s.tail is p{pct:.1f}, failed_frac {len(failed) / len(results):.4f}")
        values = {
            "wall_s": sum(times),
            "instance_s.p50": statistics.median(times),
            "instance_s.tail": tail,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']} {metric['unit']}")
    return {"correct": not failed, "attempted": len(results), "failed": len(failed),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="'small' is the self-test size")
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
