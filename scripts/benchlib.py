"""The A/B harness the BENCH scripts share: parent and change, row by row.

A script ``bench_<name>.py`` hands ``main`` its rows, each a list of JSON
arguments for its one-run ``bench_row``, and writes ``BENCH_<name>.json``.
For each row the harness runs ``bench_row(*row)`` once per side in a fresh
interpreter, one child at a time, with ``PYTHONPATH`` set to that side's
``src`` plus this directory.  It runs ``REPEATS`` pairs per row, and the order
flips each pair (the parent first in even pairs), so load on the host falls
on both sides alike.  Each side's runs become one row: a field ending in
``_s`` (a time, or a list of times, pooled over the runs) becomes its median
and its minimum ``*_min_s``; every other field must repeat exactly.

``--parent SRC`` names the ``src`` of another checkout, for instance one made
by ``git worktree add ../parent HEAD~1``; without it only the change side
runs.  The output holds the machine, the repeats, the change's rows and,
with ``--parent``, the parent's rows under ``parent``.  The script exits 1
when a row of either side fails the script's ``passes``, or when a field the
script names in ``same`` differs between the sides; every other field that
differs is printed without failing.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

REPEATS = 3  # pairs of runs per row
SCRIPTS = Path(__file__).resolve().parent
CHILD = ("import json, sys; from {} import bench_row; "
         "print(json.dumps(bench_row(*json.loads(sys.argv[1]))))")


def order(pair: int) -> tuple[str, str]:
    """The sides of one pair in the order they run."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def summarize(runs: list[dict]) -> dict:
    """One side's runs of a row as one row: each ``*_s`` field as the median
    and the minimum ``*_min_s`` of its pooled times; any other field must be
    the same in every run."""
    row = {}
    for key, value in runs[0].items():
        if key.endswith("_s"):
            times = [t for run in runs
                     for t in (run[key] if isinstance(run[key], list) else [run[key]])]
            row[key], row[key[:-2] + "_min_s"] = statistics.median(times), min(times)
        elif any(run[key] != value for run in runs):
            raise ValueError(f"{key} differs between runs: {[run[key] for run in runs]}")
        else:
            row[key] = value
    return row


def run_child(module: str, src: Path, row: list) -> dict:
    """``bench_row(*row)`` of ``module`` in a fresh interpreter on ``src``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(SCRIPTS)])}
    out = subprocess.run([sys.executable, "-c", CHILD.format(module), json.dumps(row)],
                         env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def differing(labels: list[str], rows: list[dict], parent: list[dict],
              same) -> list[str]:
    """Print each non-time field that differs between the two sides of a row,
    and return the differences in a field of ``same``."""
    found = []
    for label, row, before in zip(labels, rows, parent):
        for key in row:
            if not key.endswith("_s") and row[key] != before[key]:
                print(f"# {label}: {key} {before[key]} at the parent, {row[key]} here")
                found += [f"{label} {key}"] if key in same else []
    return found


def main(script: str, rows: list[list], passes=lambda row: True, same=()) -> int:
    """Run every row on each side, write ``BENCH_<name>.json`` and return the
    exit code."""
    summary = sys.modules["__main__"].__doc__.splitlines()[0]
    parser = argparse.ArgumentParser(description=summary)
    parser.add_argument("--parent", metavar="SRC", type=Path,
                        help="src of another checkout, alternated with this one")
    args = parser.parse_args()
    srcs = {"change": SCRIPTS.parent / "src"}
    if args.parent:
        srcs["parent"] = args.parent.resolve()
    module, labels = Path(script).stem, [" ".join(map(str, row)) for row in rows]
    found = {side: [] for side in srcs}
    for row, label in zip(rows, labels):
        runs = {side: [] for side in srcs}
        for pair in range(REPEATS):
            for side in order(pair):
                if side in srcs:
                    runs[side].append(run_child(module, srcs[side], row))
        for side in srcs:
            found[side].append(summarize(runs[side]))
            times = ", ".join(f"{k} {v:.4g}" for k, v in found[side][-1].items()
                              if k.endswith("_s") and not k.endswith("_min_s"))
            print(f"# {label}: {side} {times}", flush=True)

    doc = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "platform": platform.platform(),
        },
        "repeats": REPEATS,
        "rows": found["change"],
    }
    if args.parent:
        doc["parent"] = {"rows": found["parent"]}
    out = f"BENCH_{module.removeprefix('bench_')}.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    print(f"# wrote {out}")
    ok = not differing(labels, found["change"], found.get("parent", []), same)
    ok = all(passes(row) for side in found.values() for row in side) and ok
    return 0 if ok else 1
