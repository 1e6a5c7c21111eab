"""dctapprox benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {search,sweep,oneshot} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``, nothing is installed.  Each measurement runs in a fresh,
single-threaded child process (perfbench/child.py), one at a time:

  --trace 0  three children measure operations for S/3 seconds each,
             continuing one cycle of inputs (op_p50_s, op_p90_s,
             work_per_s, peak_rss_mb).  A set-up child runs between two of
             them.  Each child times its import and one cold operation
             followed by the same operation warm; setup_s is the median
             import time plus the smallest excess of a cold operation
             over its warm repeat.
  --trace 1  one child runs operations for S seconds, every other one
             with spans at each module boundary, and reports per-layer
             figures per traced operation plus the tracing overhead
             (traced minus untraced median operation time).

The last line of standard output is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
A record with the environment, raw samples and failures is written to
perfbench/out/.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("search", "sweep", "oneshot")
MEASURING_CHILDREN = 3
SETUP_CHILDREN = 1   # between two measuring children: a cold and a warm op
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
REQUIRED = (Path("src/dctapprox/__init__.py"), Path("tests/data/golden_front.csv"),
            Path("tests/data/golden_tables"))


def with_units(values: dict, section: str) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec[section]}
    if set(values) != set(declared):
        raise SystemExit(f"metrics differ from BENCHMARK.json {section}: "
                         f"{sorted(set(values) ^ set(declared))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dctapprox").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "blas_threads": {v: "1" for v in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "search_workers": 1,
        "max_concurrent_children": 1,
    }


def run_child(workload: str, seed: int, mode: str, seconds: float, start: int,
              deadline: float, tag: str) -> dict:
    result = OUT / f"child-{workload}-{tag}.json"
    result.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("DCTAPPROX_")}
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
           "--start", str(start), "--result", str(result)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise SystemExit(f"benchmark child ({mode}) exited with {proc.returncode}")
    return json.loads(result.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [str(p) for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a dctapprox checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = environment()
    OUT.mkdir(exist_ok=True)
    # Byte-compile once so every child's import reads the same cached code.
    compileall.compile_dir(ROOT / "src" / "dctapprox", quiet=1)

    children = []
    if args.trace:
        main_child = run_child(args.workload, args.seed, "trace", args.seconds, 0,
                               deadline, "trace")
        children.append(main_child)
        times = main_child["times"]
        metrics = with_units(main_child["per_layer"], "per_layer")
    else:
        # The measured loop is split over several children, with set-up
        # children between them, so that it spans the whole run.
        times, units, cursor = [], 0.0, 0
        for k in range(MEASURING_CHILDREN):
            if k:
                for j in range(SETUP_CHILDREN):
                    children.append(run_child(args.workload, args.seed, "run", 0, 0,
                                              deadline, f"setup{k}.{j}"))
            c = run_child(args.workload, args.seed, "run", args.seconds / MEASURING_CHILDREN,
                          cursor, deadline, f"run{k}")
            children.append(c)
            times += c["times"]
            units += c["units"]
            cursor += len(c["times"])
        main_child = children[0]
        imports = [c["import_s"] for c in children]
        # A cold operation slower than the warm one by a first-call cost
        # pays it in every process; host noise only adds to some.  The
        # smallest excess, never below 0, is the first-call cost.
        excess = min(max(0.0, c["first_s"] - c["warm_s"]) for c in children)
        values = {
            "op_p50_s": statistics.median(times),
            "op_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
            "work_per_s": units / sum(times),
            "setup_s": statistics.median(imports) + excess,
            "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
        }

    attempted = sum(c["attempted"] for c in children)
    failures = [f for c in children for f in c["failures"]]
    if not args.trace:
        values["success_rate"] = 1.0 - len(failures) / attempted
        metrics = with_units(values, "end_to_end")
    env.update(numpy=main_child["numpy"], blas=main_child["blas"])
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "input": main_child["key"], "env": env,
              "children": children, "result": result}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    for f in failures[:10]:
        print(f"FAILED: {f}")
    print(f"env: {json.dumps(env)}")
    print(f"{args.workload} input={main_child['key']} ops={len(times)} "
          + " ".join(f"{k}={m['value']:.6g}{m['unit']}" for k, m in metrics.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
