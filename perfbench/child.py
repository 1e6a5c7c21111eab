"""One fresh benchmark process: import dctapprox, run one workload, write a
JSON record of what it measured.  Started by run.py; not run directly.

Both modes time the import and then the cycle's first operation, cold.
Then:
  run    the first operation again, warm (or, when --start is 0, the
         first of the loop is that repeat), then operations in cycle
         order from --start for --seconds, at least one
  trace  untraced and traced operations in turn for --seconds

Every operation's output is checked; a raise or a mismatch counts as a
failed operation.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_TRACED = 3
# What a user of each workload imports: the library, or the CLI module.
IMPORT_TARGET = {"search": "dctapprox", "sweep": "dctapprox", "oneshot": "dctapprox.cli"}


class Runner:
    """Runs and checks operations, counting attempts and failures."""

    def __init__(self, wl, check) -> None:
        self.wl = wl
        self.check = check
        self.attempted = 0
        self.failures: list[str] = []
        self.work = Counter()     # computed work of traced operations
        self.counts = Counter()   # result counts of traced operations

    def op(self, i: int, tracer=None) -> float:
        """Run operation `i`, check it, return its wall time."""
        wl = self.wl
        wl.before(i)
        self.attempted += 1
        if tracer is not None:
            tracer.begin_op(self.attempted)
        error = None
        start = time.perf_counter()
        try:
            result = wl.run(i)
        except Exception as exc:  # a failed operation, not a failed benchmark
            error = f"op {i} raised {exc!r}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        if error is None:
            try:
                bad = self.check(wl, i, result)
            except Exception as exc:
                bad = [f"check raised {exc!r}"]
            if bad:
                error = f"op {i} ({wl.key}) output differs: {', '.join(bad)}"
            elif tracer is not None and hasattr(wl, "counts"):
                self.counts.update(wl.counts(result))
        if error is not None:
            self.failures.append(error)
        if tracer is not None:
            self.work.update(wl.work(i))
        return elapsed

    def loop(self, seconds: float, first: int) -> tuple[list[float], float]:
        """Operations in cycle order from index `first` for `seconds` (at
        least one); returns their times and the work units they represent."""
        times, units = [], 0.0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or not times:
            i = (first + len(times)) % self.wl.cycle
            times.append(self.op(i))
            units += self.wl.work(i)["units"]
        return times, units


def per_layer(tracer, runner: Runner, n_ops: int) -> dict[str, float]:
    """Per-operation figures of the traced operations, by layer."""
    calls, total, own, values = Counter(), Counter(), Counter(), Counter()
    for idx, ((name, start, end, _, _), self_s) in enumerate(
        zip(tracer.spans, tracer.self_times())
    ):
        calls[name] += 1
        total[name] += end - start
        own[name] += self_s
        values[name] += tracer.values.get(idx, 0)

    def per_op(d, name):
        return d[name] / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    c, w = runner.counts, runner.work
    codec_s = total["codec.retention_sweep"] + total["codec.compress_image"]
    m = {
        "search.enumerate_s": per_op(total, "search.enumerate"),
        "search.feasible_mask_s": per_op(total, "search.feasible_mask"),
        "search.pareto_s": per_op(total, "search.pareto"),
        "search.self_s": per_op(own, "search.run_search"),
    }
    for k in ("candidates", "feasible", "front", "ties"):
        m[f"search.{k}"] = c[k] / n_ops
    m["search.feasible_ratio"] = ratio(c["feasible"], c["candidates"])
    m["search.front_ratio"] = ratio(c["front"], c["feasible"])
    for layer, func in (("metrics", "evaluate"), ("metrics", "evaluate_matrix"),
                        ("core", "is_feasible"), ("core", "orthonormal_approx"),
                        ("kernel", "complexity"), ("scaling", "build_scaled"),
                        ("codec", "ssim"), ("codec", "psnr")):
        m[f"{layer}.{func}_calls"] = per_op(calls, f"{layer}.{func}")
        m[f"{layer}.{func}_s"] = per_op(total, f"{layer}.{func}")
    m["codec.transform_s"] = (
        own["codec.retention_sweep"] + own["codec.compress_image"]
    ) / n_ops
    m["codec.ssim_share"] = ratio(total["codec.ssim"], codec_s)
    for k in ("levels", "dense_macs", "butterfly_adds", "butterfly_shifts"):
        m[f"codec.{k}"] = w[k] / n_ops
    m["pgm.read_s"] = per_op(total, "pgm.read_pgm")
    m["pgm.bytes_read"] = per_op(values, "pgm.read_pgm")
    m["pgm.write_s"] = per_op(total, "pgm.write_pgm")
    m["cli.commands"] = per_op(calls, "cli.main")
    m["cli.self_s"] = per_op(own, "cli.main")
    m["trace.spans"] = len(tracer.spans) / n_ops
    return m


def blas_name(np) -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # only a label for the record
        return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    # Nothing has imported numpy yet, so its import is timed with dctapprox's.
    start = time.perf_counter()
    importlib.import_module(IMPORT_TARGET[args.workload])
    import_s = time.perf_counter() - start
    dx = sys.modules["dctapprox"]
    if Path(dx.__file__).resolve().parent != ROOT / "src" / "dctapprox":
        print(f"dctapprox imported from {dx.__file__}, not from src/", file=sys.stderr)
        return 2

    import numpy as np
    import workloads

    refs = json.loads((HERE / "refs.json").read_text())
    wl = workloads.WORKLOADS[args.workload](dx, args.seed)
    runner = Runner(wl, lambda wl, i, result: workloads.mismatches(wl, i, result, refs))
    record = {
        "mode": args.mode,
        "key": wl.key,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(np),
        "import_s": import_s,
    }

    first = args.start % wl.cycle
    record["first_s"] = runner.op(0)
    if args.mode == "run":
        if first:
            record["warm_s"] = runner.op(0)
        record["times"], record["units"] = runner.loop(args.seconds, first)
        record.setdefault("warm_s", record["times"][0])
    else:
        import tracing

        # Untraced and traced operations alternate, so both see the same
        # machine conditions; the wrappers are only installed for the latter.
        tracer = tracing.Tracer()
        plain, traced = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(traced) < MIN_TRACED:
            i = (first + len(traced)) % wl.cycle
            plain.append(runner.op(i))
            tracer.install()
            try:
                traced.append(runner.op(i, tracer))
            finally:
                tracer.uninstall()
        tracer.write_spans(workloads.OUT / f"spans-{args.workload}-{args.seed}.csv.gz")
        record["times"], record["traced_times"] = plain, traced
        layers = per_layer(tracer, runner, len(traced))
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        record["per_layer"] = layers

    record["attempted"] = runner.attempted
    record["failures"] = runner.failures
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
