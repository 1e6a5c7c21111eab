"""The three benchmark workloads: inputs made from a seed, one timed
operation, the outputs it is checked on, and the work it represents.

Every workload calls dctapprox only through attributes of the package
object it is given (``dx.run_search``, ``dx.cli.main``, ...), looked up at
call time, so the tracer's wrappers see every call.

A seed selects one of a fixed set of input variants (``seed % variants``);
`record_refs.py` records the output digests of every variant, so any seed
can be checked.  Outputs that have a golden file in ``tests/data`` are
compared with it byte for byte instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"   # run artifacts (ignored by git)
GOLDEN_FRONT = ROOT / "tests" / "data" / "golden_front.csv"
GOLDEN_TABLES = ROOT / "tests" / "data" / "golden_tables"

SEARCH_RHOS = (0.90, 0.95, 0.97)
N_VARIANTS = 8
# Equal pixel counts, so operations on either image cost the same; neither
# side is a multiple of 8, so every block size pads.
SWEEP_SHAPES = ((500, 524), (524, 500))
ONESHOT_SHAPE = (512, 512)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fmt6(x: float) -> str:
    """The CLI's CSV number format."""
    return format(x, ".6g")


def params_arg(pv) -> str:
    return ",".join(format(v, "g") for v in pv.values)


def ar1_image(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """Separable 2-d AR(1) field with seed-chosen correlations, as uint8."""
    rho_x, rho_y = rng.uniform(0.85, 0.97, size=2)
    z = rng.standard_normal((height, width))
    cx, cy = math.sqrt(1 - rho_x**2), math.sqrt(1 - rho_y**2)
    for j in range(1, width):
        z[:, j] = rho_x * z[:, j - 1] + cx * z[:, j]
    for i in range(1, height):
        z[i] = rho_y * z[i - 1] + cy * z[i]
    return np.clip(np.rint(128.0 + 40.0 * z), 0, 255).astype(np.uint8)


def work_dir(name: str) -> Path:
    path = OUT / f"work-{name}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_pgm_bytes(path: Path, image: np.ndarray) -> None:
    h, w = image.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + image.tobytes())


def codec_work(shape, n: int, levels: int, cost) -> dict:
    """Work of one forward transform plus `levels` masked inverses over an
    image, computed from the array sizes: dense multiply-adds of
    ``M @ B @ M.T`` per block, and the same passes counted on the paper's
    butterfly (``cost`` is its ComplexityCount; None for the exact DCT)."""
    hp, wp = (-(-s // n) * n for s in shape)
    passes = 1 + levels
    rows = 2 * (hp // n) * (wp // n) * n * passes   # 1-d transforms applied
    return {
        "levels": levels,
        "dense_macs": rows * n * n,
        "butterfly_adds": 0 if cost is None else rows * cost.additions,
        "butterfly_shifts": 0 if cost is None else rows * cost.shifts,
    }


class Search:
    """One operation: a filtered ``run_search`` over all 7^8 candidates."""

    name = "search"
    variants = len(SEARCH_RHOS)

    def __init__(self, dx, seed: int) -> None:
        self.dx = dx
        importlib.import_module("dctapprox.cli")   # write_front_csv renders the check
        self.rho = SEARCH_RHOS[seed % self.variants]
        self.key = f"rho={self.rho}"
        self.cycle = 1
        self.front_path = work_dir(self.name) / "front.csv"

    def before(self, i: int) -> None:
        self.front_path.unlink(missing_ok=True)

    def run(self, i: int):
        return self.dx.run_search(self.dx.SignalModel(rho=self.rho, n=8), workers=1)

    def outputs(self, i: int, result) -> dict[str, bytes]:
        self.dx.cli.write_front_csv(result, self.front_path)
        ties = "".join(f"{e.params}\n" for e in result.entries if not e.canonical)
        return {"front.csv": self.front_path.read_bytes(), "ties": ties.encode()}

    def golden(self, i: int) -> dict[str, Path]:
        return {"front.csv": GOLDEN_FRONT} if self.rho == 0.95 else {}

    def work(self, i: int) -> dict:
        return {"units": self.dx.N_CANDIDATES / 1e6}

    @staticmethod
    def counts(result) -> dict:
        return {
            "candidates": result.n_candidates,
            "feasible": result.n_feasible,
            "front": len(result.canonical),
            "ties": len(result.entries) - len(result.canonical),
        }


class Sweep:
    """One operation: ``retention_sweep`` of one image with one transform
    over the 38-level default grid."""

    name = "sweep"
    variants = N_VARIANTS

    def __init__(self, dx, seed: int) -> None:
        self.dx = dx
        variant = seed % self.variants
        self.key = f"v{variant}"
        rng = np.random.default_rng([2, variant])
        self.images = [ar1_image(rng, h, w) for h, w in SWEEP_SHAPES]
        picks = rng.choice(np.arange(1, 16), size=3, replace=False)
        transforms = []   # (transform, n, butterfly cost or None)
        for n, entry in zip((8, 16, 32), picks):
            pv = dx.CATALOG[int(entry)]
            if n == 8:
                approx, cost = dx.orthonormal_approx(pv), dx.complexity(pv)
            else:
                approx = dx.build_scaled(pv, n)
                cost = approx.complexity
            transforms.append((dx.exact_dct_matrix(n), n, None))
            transforms.append((approx, n, cost))
        # Interleave sizes and images so that any prefix of the cycle mixes them.
        order = [0, 3, 4, 1, 2, 5]   # dct8, c@16, dct32, c@8, dct16, c@32
        self.ops = [
            (transforms[t], (k + rnd) % 2)
            for rnd in range(2) for k, t in enumerate(order)
        ]
        self.cycle = len(self.ops)
        self.grid = dx.default_r_grid()

    def before(self, i: int) -> None:
        pass

    def run(self, i: int):
        (transform, _, _), img = self.ops[i]
        return self.dx.retention_sweep(self.images[img], transform, self.grid)

    def outputs(self, i: int, result) -> dict[str, bytes]:
        text = "".join(f"{fmt6(r)},{fmt6(p)},{fmt6(s)}\n" for r, p, s in result)
        return {"curve": text.encode()}

    def golden(self, i: int) -> dict[str, Path]:
        return {}

    def work(self, i: int) -> dict:
        (_, n, cost), img = self.ops[i]
        shape = self.images[img].shape
        levels = len(self.grid)
        return {"units": shape[0] * shape[1] / 1e6 * levels,
                **codec_work(shape, n, levels, cost)}


class Oneshot:
    """One operation: the CLI commands a user runs one at a time, called
    in-process through ``dctapprox.cli.main``."""

    name = "oneshot"
    variants = N_VARIANTS

    def __init__(self, dx, seed: int) -> None:
        self.dx = dx
        variant = seed % self.variants
        self.key = f"v{variant}"
        rng = np.random.default_rng([3, variant])
        entry = int(rng.integers(1, 16))
        r = dx.default_r_grid()[int(rng.integers(38))]
        pv = dx.CATALOG[entry]
        self.butterfly = dx.complexity(pv)
        image = ar1_image(rng, *ONESHOT_SHAPE)

        # Relative paths: the CLI echoes them, and they must not depend on
        # where the checkout lives (the benchmark runs from its root).
        work = work_dir(self.name).relative_to(ROOT)
        pgm, t8, t32 = work / "in.pgm", work / "t8.json", work / "t32.json"
        self.tables = work / "tables"
        self.recon, self.metrics = work / "recon.pgm", work / "metrics.csv"
        write_pgm_bytes(ROOT / pgm, image)
        p = params_arg(pv)
        self.commands = [
            ("gen", ["gen", "--params", p, "--out", str(t8)]),
            ("eval8", ["eval", "--params", p]),
            ("eval16", ["eval", "--params", p, "--size", "16"]),
            ("eval32", ["eval", "--params", p, "--size", "32"]),
            ("scale", ["scale", "--seed", p, "--size", "32", "--out", str(t32)]),
            ("report", ["report", "--in", str(GOLDEN_FRONT.relative_to(ROOT)),
                        "--out-dir", str(self.tables)]),
            ("compress", ["compress", "--in", str(pgm), "--transform", str(t8),
                          "--r", repr(r), "--out", str(self.recon),
                          "--metrics", str(self.metrics)]),
        ]
        self.files = {"t8.json": t8, "t32.json": t32, "metrics.csv": self.metrics,
                      "recon.pgm": self.recon}
        self.cycle = 1

    def before(self, i: int) -> None:
        for path in self.files.values():
            (ROOT / path).unlink(missing_ok=True)
        tables = ROOT / self.tables
        if tables.exists():
            for f in tables.iterdir():
                f.unlink()

    def run(self, i: int):
        results = {}
        for label, argv in self.commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.dx.cli.main(argv)
            results[label] = (code, buf.getvalue())
        return results

    def outputs(self, i: int, result) -> dict[str, bytes]:
        out = {}
        for label, (code, stdout) in result.items():
            out[f"{label}.exit"] = str(code).encode()
            out[f"{label}.stdout"] = stdout.encode()
        for name, path in self.files.items():
            out[name] = (ROOT / path).read_bytes()
        tables = ROOT / self.tables
        for f in sorted(tables.iterdir()) if tables.exists() else ():
            out[f"tables/{f.name}"] = f.read_bytes()
        return out

    def golden(self, i: int) -> dict[str, Path]:
        return {f"tables/{f.name}": f for f in sorted(GOLDEN_TABLES.iterdir())}

    def work(self, i: int) -> dict:
        return {"units": 1.0, **codec_work(ONESHOT_SHAPE, 8, 1, self.butterfly)}


WORKLOADS = {w.name: w for w in (Search, Sweep, Oneshot)}


def mismatches(wl, i: int, result, refs: dict) -> list[str]:
    """Names of the outputs of operation `i` that differ from their golden
    file or recorded digest; a missing or unexpected output also counts."""
    got = wl.outputs(i, result)
    golden = wl.golden(i)
    expected = refs[wl.name][wl.key][i]
    bad = sorted(set(golden) ^ (set(got) - set(expected)))
    bad += [name for name, path in golden.items()
            if name in got and got[name] != path.read_bytes()]
    bad += [name for name, want in expected.items()
            if name not in got or digest(got[name]) != want]
    return bad
