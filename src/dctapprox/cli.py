"""Command-line entry point.

Subcommands: gen, eval, search, scale, compress, sweep, report.  Every
subcommand is deterministic given its flags; search accepts ``--workers``
but runs in one process whatever its value.  A parameter vector becomes a
transform at 8, 16 or 32 points through `build_scaled` alone (``report``,
which needs all three sizes, through `build_scaled_sizes`, the same path):
``gen`` is ``scale`` at size 8, and ``eval`` takes its metric and
complexity rows at ``--size`` from the same transform.  Exit codes:
0 success, 2 usage error, 3 infeasible transform, 4 I/O error.  The environment variable
DCTAPPROX_RHO overrides the default correlation coefficient of 0.95.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .codec import (
    RetentionPolicy,
    ape,
    compress_image,
    default_r_grid,
    retention_sweep,
)
from .core import SIZES, FeasibilityError, ParamVector, Transform, _read_json, exact_dct_matrix
from .metrics import DEFAULT_RHO, MetricsReport, SignalModel, evaluate, evaluate_matrix
from .pgm import read_pgm, write_pgm
from .scaling import build_scaled, build_scaled_sizes
from .search import SearchResult, run_search

__all__ = ["parse_params", "write_front_csv", "report_tables", "main"]

EVAL_HEADER = "a1,a2,a3,a4,a5,a6,a7,a8,epsilon,mse,cg,eta,adds,shifts"
COMPLEXITY_HEADER = "a1,a2,a3,a4,a5,a6,a7,a8,adds,shifts,rule"
FRONT_HEADER = "rank," + EVAL_HEADER
CURVES_HEADER = "transform_id,r,psnr,ssim,ape_psnr,ape_ssim"
PER_IMAGE_HEADER = "transform_id,r,image,psnr,ssim"
_MAX_R_LEVELS = 10_000  # largest (stop - start) / step that --r-grid accepts


def parse_params(text: str) -> ParamVector:
    """Parse a comma-separated 8-parameter string; accepts 0.5 and 1/2."""
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) != 8:
        raise ValueError(f"expected 8 comma-separated parameters, got {len(tokens)}")
    return ParamVector.from_values(tokens)


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _fmt2(x: float) -> str:
    return f"{x:.2f}"


def _param_cols(pv: ParamVector) -> list[str]:
    return [format(v, "g") for v in pv.values]


def _report_cols(rep: MetricsReport, fmt) -> list[str]:
    return [fmt(rep.epsilon), fmt(rep.mse), fmt(rep.coding_gain_db),
            fmt(rep.efficiency_pct), str(rep.additions), str(rep.shifts)]


def _default_rho() -> float:
    env = os.environ.get("DCTAPPROX_RHO")
    return float(env) if env else DEFAULT_RHO


def _resolve_rho(args) -> float:
    return args.rho if args.rho is not None else _default_rho()


# --- CSV / markdown rendering -----------------------------------------------

def write_front_csv(result: SearchResult, path) -> None:
    lines = [
        f"# rho={result.model.rho!r}",
        f"# candidates={result.n_candidates}",
        f"# feasible={'' if result.n_feasible is None else result.n_feasible}",
        f"# front={len(result.canonical)}",
        FRONT_HEADER,
    ]
    for rank, entry in enumerate(result.canonical, start=1):
        lines.append(
            ",".join([str(rank)] + _param_cols(entry.params) + _report_cols(entry.report, _fmt))
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _parse_front_csv(path) -> tuple[dict[str, str], list[dict]]:
    meta: dict[str, str] = {}
    rows: list[dict] = []
    header: list[str] | None = None
    for raw in Path(path).read_text(encoding="ascii").splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if "=" in line:
                key, _, val = line.lstrip("# ").partition("=")
                meta[key.strip()] = val.strip()
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            if header != FRONT_HEADER.split(","):
                raise ValueError(f"unexpected front CSV header in {path}")
            continue
        if len(cells) != len(header):
            raise ValueError(f"malformed front CSV row: {line!r}")
        rows.append(dict(zip(header, cells)))
    if header is None:
        raise ValueError(f"no header row in {path}")
    return meta, rows


def _md_table(headers: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---:" for _ in headers) + "|",
    ]
    lines.extend("| " + " | ".join(r) + " |" for r in rows)
    return "\n".join(lines) + "\n"


def _write_pair(out_dir: Path, stem: str, headers: list[str], rows: list[list[str]]) -> list[Path]:
    csv_path = out_dir / f"{stem}.csv"
    md_path = out_dir / f"{stem}.md"
    csv_path.write_text(
        ",".join(headers) + "\n" + "".join(",".join(r) + "\n" for r in rows),
        encoding="ascii",
    )
    md_path.write_text(_md_table(headers, rows), encoding="ascii")
    return [csv_path, md_path]


def report_tables(front_csv, out_dir, rho: float | None = None) -> list[Path]:
    """Render catalog-style summaries from a search front CSV.

    Produces params (table1) and 8-, 16- and 32-point metrics (table2,
    table4, table6), all computed at one rho (the flag, else the CSV's,
    else the default), each as CSV and markdown with 2-decimal presentation
    rounding.  The CSV supplies the ranks and parameters only.  Each seed
    is grown 8 -> 16 -> 32 once, and each metric table is one
    `evaluate_matrix` call on the stack of its seeds' scaled transforms,
    equal bit for bit to `evaluate` per seed.  Every table is computed
    before the directory is created, so a bad rho or seed writes nothing.
    """
    meta, rows = _parse_front_csv(front_csv)
    if rho is None:
        rho = float(meta["rho"]) if "rho" in meta else _default_rho()

    params_headers = ["j"] + [f"a{i}" for i in range(1, 9)]
    params_rows = [[r["rank"]] + [r[f"a{i}"] for i in range(1, 9)] for r in rows]
    tables = [("table1", params_headers, params_rows)]
    seeds = [parse_params(",".join(row[1:])) for row in params_rows]

    metric_headers = ["j", "epsilon", "mse", "cg", "eta", "adds", "shifts"]
    grown = [build_scaled_sizes(pv, SIZES) for pv in seeds]
    for k, (stem, size) in enumerate(zip(("table2", "table4", "table6"), SIZES)):
        model = SignalModel(rho=rho, n=size)
        scaled = [g[k] for g in grown]
        # reshape, unlike np.stack, also takes an empty front
        stack = np.reshape([st.transform.matrix for st in scaled], (-1, size, size))
        metric_rows = []
        for r, st, values in zip(rows, scaled, zip(*evaluate_matrix(stack, model))):
            c = st.complexity
            rep = MetricsReport(*map(float, values), c.additions, c.shifts)
            metric_rows.append([r["rank"]] + _report_cols(rep, _fmt2))
        tables.append((stem, metric_headers, metric_rows))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return [path for table in tables for path in _write_pair(out_dir, *table)]


# --- transform selection -----------------------------------------------------

def _transform_for(args) -> tuple[str, object, int]:
    """(identifier, transform object, size) from --transform/--dct flags."""
    if args.dct:
        size = args.size or 8
        return f"dct{size}", exact_dct_matrix(size), size
    if args.size is not None:
        raise ValueError("--size applies only to --dct; a --transform file sets its own size")
    t = Transform.load(args.transform)
    return Path(args.transform).stem, t, t.n


def _entry_field(item: dict, key: str, default=None):
    """A field of a transform list entry: 'dct' and 'size' must be 8, 16 or
    32, 'params' and 'file' strings; ValueError naming the field otherwise."""
    value = item.get(key, default)
    if key in ("dct", "size"):
        ok, wanted = type(value) is int and value in SIZES, "8, 16 or 32"
    else:
        ok, wanted = isinstance(value, str), "a string"
    if not ok:
        raise ValueError(f"transform {item['id']!r}: {key!r} must be {wanted}, got {value!r}")
    return value


def _load_transform_list(path) -> list[tuple[str, object, int]]:
    spec_list = _read_json(path)
    if not isinstance(spec_list, list):
        raise ValueError("transform list must be a JSON array")
    out = []
    seen = set()
    for item in spec_list:
        if not isinstance(item, dict):
            raise ValueError(f"transform list entries must be objects, got {item!r}")
        ident = item.get("id")
        if not isinstance(ident, str) or not ident or ident in seen:
            raise ValueError(
                f"transform list entries need a unique nonempty string 'id' (got {ident!r})"
            )
        seen.add(ident)
        kinds = [key for key in ("dct", "params", "file") if key in item]
        if len(kinds) != 1 or ("size" in item and kinds != ["params"]):
            raise ValueError(f"transform {ident!r} needs exactly one of 'dct', 'params' and "
                             f"'file', and 'size' only beside 'params', got {sorted(item)}")
        if "dct" in item:
            size = _entry_field(item, "dct")
            out.append((ident, exact_dct_matrix(size), size))
        elif "params" in item:
            pv = parse_params(_entry_field(item, "params"))
            size = _entry_field(item, "size", 8)
            out.append((ident, build_scaled(pv, size).transform, size))
        else:
            t = Transform.load(Path(path).parent / _entry_field(item, "file"))
            out.append((ident, t, t.n))
    return out


# --- subcommands --------------------------------------------------------------

def _cmd_build(args) -> int:
    """gen (size 8) and scale: save the transform and print its cost."""
    st = build_scaled(parse_params(args.params), args.size)
    st.transform.save(args.out)
    c = st.complexity
    print(f"wrote {args.out}: n={args.size} additions={c.additions} shifts={c.shifts}")
    return 0


def _eval_lines(args) -> list[str]:
    model = SignalModel(rho=_resolve_rho(args), n=args.size)
    if args.dct:
        if args.complexity:
            raise ValueError("--complexity needs --params; --dct has no addition/shift count")
        eps, m, cg, eta = evaluate_matrix(exact_dct_matrix(args.size), model)
        row = [""] * 8 + [_fmt(eps), _fmt(m), _fmt(cg), _fmt(eta), "", ""]
        return [EVAL_HEADER, ",".join(row)]
    pv = parse_params(args.params)
    if args.complexity:
        c = build_scaled(pv, args.size).complexity
        row = _param_cols(pv) + [str(c.additions), str(c.shifts), c.rule]
        return [COMPLEXITY_HEADER, ",".join(row)]
    rep = evaluate(pv, model)
    return [EVAL_HEADER, ",".join(_param_cols(pv) + _report_cols(rep, _fmt))]


def _cmd_eval(args) -> int:
    text = "\n".join(_eval_lines(args)) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)
    return 0


def _check_outputs(*paths) -> None:
    outs = [Path(p) for p in paths if p]
    if len({out.resolve() for out in outs}) < len(outs):
        raise ValueError(f"two outputs name the same file: {', '.join(map(str, outs))}")
    for out in outs:
        if out.is_dir() or not out.parent.is_dir():
            raise OSError(f"cannot write {out}: not a file name in an existing directory")


def _cmd_search(args) -> int:
    _check_outputs(args.out)
    rho = _resolve_rho(args)
    model = SignalModel(rho=rho, n=8)
    start = time.perf_counter()
    result = run_search(
        model,
        feasibility_filter=not args.no_feasibility_filter,
        workers=args.workers,
    )
    elapsed = time.perf_counter() - start
    write_front_csv(result, args.out)
    ties = [e for e in result.entries if not e.canonical]
    print(
        f"candidates={result.n_candidates} "
        f"feasible={result.n_feasible if result.n_feasible is not None else 'n/a'} "
        f"evaluated={result.n_evaluated} front={len(result.canonical)} "
        f"elapsed={elapsed:.1f}s"
    )
    for e in ties:
        print(f"tie (objectives equal to a canonical member): {e.params}")
    return 0


def _cmd_compress(args) -> int:
    _check_outputs(args.out, args.metrics)
    ident, transform, size = _transform_for(args)
    policy = RetentionPolicy(n=size, r_fraction=args.r)
    image = read_pgm(args.infile)
    recon, scores = compress_image(image, transform, policy)
    if args.out:
        write_pgm(args.out, np.rint(recon).astype(np.uint8))
    if args.metrics:
        Path(args.metrics).write_text(
            "input,transform,r,psnr,ssim\n"
            f"{args.infile},{ident},{_fmt(args.r)},{_fmt(scores.psnr_db)},{_fmt(scores.ssim)}\n",
            encoding="ascii",
        )
    print(f"{ident} r={_fmt(args.r)} psnr={_fmt(scores.psnr_db)} ssim={_fmt(scores.ssim)}")
    return 0


def _parse_r_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"r grid must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    # NaN fails every comparison here; a NaN step would never end the loop.
    # A tiny step would build a huge grid, or repeat levels once it falls
    # below the rounding of each level.  The stop tolerance is at most half
    # a step, so a step below 1e-9 adds no level past stop.
    if not (0 < step < math.inf and 0 < start <= stop <= 1
            and (stop - start) / step <= _MAX_R_LEVELS):
        raise ValueError(f"bad r grid {text!r}")
    grid = []
    k = 0
    while True:
        r = round(start + k * step, 10)
        if r > stop + min(1e-9, step / 2):
            break
        if grid and r == grid[-1]:
            raise ValueError(f"bad r grid {text!r}: level {r} repeats")
        grid.append(r)
        k += 1
    return tuple(grid)


def _cmd_sweep(args) -> int:
    _check_outputs(args.out, args.per_image)
    corpus = sorted(Path(args.corpus).glob("*.pgm"))
    if not corpus:
        raise ValueError(f"no .pgm files in {args.corpus}")
    transforms = _load_transform_list(args.transforms)
    grid = _parse_r_grid(args.r_grid) if args.r_grid else default_r_grid()
    images = [(p.name, read_pgm(p)) for p in corpus]

    def scores(transform) -> np.ndarray:
        """(images, levels, 2): PSNR and SSIM of every image at every level."""
        return np.array([[(p, s) for _, p, s in retention_sweep(img, transform, grid)]
                         for _, img in images])

    def curve(sc: np.ndarray) -> list[tuple[float, float]]:
        """(PSNR aggregate, SSIM mean) per level.  Each level's 1-D column is
        reduced on its own: an axis-0 mean sums in another order, which can
        change the last bits."""
        out = []
        for psnrs, ssims in sc.transpose(1, 2, 0):
            if args.agg == "db-of-mean-mse":
                mean = float(np.mean(255.0**2 * 10.0 ** (-psnrs / 10.0)))
                p = 10.0 * math.log10(255.0**2 / mean)
            else:
                p = float(np.mean(psnrs))
            out.append((p, float(np.mean(ssims))))
        return out

    # An exact DCT entry reuses its size's baseline instead of a second sweep.
    baselines = {size: scores(exact_dct_matrix(size))
                 for size in sorted({size for _, _, size in transforms})}
    base_curves = {size: curve(b) for size, b in baselines.items()}
    swept = [(ident, baselines[size] if isinstance(t, np.ndarray) else scores(t), size)
             for ident, t, size in transforms]

    lines = [f"# psnr aggregate: {args.agg}", CURVES_HEADER]
    for ident, sc, size in swept:
        for r, (p, s), (bp, bs) in zip(grid, curve(sc), base_curves[size]):
            lines.append(",".join([ident, _fmt(r), _fmt(p), _fmt(s),
                                   _fmt(ape(p, bp)), _fmt(ape(s, bs))]))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="ascii")

    if args.per_image:
        rows = [PER_IMAGE_HEADER]
        for ident, sc, _size in swept:
            for (name, _img), image_scores in zip(images, sc):
                for r, (p, s) in zip(grid, image_scores):
                    rows.append(f"{ident},{_fmt(r)},{name},{_fmt(p)},{_fmt(s)}")
        Path(args.per_image).write_text("\n".join(rows) + "\n", encoding="ascii")
    print(f"wrote {args.out}: {len(transforms)} transforms x {len(grid)} retention levels")
    return 0


def _cmd_report(args) -> int:
    written = report_tables(args.infile, args.out_dir, rho=args.rho)
    print(f"wrote {len(written)} files to {args.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dctapprox",
        description="Low-complexity DCT approximations: construction, "
        "evaluation, search, scaling, and a block-codec harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="build an 8-point transform and save it as JSON")
    p.add_argument("--params", required=True, help="8 comma-separated values")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build, size=8)

    p = sub.add_parser("eval", help="metric report for one transform")
    sel = p.add_mutually_exclusive_group(required=True)
    sel.add_argument("--params")
    sel.add_argument("--dct", action="store_true", help="evaluate the exact DCT")
    p.add_argument("--size", type=int, choices=SIZES, default=8)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--complexity", action="store_true",
                   help="emit the addition/shift/rule row at --size instead of metrics")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("search", help="exhaustive sweep and Pareto front")
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted (at least 1) but has no effect")
    p.add_argument("--no-feasibility-filter", action="store_true",
                   help="evaluate every nonsingular candidate (much slower)")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("scale", help="grow an 8-point seed to 16 or 32 points")
    p.add_argument("--seed", dest="params", metavar="SEED", required=True,
                   help="8 comma-separated values")
    p.add_argument("--size", type=int, choices=SIZES[1:], required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("compress", help="blockwise compress one PGM image")
    p.add_argument("--in", dest="infile", required=True)
    sel = p.add_mutually_exclusive_group(required=True)
    sel.add_argument("--transform", help="transform JSON file")
    sel.add_argument("--dct", action="store_true")
    p.add_argument("--size", type=int, choices=SIZES, default=None,
                   help="block size for --dct (default 8)")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--out", default=None, help="reconstructed PGM")
    p.add_argument("--metrics", default=None, help="metrics CSV")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("sweep", help="retention sweep over an image corpus")
    p.add_argument("--corpus", required=True, help="directory of .pgm images")
    p.add_argument("--transforms", required=True, help="JSON list of transforms")
    p.add_argument("--out", required=True)
    p.add_argument("--r-grid", default=None, help="start:stop:step (default 0.25:0.99:0.02)")
    p.add_argument("--agg", choices=("mean-db", "db-of-mean-mse"), default="mean-db",
                   help="PSNR aggregation across the corpus")
    p.add_argument("--per-image", default=None, help="also write per-image rows here")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="render table summaries from a front CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--rho", type=float, default=None)
    p.set_defaults(func=_cmd_report)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process.  Parsing leaves it unchanged and it
    holds no per-call state: DCTAPPROX_RHO and every default are resolved
    when a command runs, so `main` may be called many times."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except FeasibilityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
