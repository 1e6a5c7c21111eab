"""Command-line entry point.

Subcommands: gen, eval, search, scale, compress, sweep, report.  Every
subcommand is deterministic given its flags; search accepts ``--workers``
but runs in one process whatever its value.  A parameter vector becomes a
transform at 8, 16 or 32 points through one growth loop from
``orthonormal_approx`` (`build_scaled` takes its last size, ``report`` all
three): ``gen`` is ``scale`` at size 8, and ``eval`` takes its metric and
complexity rows at ``--size`` from the same transform.  Exit codes:
0 success, 2 usage error, 3 infeasible transform, 4 I/O error.  Rho is
``--rho``, else (for ``report``) the front's ``# rho=``, else
DCTAPPROX_RHO, else 0.95.  Every CSV is written as UTF-8 by one
`csv.writer`, which quotes a cell only when it holds a comma, a double
quote or a newline; ``eval`` writes its stdout rows in that dialect, and
``report`` reads a front CSV in it: quoted cells, ``\\r\\n``, a UTF-8
byte-order mark and one-cell ``#`` comments.  Ids and names that a CSV will
hold must be printable.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .codec import (
    RetentionPolicy,
    _ssim_window,
    ape,
    compress_image,
    default_r_grid,
    retention_sweep,
)
from .core import SIZES, FeasibilityError, ParamVector, Transform, _read_json, exact_dct_matrix
from .metrics import DEFAULT_RHO, MetricsReport, SignalModel, _reports, evaluate, evaluate_matrix
from .pgm import read_pgm, write_pgm
from .scaling import _grown, build_scaled
from .search import SearchResult, run_search

__all__ = ["parse_params", "write_front_csv", "report_tables", "main"]

PARAM_HEADER = [f"a{i}" for i in range(1, 9)]
EVAL_HEADER = PARAM_HEADER + ["epsilon", "mse", "cg", "eta", "adds", "shifts"]
COMPLEXITY_HEADER = PARAM_HEADER + ["adds", "shifts", "rule"]
FRONT_HEADER = ["rank"] + EVAL_HEADER
CURVES_HEADER = ["transform_id", "r", "psnr", "ssim", "ape_psnr", "ape_ssim"]
PER_IMAGE_HEADER = ["transform_id", "r", "image", "psnr", "ssim"]
_MAX_R_LEVELS = 10_000  # largest (stop - start) / step that --r-grid accepts


def parse_params(text: str) -> ParamVector:
    """Parse a comma-separated 8-parameter string; accepts 0.5 and 1/2."""
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) != 8:
        raise ValueError(f"expected 8 comma-separated parameters, got {len(tokens)}")
    return ParamVector.from_values(tokens)


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _param_cols(pv: ParamVector) -> list[str]:
    return [format(v, "g") for v in pv.values]


def _report_cols(rep: MetricsReport, fmt) -> list[str]:
    return [fmt(rep.epsilon), fmt(rep.mse), fmt(rep.coding_gain_db),
            fmt(rep.efficiency_pct), str(rep.additions), str(rep.shifts)]


def _rho(flag: float | None, front: tuple[str, str] | None = None) -> float:
    """--rho, else a front's (name, ``# rho=`` value), else a nonempty DCTAPPROX_RHO, else 0.95."""
    if flag is not None:
        return flag
    name, text = front or ("DCTAPPROX_RHO", os.environ.get("DCTAPPROX_RHO"))
    if not (front or text):
        return DEFAULT_RHO
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {text!r}") from None


# --- CSV / markdown rendering -----------------------------------------------

def _write_csv(path, rows) -> None:
    """Write rows of cells as UTF-8 CSV; a comment line is a one-cell row."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def write_front_csv(result: SearchResult, path) -> None:
    rows = [
        [f"# rho={result.model.rho!r}"],
        [f"# candidates={result.n_candidates}"],
        [f"# feasible={'' if result.n_feasible is None else result.n_feasible}"],
        [f"# front={len(result.canonical)}"],
        FRONT_HEADER,
    ]
    for rank, entry in enumerate(result.canonical, start=1):
        rows.append([str(rank)] + _param_cols(entry.params) + _report_cols(entry.report, _fmt))
    _write_csv(path, rows)


def _parse_front_csv(path) -> tuple[dict[str, str], list[list[str]]]:
    """(meta, rows) of a front CSV, read by `csv.reader` in the dialect of
    `_write_csv`, quoted cells, ``\\r\\n`` and a UTF-8 byte-order mark too: a
    one-cell ``#`` row is a comment whose ``key=value`` fills meta, and
    blank rows are skipped."""
    meta: dict[str, str] = {}
    rows: list[list[str]] = []
    with open(path, encoding="utf-8-sig", newline="") as f:
        for cells in csv.reader(f):
            if len(cells) == 1 and cells[0].lstrip().startswith("#"):
                key, eq, val = cells[0].lstrip("# ").partition("=")
                if eq:
                    meta[key.strip()] = val.strip()
            elif "".join(cells).strip():
                rows.append(cells)
    if not rows:
        raise ValueError(f"no header row in {path}")
    if rows[0] != FRONT_HEADER:
        raise ValueError(f"unexpected front CSV header in {path}")
    for cells in rows[1:]:
        if len(cells) != len(FRONT_HEADER):
            raise ValueError(f"malformed front CSV row: {cells!r}")
    return meta, rows[1:]


def _write_pair(out_dir: Path, stem: str, headers: list[str], rows: list[list[str]]) -> list[Path]:
    csv_path, md_path = out_dir / f"{stem}.csv", out_dir / f"{stem}.md"
    _write_csv(csv_path, [headers, *rows])
    md = ["| " + " | ".join(r) + " |" for r in [headers, *rows]]
    md.insert(1, "|" + "---:|" * len(headers))
    md_path.write_text("\n".join(md) + "\n", encoding="utf-8")
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
    front = (f"the '# rho=' line of {front_csv}", meta["rho"]) if "rho" in meta else None
    rho = _rho(rho, front)

    tables = [("table1", ["j"] + PARAM_HEADER, [row[:9] for row in rows])]
    seeds = [ParamVector.from_values(row[1:9]) for row in rows]

    metric_headers = ["j", "epsilon", "mse", "cg", "eta", "adds", "shifts"]
    grown = [_grown(pv) for pv in seeds]
    for k, (stem, size) in enumerate(zip(("table2", "table4", "table6"), SIZES)):
        reports = _reports([g[k] for g in grown], SignalModel(rho=rho, n=size))
        metric_rows = [[row[0]] + _report_cols(rep, "{:.2f}".format)
                       for row, rep in zip(rows, reports)]
        tables.append((stem, metric_headers, metric_rows))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return [path for table in tables for path in _write_pair(out_dir, *table)]


# --- transform selection -----------------------------------------------------

def _transform(kind: str, value, size: int = 8) -> tuple[object, int]:
    """(transform, size) of a 'dct' size, a 'params' vector at `size` or a 'file' path."""
    if kind == "dct":
        return exact_dct_matrix(value), value
    if kind == "params":
        return build_scaled(value, size).transform, size
    t = Transform.load(value)
    return t, t.n


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
        if not isinstance(ident, str) or not ident or not ident.isprintable() or ident in seen:
            raise ValueError(f"transform list entries need a unique nonempty printable "
                             f"string 'id' (got {ident!r})")
        seen.add(ident)
        kinds = [key for key in ("dct", "params", "file") if key in item]
        if len(kinds) != 1 or ("size" in item and kinds != ["params"]):
            raise ValueError(f"transform {ident!r} needs exactly one of 'dct', 'params' and "
                             f"'file', and 'size' only beside 'params', got {sorted(item)}")
        [kind] = kinds
        value = _entry_field(item, kind)
        if kind == "params":
            value = parse_params(value)  # a malformed vector is named before a bad size
        elif kind == "file":
            value = Path(path).parent / value
        out.append((ident, *_transform(kind, value, _entry_field(item, "size", 8))))
    return out


# --- subcommands --------------------------------------------------------------

def _cmd_build(args) -> int:
    """gen (size 8) and scale: save the transform and print its cost."""
    st = build_scaled(parse_params(args.params), args.size)
    st.transform.save(args.out)
    c = st.complexity
    print(f"wrote {args.out}: n={args.size} additions={c.additions} shifts={c.shifts}")
    return 0


def _eval_rows(args) -> list[list[str]]:
    model = SignalModel(rho=_rho(args.rho), n=args.size)
    if args.dct:
        if args.complexity:
            raise ValueError("--complexity needs --params; --dct has no addition/shift count")
        eps, m, cg, eta = evaluate_matrix(exact_dct_matrix(args.size), model)
        return [EVAL_HEADER, [""] * 8 + [_fmt(eps), _fmt(m), _fmt(cg), _fmt(eta), "", ""]]
    pv = parse_params(args.params)
    if args.complexity:
        c = build_scaled(pv, args.size).complexity
        return [COMPLEXITY_HEADER, _param_cols(pv) + [str(c.additions), str(c.shifts), c.rule]]
    return [EVAL_HEADER, _param_cols(pv) + _report_cols(evaluate(pv, model), _fmt)]


def _cmd_eval(args) -> int:
    rows = _eval_rows(args)
    if args.out:
        _write_csv(args.out, rows)
    else:
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
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
    model = SignalModel(rho=_rho(args.rho), n=8)
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


def _read_image(path) -> np.ndarray:
    """`read_pgm` and the SSIM window check; every ValueError names the file."""
    try:
        image = read_pgm(path)
        _ssim_window(image.shape)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return image


def _cmd_compress(args) -> int:
    _check_outputs(args.out, args.metrics)
    if args.size is not None and not args.dct:
        raise ValueError("--size applies only to --dct; a --transform file sets its own size")
    kind, value = ("dct", args.size or 8) if args.dct else ("file", args.transform)
    transform, size = _transform(kind, value)
    ident = f"dct{size}" if args.dct else Path(args.transform).stem
    if args.metrics and not all(name.isprintable() for name in (args.infile, ident)):
        raise ValueError(f"--metrics cannot hold {args.infile!r} and {ident!r}: not printable")
    policy = RetentionPolicy(n=size, r_fraction=args.r)
    image = _read_image(args.infile)
    recon, scores = compress_image(image, transform, policy)
    if args.out:
        # recon is a fresh buffer that this command owns: round it in place.
        write_pgm(args.out, np.rint(recon, out=recon).astype(np.uint8))
    if args.metrics:
        _write_csv(args.metrics, [
            ["input", "transform", "r", "psnr", "ssim"],
            [args.infile, ident, _fmt(args.r), _fmt(scores.psnr_db), _fmt(scores.ssim)],
        ])
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
    for k in itertools.count():
        r = round(start + k * step, 10)
        if r > stop + min(1e-9, step / 2):
            return tuple(grid)
        if grid and r == grid[-1]:
            raise ValueError(f"bad r grid {text!r}: level {r} repeats")
        grid.append(r)


def _cmd_sweep(args) -> int:
    _check_outputs(args.out, args.per_image)
    folder = Path(args.corpus)
    if not folder.is_dir():
        raise OSError(f"corpus {args.corpus} is not an existing directory")
    corpus = sorted(folder.glob("*.pgm"))
    if not corpus:
        raise ValueError(f"no .pgm files in {args.corpus}")
    unprintable = [p.name for p in corpus if not p.name.isprintable()]
    if args.per_image and unprintable:
        raise ValueError(f"--per-image cannot hold the file names {unprintable}: not printable")
    transforms = _load_transform_list(args.transforms)
    grid = _parse_r_grid(args.r_grid) if args.r_grid else default_r_grid()
    images = [(p.name, _read_image(p)) for p in corpus]

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

    _write_csv(args.out, [[f"# psnr aggregate: {args.agg}"], CURVES_HEADER] + [
        [ident, _fmt(r), _fmt(p), _fmt(s), _fmt(ape(p, bp)), _fmt(ape(s, bs))]
        for ident, sc, size in swept
        for r, (p, s), (bp, bs) in zip(grid, curve(sc), base_curves[size])
    ])
    if args.per_image:
        _write_csv(args.per_image, [PER_IMAGE_HEADER] + [
            [ident, _fmt(r), name, _fmt(p), _fmt(s)]
            for ident, sc, _size in swept
            for (name, _img), image_scores in zip(images, sc)
            for r, (p, s) in zip(grid, image_scores)
        ])
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
    except (OSError, ValueError) as e:  # FeasibilityError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 3 if isinstance(e, FeasibilityError) else 4 if isinstance(e, OSError) else 2


if __name__ == "__main__":
    sys.exit(main())
