"""Command-line entry point.

Subcommands: gen, eval, search, scale, compress, sweep, report.  Every
subcommand is deterministic given its flags; search accepts ``--workers``
but runs in one process whatever its value.  Exit codes: 0 success, 2
usage error, 3 infeasible transform, 4 I/O error.  The environment
variable DCTAPPROX_RHO overrides the default correlation coefficient of
0.95.
"""

from __future__ import annotations

import argparse
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
from .core import (
    FeasibilityError,
    ParamVector,
    Transform,
    _read_json,
    exact_dct_matrix,
    orthonormal_approx,
)
from .kernel import complexity
from .metrics import DEFAULT_RHO, SignalModel, evaluate, evaluate_matrix
from .pgm import read_pgm, write_pgm
from .scaling import build_scaled
from .search import SearchResult, run_search

__all__ = ["parse_params", "write_front_csv", "report_tables", "main"]

EVAL_HEADER = "a1,a2,a3,a4,a5,a6,a7,a8,epsilon,mse,cg,eta,adds,shifts"
COMPLEXITY_HEADER = "a1,a2,a3,a4,a5,a6,a7,a8,adds,shifts,rule"
FRONT_HEADER = "rank," + EVAL_HEADER
CURVES_HEADER = "transform_id,r,psnr,ssim,ape_psnr,ape_ssim"
PER_IMAGE_HEADER = "transform_id,r,image,psnr,ssim"


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


def _default_rho() -> float:
    env = os.environ.get("DCTAPPROX_RHO")
    return float(env) if env else DEFAULT_RHO


def _resolve_rho(args) -> float:
    return args.rho if args.rho is not None else _default_rho()


# --- CSV / markdown rendering -----------------------------------------------

def write_front_csv(result: SearchResult, path) -> None:
    lines = [
        f"# rho={_fmt(result.model.rho)}",
        f"# candidates={result.n_candidates}",
        f"# feasible={'' if result.n_feasible is None else result.n_feasible}",
        f"# front={len(result.canonical)}",
        FRONT_HEADER,
    ]
    for rank, entry in enumerate(result.canonical, start=1):
        rep = entry.report
        lines.append(
            ",".join(
                [str(rank)]
                + _param_cols(entry.params)
                + [_fmt(rep.epsilon), _fmt(rep.mse), _fmt(rep.coding_gain_db),
                   _fmt(rep.efficiency_pct), str(rep.additions), str(rep.shifts)]
            )
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

    Produces params (table1), 8-point metrics (table2), and recomputed
    16/32-point metrics (table4/table6), each as CSV and markdown with
    2-decimal presentation rounding.
    """
    meta, rows = _parse_front_csv(front_csv)
    if rho is None:
        rho = float(meta["rho"]) if "rho" in meta else _default_rho()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    params_headers = ["j"] + [f"a{i}" for i in range(1, 9)]
    params_rows = [[r["rank"]] + [r[f"a{i}"] for i in range(1, 9)] for r in rows]
    written += _write_pair(out_dir, "table1", params_headers, params_rows)

    metric_headers = ["j", "epsilon", "mse", "cg", "eta", "adds", "shifts"]
    table2_rows = [
        [r["rank"], _fmt2(float(r["epsilon"])), _fmt2(float(r["mse"])),
         _fmt2(float(r["cg"])), _fmt2(float(r["eta"])), r["adds"], r["shifts"]]
        for r in rows
    ]
    written += _write_pair(out_dir, "table2", metric_headers, table2_rows)

    for stem, size in (("table4", 16), ("table6", 32)):
        model = SignalModel(rho=rho, n=size)
        scaled_rows = []
        for r in rows:
            pv = parse_params(",".join(r[f"a{i}"] for i in range(1, 9)))
            st = build_scaled(pv, size)
            eps, m, cg, eta = evaluate_matrix(st.transform.matrix, model)
            scaled_rows.append(
                [r["rank"], _fmt2(eps), _fmt2(m), _fmt2(cg), _fmt2(eta),
                 str(st.complexity.additions), str(st.complexity.shifts)]
            )
        written += _write_pair(out_dir, stem, metric_headers, scaled_rows)
    return written


# --- transform selection -----------------------------------------------------

def _transform_for(args) -> tuple[str, object, int]:
    """(identifier, transform object, size) from --transform/--dct flags."""
    if args.dct:
        size = args.size or 8
        return f"dct{size}", exact_dct_matrix(size), size
    t = Transform.load(args.transform)
    return Path(args.transform).stem, t, t.n


def _entry_field(item: dict, key: str, default=None):
    """A field of a transform list entry: 'dct' and 'size' must be 8, 16 or
    32, 'params' and 'file' strings; ValueError naming the field otherwise."""
    value = item.get(key, default)
    if key in ("dct", "size"):
        ok, wanted = type(value) is int and value in (8, 16, 32), "8, 16 or 32"
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
        if "dct" in item:
            size = _entry_field(item, "dct")
            out.append((ident, exact_dct_matrix(size), size))
        elif "params" in item:
            pv = parse_params(_entry_field(item, "params"))
            size = _entry_field(item, "size", 8)
            if size == 8:
                out.append((ident, orthonormal_approx(pv), 8))
            else:
                out.append((ident, build_scaled(pv, size), size))
        elif "file" in item:
            t = Transform.load(Path(path).parent / _entry_field(item, "file"))
            out.append((ident, t, t.n))
        else:
            raise ValueError(f"transform entry {ident!r} needs 'dct', 'params' or 'file'")
    return out


# --- subcommands --------------------------------------------------------------

def _cmd_gen(args) -> int:
    pv = parse_params(args.params)
    t = orthonormal_approx(pv)
    t.save(args.out)
    c = complexity(pv)
    print(f"wrote {args.out}: n=8 additions={c.additions} shifts={c.shifts}")
    return 0


def _eval_lines(args) -> list[str]:
    rho = _resolve_rho(args)
    if args.complexity:
        pv = parse_params(args.params)
        c = complexity(pv)
        row = _param_cols(pv) + [str(c.additions), str(c.shifts), c.rule]
        return [COMPLEXITY_HEADER, ",".join(row)]
    size = args.size
    model = SignalModel(rho=rho, n=size)
    if args.dct:
        eps, m, cg, eta = evaluate_matrix(exact_dct_matrix(size), model)
        row = [""] * 8 + [_fmt(eps), _fmt(m), _fmt(cg), _fmt(eta), "", ""]
        return [EVAL_HEADER, ",".join(row)]
    pv = parse_params(args.params)
    if size == 8:
        rep = evaluate(pv, model)
        eps, m, cg, eta = rep.epsilon, rep.mse, rep.coding_gain_db, rep.efficiency_pct
        adds, shifts = rep.additions, rep.shifts
    else:
        st = build_scaled(pv, size)
        eps, m, cg, eta = evaluate_matrix(st.transform.matrix, model)
        adds, shifts = st.complexity.additions, st.complexity.shifts
    row = _param_cols(pv) + [_fmt(eps), _fmt(m), _fmt(cg), _fmt(eta), str(adds), str(shifts)]
    return [EVAL_HEADER, ",".join(row)]


def _cmd_eval(args) -> int:
    text = "\n".join(_eval_lines(args)) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_search(args) -> int:
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


def _cmd_scale(args) -> int:
    pv = parse_params(args.seed)
    st = build_scaled(pv, args.size)
    st.transform.save(args.out)
    print(
        f"wrote {args.out}: n={args.size} "
        f"additions={st.complexity.additions} shifts={st.complexity.shifts}"
    )
    return 0


def _cmd_compress(args) -> int:
    ident, transform, size = _transform_for(args)
    policy = RetentionPolicy(n=size, r_fraction=args.r)
    image = read_pgm(args.infile)
    recon, scores = compress_image(image, transform, policy)
    if args.out:
        write_pgm(args.out, np.clip(np.rint(recon), 0, 255).astype(np.uint8))
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
    if step <= 0 or not 0 < start <= stop <= 1:
        raise ValueError(f"bad r grid {text!r}")
    grid = []
    k = 0
    while True:
        r = round(start + k * step, 10)
        if r > stop + 1e-9:
            break
        grid.append(r)
        k += 1
    return tuple(grid)


def _cmd_sweep(args) -> int:
    corpus = sorted(Path(args.corpus).glob("*.pgm"))
    if not corpus:
        raise ValueError(f"no .pgm files in {args.corpus}")
    transforms = _load_transform_list(args.transforms)
    grid = _parse_r_grid(args.r_grid) if args.r_grid else default_r_grid()
    images = [(p.name, read_pgm(p)) for p in corpus]

    # per_transform[ident] = (size, psnr matrix, ssim matrix), image-major
    per_transform: dict[str, tuple[int, np.ndarray, np.ndarray]] = {}
    sizes_needed = sorted({size for _, _, size in transforms})
    baselines: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def sweep_matrix(transform) -> tuple[np.ndarray, np.ndarray]:
        ps = np.empty((len(images), len(grid)))
        ss = np.empty((len(images), len(grid)))
        for i, (_name, img) in enumerate(images):
            res = retention_sweep(img, transform, grid)
            ps[i] = [p for _, p, _ in res]
            ss[i] = [s for _, _, s in res]
        return ps, ss

    for size in sizes_needed:
        baselines[size] = sweep_matrix(exact_dct_matrix(size))
    for ident, transform, size in transforms:
        is_dct = isinstance(transform, np.ndarray)
        per_transform[ident] = (
            (size,) + (baselines[size] if is_dct else sweep_matrix(transform))
        )

    def aggregate_psnr(ps: np.ndarray, k: int) -> float:
        if args.agg == "db-of-mean-mse":
            mse_vals = 255.0**2 * 10.0 ** (-ps[:, k] / 10.0)
            mean = float(np.mean(mse_vals))
            return 999.0 if mean == 0 else 10.0 * math.log10(255.0**2 / mean)
        return float(np.mean(ps[:, k]))

    lines = [f"# psnr aggregate: {args.agg}", CURVES_HEADER]
    for ident, transform, size in transforms:
        _, ps, ss = per_transform[ident]
        base_ps, base_ss = baselines[size]
        for k, r in enumerate(grid):
            p = aggregate_psnr(ps, k)
            s = float(np.mean(ss[:, k]))
            bp = aggregate_psnr(base_ps, k)
            bs = float(np.mean(base_ss[:, k]))
            lines.append(
                ",".join(
                    [ident, _fmt(r), _fmt(p), _fmt(s),
                     _fmt(ape(p, bp)), _fmt(ape(s, bs))]
                )
            )
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="ascii")

    if args.per_image:
        rows = [PER_IMAGE_HEADER]
        for ident, _t, _size in transforms:
            _, ps, ss = per_transform[ident]
            for i, (name, _img) in enumerate(images):
                for k, r in enumerate(grid):
                    rows.append(
                        f"{ident},{_fmt(r)},{name},{_fmt(ps[i, k])},{_fmt(ss[i, k])}"
                    )
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
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("eval", help="metric report for one transform")
    sel = p.add_mutually_exclusive_group(required=True)
    sel.add_argument("--params")
    sel.add_argument("--dct", action="store_true", help="evaluate the exact DCT")
    p.add_argument("--size", type=int, choices=(8, 16, 32), default=8)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--complexity", action="store_true",
                   help="emit the addition/shift/rule row instead of metrics")
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
    p.add_argument("--seed", required=True, help="8 comma-separated values")
    p.add_argument("--size", type=int, choices=(16, 32), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("compress", help="blockwise compress one PGM image")
    p.add_argument("--in", dest="infile", required=True)
    sel = p.add_mutually_exclusive_group(required=True)
    sel.add_argument("--transform", help="transform JSON file")
    sel.add_argument("--dct", action="store_true")
    p.add_argument("--size", type=int, choices=(8, 16, 32), default=None,
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
