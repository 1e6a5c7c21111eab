import csv
import itertools
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctapprox import (
    CATALOG,
    N_CANDIDATES,
    ParamVector,
    ParetoEntry,
    SearchResult,
    SignalModel,
    Transform,
    ar1_test_image,
    build_scaled,
    evaluate,
    exact_dct_matrix,
    orthonormal_approx,
    read_pgm,
    write_pgm,
)
from dctapprox.cli import (
    FRONT_HEADER,
    _fmt,
    _load_transform_list,
    _parse_front_csv,
    _parse_r_grid,
    _parser,
    _write_csv,
    main,
    parse_params,
    report_tables,
)
from dctapprox import cli, scaling
from dctapprox.codec import ape, retention_sweep
from helpers import assert_orthonormal_transform, count_calls, json_values

DATA = Path(__file__).parent / "data"


class TestParseParams:
    def test_catalog_vectors(self):
        assert parse_params("0,0,0,1,1,0,0,1") == CATALOG[1]
        assert parse_params("0,0.5,0,1,1,1,1,2") == CATALOG[9]

    def test_fraction_form(self):
        assert parse_params("1, 1/2, 1/2, 1/2, 1, 1, 1/2, 1/2") == CATALOG[15]

    def test_wrong_count(self):
        with pytest.raises(ValueError, match="8"):
            parse_params("1,2,3")

    def test_value_outside_alphabet(self):
        with pytest.raises(ValueError, match="'3'"):
            parse_params("0,0,0,3,1,0,0,1")

    def test_garbage_token(self):
        with pytest.raises(ValueError, match="'x'"):
            parse_params("0,0,0,x,1,0,0,1")


class TestGenEvalScale:
    def test_gen_writes_schema(self, tmp_path):
        out = tmp_path / "t8.json"
        assert main(["gen", "--params", "0,0,0,1,1,0,0,1", "--out", str(out)]) == 0
        d = json.loads(out.read_text())
        assert set(d) == {"n", "den", "entries", "scale"}
        assert d["n"] == 8 and d["den"] == 2

    def test_eval_metrics_row(self, tmp_path, capsys):
        assert main(["eval", "--params", "0,0.5,0,1,1,1,1,2"]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header.startswith("a1,")
        cells = row.split(",")
        assert cells[:8] == ["0", "0.5", "0", "1", "1", "1", "1", "2"]
        assert float(cells[8]) == pytest.approx(4.12, abs=0.02)
        assert cells[12:] == ["20", "3"]

    def test_eval_dct_calibration(self, capsys):
        assert main(["eval", "--dct"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert float(row[8]) == 0.0
        assert float(row[10]) == pytest.approx(8.8259, abs=0.005)

    def test_eval_scaled_size(self, capsys):
        assert main(["eval", "--params", "0,0.5,0,1,1,1,1,2", "--size", "16"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert float(row[8]) == pytest.approx(18.77, abs=0.02)
        assert row[12:] == ["56", "6"]

    def test_eval_complexity_row(self, capsys):
        assert main(["eval", "--params", "0,0.5,0,1,1,1,1,2", "--complexity"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].endswith("adds,shifts,rule")
        assert out[1].endswith("20,3,r6")

    @pytest.mark.parametrize("size, cost", [("16", "56,6,r6"), ("32", "144,12,r6")])
    def test_eval_complexity_follows_size(self, capsys, size, cost):
        p = "0,0.5,0,1,1,1,1,2"
        assert main(["eval", "--params", p, "--size", size, "--complexity"]) == 0
        assert capsys.readouterr().out.strip().splitlines()[1].endswith(cost)
        assert main(["eval", "--params", p, "--size", size]) == 0
        metrics = capsys.readouterr().out.strip().splitlines()[1]
        assert metrics.endswith(cost.rsplit(",", 1)[0])

    @pytest.mark.parametrize("argv", [
        ["--params", "0,0.5,0,1,1,1,1,2"],
        ["--params", "0,0.5,0,1,1,1,1,2", "--size", "32"],
        ["--params", "0,0.5,0,1,1,1,1,2", "--complexity"],
        ["--dct", "--size", "16"],
    ])
    def test_eval_out_writes_stdout_text(self, tmp_path, capsys, argv):
        assert main(["eval", *argv]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "eval.csv"
        assert main(["eval", *argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed

    def test_scale_roundtrip(self, tmp_path):
        out = tmp_path / "t16.json"
        assert main(["scale", "--seed", "0,0,0,1,1,0,0,1", "--size", "16",
                     "--out", str(out)]) == 0
        t = Transform.load(out)
        assert t.n == 16
        c = t.matrix
        assert np.max(np.abs(c @ c.T - np.eye(16))) < 1e-12

    def test_rho_env_override(self, capsys, monkeypatch):
        main(["eval", "--params", "0,0,0,1,1,0,0,1"])
        default_row = capsys.readouterr().out.strip().splitlines()[1]
        monkeypatch.setenv("DCTAPPROX_RHO", "0.9")
        main(["eval", "--params", "0,0,0,1,1,0,0,1"])
        env_row = capsys.readouterr().out.strip().splitlines()[1]
        assert env_row != default_row
        main(["eval", "--params", "0,0,0,1,1,0,0,1", "--rho", "0.95"])
        flag_row = capsys.readouterr().out.strip().splitlines()[1]
        assert flag_row == default_row

    def test_bad_rho_env_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("DCTAPPROX_RHO", "abc")
        assert main(["eval", "--dct"]) == 2
        assert "DCTAPPROX_RHO" in capsys.readouterr().err
        # The flag wins, so the variable is never read.
        assert main(["eval", "--dct", "--rho", "0.9"]) == 0


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["eval", "--params", "0,0,0,3,1,0,0,1"]) == 2

    def test_infeasible(self, capsys):
        assert main(["eval", "--params", "0,0,0,0,0,0,0,0"]) == 3

    def test_infeasible_complexity(self, capsys):
        assert main(["eval", "--params", "0,0,0,0,0,0,0,0", "--complexity"]) == 3
        assert main(["eval", "--params", "2,2,2,2,2,2,2,2", "--complexity",
                     "--size", "16"]) == 3

    def test_complexity_rejects_bad_rho(self, capsys):
        # The signal model is checked before any branch, so the cost row
        # does not hide an out-of-range --rho.
        p = "0,0.5,0,1,1,1,1,2"
        assert main(["eval", "--params", p, "--rho", "5"]) == 2
        assert main(["eval", "--params", p, "--complexity", "--rho", "5"]) == 2
        assert "correlation coefficient" in capsys.readouterr().err

    def test_dct_complexity_rejected(self, capsys):
        assert main(["eval", "--dct", "--complexity"]) == 2
        err = capsys.readouterr().err
        assert "--dct" in err and "--complexity" in err

    def test_compress_size_needs_dct(self, tmp_path, capsys):
        img, t8 = tmp_path / "img.pgm", tmp_path / "t8.json"
        write_pgm(img, ar1_test_image(16, 16, seed=30))
        assert main(["gen", "--params", "0,0,0,1,1,0,0,1", "--out", str(t8)]) == 0
        capsys.readouterr()
        assert main(["compress", "--in", str(img), "--transform", str(t8),
                     "--size", "16", "--r", "0.5"]) == 2
        assert "--size" in capsys.readouterr().err

    def test_infeasible_gen_and_scale(self, tmp_path, capsys):
        out = str(tmp_path / "x.json")
        assert main(["gen", "--params", "0,0,0,0,0,0,0,0", "--out", out]) == 3
        assert main(["scale", "--seed", "2,2,2,2,2,2,2,2", "--size", "16",
                     "--out", out]) == 3

    def test_retention_out_of_range(self, tmp_path, capsys):
        img = tmp_path / "img.pgm"
        write_pgm(img, ar1_test_image(16, 16, seed=30))
        assert main(["compress", "--in", str(img), "--dct", "--r", "1.5"]) == 2

    def test_io_error(self, tmp_path, capsys):
        assert main(["compress", "--in", str(tmp_path / "missing.pgm"),
                     "--dct", "--r", "0.5"]) == 4

    @pytest.mark.parametrize("header, named", [
        (b"P5\n4 4\n200\n", "maxval=200"),
        (b"P5\n1_6 4\n255\n", "b'1_6'"),
        (b"P5\n4 +4\n255\n", "b'+4'"),
    ])
    def test_bad_pgm_header(self, tmp_path, capsys, header, named):
        img = tmp_path / "bad.pgm"
        img.write_bytes(header + bytes(16))
        assert main(["compress", "--in", str(img), "--dct", "--r", "0.5"]) == 2
        assert named in capsys.readouterr().err

    def test_argparse_error(self, capsys):
        assert main(["eval", "--bogus-flag"]) == 2


class TestReusedParser:
    """`main` parses every call with one cached parser, and each call starts
    from the parser's defaults."""

    P = "0,0.5,0,1,1,1,1,2"

    def test_exit_codes_from_one_parser(self, capsys):
        _parser.cache_clear()
        parser = _parser()
        assert main(["eval", "--params", self.P, "--bogus-flag"]) == 2
        assert "unrecognized arguments: --bogus-flag" in capsys.readouterr().err
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: dctapprox")
        assert main(["eval", "--params", "0,0,0,0,0,0,0,0"]) == 3
        assert "error:" in capsys.readouterr().err
        assert main(["eval", "--params", self.P]) == 0
        assert capsys.readouterr().out.startswith("a1,")
        assert _parser() is parser

    def test_no_option_leaks_into_the_next_call(self, capsys, monkeypatch):
        monkeypatch.delenv("DCTAPPROX_RHO", raising=False)
        pv = parse_params(self.P)
        for argv, model in [
            (["--rho", "0.9"], SignalModel(rho=0.9)),
            ([], SignalModel()),
            (["--size", "32", "--rho", "0.9"], SignalModel(rho=0.9, n=32)),
            ([], SignalModel()),
        ]:
            assert main(["eval", "--params", self.P, *argv]) == 0
            rep = evaluate(pv, model)
            expected = [_fmt(rep.epsilon), _fmt(rep.mse), _fmt(rep.coding_gain_db),
                        _fmt(rep.efficiency_pct), str(rep.additions), str(rep.shifts)]
            assert capsys.readouterr().out.splitlines()[1].split(",")[8:] == expected, argv
        assert main(["eval", "--params", self.P, "--complexity"]) == 0
        assert capsys.readouterr().out.startswith("a1,a2,a3,a4,a5,a6,a7,a8,adds,")
        assert main(["eval", "--params", self.P]) == 0
        assert capsys.readouterr().out.startswith("a1,a2,a3,a4,a5,a6,a7,a8,epsilon,")

    def test_repeated_runs_are_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "tables"
        runs = []
        for _ in range(3):
            assert main(["eval", "--params", self.P, "--size", "16", "--rho", "0.9"]) == 0
            assert main(["eval", "--params", self.P]) == 0
            assert main(["report", "--in", str(DATA / "golden_front.csv"),
                         "--out-dir", str(out)]) == 0
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            for path in out.iterdir():
                path.unlink()
            runs.append((capsys.readouterr().out, files))
        assert len(runs[0][1]) == 8
        assert runs[1] == runs[0] and runs[2] == runs[0]


class TestTransformFile:
    @pytest.fixture()
    def image(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, ar1_test_image(16, 16, seed=31))
        return path

    @pytest.fixture()
    def good(self, tmp_path):
        out = tmp_path / "good.json"
        assert main(["gen", "--params", "0,0,0,1,1,0,0,1", "--out", str(out)]) == 0
        return json.loads(out.read_text())

    def _compress(self, tmp_path, image, doc) -> int:
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        return main(["compress", "--in", str(image), "--transform", str(path), "--r", "1.0"])

    @pytest.mark.parametrize("size", [16, 32])
    def test_gen_and_scale_files_load(self, tmp_path, image, good, size):
        assert self._compress(tmp_path, image, good) == 0
        out = tmp_path / "scaled.json"
        assert main(["scale", "--seed", "0,0.5,0,1,1,1,1,2", "--size", str(size),
                     "--out", str(out)]) == 0
        assert main(["compress", "--in", str(image), "--transform", str(out),
                     "--r", "1.0"]) == 0

    def test_wrong_scale(self, tmp_path, image, good, capsys):
        good["scale"] = [1.0] * 8
        assert self._compress(tmp_path, image, good) == 3
        assert "scale" in capsys.readouterr().err

    def test_corrupted_entry(self, tmp_path, image, good, capsys):
        good["entries"][1][2] = 2
        assert self._compress(tmp_path, image, good) == 3
        assert "orthogonal" in capsys.readouterr().err

    def test_zero_row(self, tmp_path, image, good, capsys):
        good["entries"][3] = [0] * 8
        assert self._compress(tmp_path, image, good) == 3
        assert "Warning" not in capsys.readouterr().err

    def test_entry_outside_alphabet(self, tmp_path, image, good):
        good["entries"][1][2] = 3
        assert self._compress(tmp_path, image, good) == 3

    def test_unsupported_size(self, tmp_path, image):
        doc = {"n": 4, "den": 2, "entries": [[2, 2, 2, 2], [2, 2, -2, -2],
                                             [2, -2, -2, 2], [2, -2, 2, -2]],
               "scale": [0.5] * 4}
        assert self._compress(tmp_path, image, doc) == 3

    def test_missing_key(self, tmp_path, image, good, capsys):
        del good["scale"]
        assert self._compress(tmp_path, image, good) == 2
        assert "'scale'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("n", "8"), ("n", True), ("entries", [[2] * 8] * 7), ("entries", "x"),
        ("entries", [[2.0] * 8] * 8), ("scale", ["0.35"] * 8), ("scale", [[0.35]] * 8),
    ])
    def test_ill_typed_key(self, tmp_path, image, good, key, value):
        good[key] = value
        assert self._compress(tmp_path, image, good) == 2

    def test_not_an_object(self, tmp_path, image, good):
        assert self._compress(tmp_path, image, [good]) == 2

    def test_sweep_list_entry_not_an_object(self, tmp_path, image):
        tlist = tmp_path / "t.json"
        tlist.write_text('[{"id": "dct8", "dct": 8}, "dct8"]')
        assert main(["sweep", "--corpus", str(tmp_path), "--transforms", str(tlist),
                     "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("entry, field", [
        ({"id": "a", "dct": [8]}, "'dct'"),
        ({"id": "a", "dct": 4}, "'dct'"),
        ({"id": "a", "params": 5}, "'params'"),
        ({"id": "a", "file": 5}, "'file'"),
        ({"id": "a", "params": "0,0,0,1,1,0,0,1", "size": None}, "'size'"),
        ({"id": ["x"], "dct": 8}, "'id'"),
        ({"id": "a"}, "'dct', 'params' and 'file'"),
        ({"id": "a", "dct": 8, "size": 16}, "'size'"),
        ({"id": "b", "params": "0,0,0,1,1,0,0,1", "file": "t16.json"}, "'file'"),
    ])
    def test_sweep_list_field_ill_typed(self, tmp_path, image, capsys, entry, field):
        tlist = tmp_path / "t.json"
        tlist.write_text(json.dumps([entry]))
        assert main(["sweep", "--corpus", str(tmp_path), "--transforms", str(tlist),
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert field in capsys.readouterr().err

    def test_utf8_transform_list_loads(self, tmp_path):
        # JSON text is UTF-8 (RFC 8259); a raw non-ASCII id is read as it is.
        tlist = tmp_path / "t.json"
        tlist.write_text('[{"id": "é", "dct": 8}]', encoding="utf-8")
        [(ident, _t, size)] = _load_transform_list(tlist)
        assert (ident, size) == ("é", 8)

    def test_deeply_nested_json(self, tmp_path, image, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        assert main(["compress", "--in", str(image), "--transform", str(deep),
                     "--r", "1.0"]) == 2
        assert main(["sweep", "--corpus", str(tmp_path), "--transforms", str(deep),
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.count("nested too deeply") == 2


@pytest.fixture(scope="module")
def list_dir(tmp_path_factory):
    """A directory holding a valid transform file, one with a wrong scale and
    one nested too deeply, for transform lists to name."""
    d = tmp_path_factory.mktemp("lists")
    orthonormal_approx(CATALOG[1]).save(d / "good.json")
    bad = orthonormal_approx(CATALOG[9]).to_json_dict()
    bad["scale"] = [1.0] * 8
    (d / "bad.json").write_text(json.dumps(bad))
    (d / "deep.json").write_text("[" * 200_000)
    return d


# Transform list entries: every field either a plausible value or arbitrary
# JSON (file names only from the list directory, so no entry is an I/O error).
_list_entries = st.fixed_dictionaries({
    "id": st.sampled_from(["a", "b", "c"]) | json_values,
}, optional={
    "dct": st.sampled_from([8, 16, 32]) | json_values,
    "params": st.sampled_from(["0,0,0,1,1,0,0,1", "1,1,1,1,1,1,1,1"]) | json_values,
    "size": st.sampled_from([8, 16, 32]) | json_values,
    "file": st.sampled_from(["good.json", "bad.json", "deep.json"])
    | json_values.filter(lambda v: not isinstance(v, str)),
})


@settings(deadline=None)
@given(st.lists(_list_entries, max_size=3) | json_values)
def test_transform_list_fuzz(list_dir, doc):
    # Only ValueError (FeasibilityError is one) may escape, and every
    # transform that loads is orthonormal.
    path = list_dir / "list.json"
    path.write_text(json.dumps(doc))
    try:
        loaded = _load_transform_list(path)
    except ValueError:
        return
    for _ident, t, size in loaded:
        if isinstance(t, np.ndarray):
            assert np.array_equal(t, exact_dct_matrix(size))
        else:
            t = getattr(t, "transform", t)
            assert t.n == size
            assert_orthonormal_transform(t)


class TestCompressAndSweep:
    @pytest.fixture()
    def corpus(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        write_pgm(d / "a.pgm", ar1_test_image(64, 64, seed=21))
        write_pgm(d / "b.pgm", ar1_test_image(64, 64, seed=22))
        return d

    def test_compress_writes_outputs(self, tmp_path, corpus, capsys):
        recon = tmp_path / "recon.pgm"
        metrics = tmp_path / "m.csv"
        code = main(["compress", "--in", str(corpus / "a.pgm"), "--dct",
                     "--r", "0.45", "--out", str(recon), "--metrics", str(metrics)])
        assert code == 0
        assert recon.exists()
        lines = metrics.read_text().splitlines()
        assert lines[0] == "input,transform,r,psnr,ssim"
        cells = lines[1].split(",")
        assert cells[1] == "dct8"
        assert 15 < float(cells[3]) < 60

    def test_compress_with_transform_file(self, tmp_path, corpus, capsys):
        t16 = tmp_path / "t16.json"
        main(["scale", "--seed", "0,0,0,1,1,0,0,1", "--size", "16", "--out", str(t16)])
        code = main(["compress", "--in", str(corpus / "a.pgm"),
                     "--transform", str(t16), "--r", "0.5"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        assert out.startswith("t16 r=0.5 psnr=")

    @pytest.mark.parametrize("flags, entry", [
        (["--dct", "--size", "16"], {"dct": 16}),
        (["--transform", "t16.json"], {"file": "t16.json"}),
    ])
    def test_compress_and_sweep_name_the_same_transform(self, tmp_path, corpus, capsys,
                                                        flags, entry):
        # compress's flags and a sweep list entry resolve one transform, so
        # compress --metrics scores a.pgm as the sweep's per-image row does.
        main(["scale", "--seed", "0,0.5,0,1,1,1,1,2", "--size", "16",
              "--out", str(tmp_path / "t16.json")])
        tlist = tmp_path / "t.json"
        tlist.write_text(json.dumps([{"id": "x", **entry}]))
        per_image = tmp_path / "p.csv"
        assert main(["sweep", "--corpus", str(corpus), "--transforms", str(tlist),
                     "--out", str(tmp_path / "c.csv"), "--r-grid", "0.25:0.95:0.35",
                     "--per-image", str(per_image)]) == 0
        rows = [line.split(",") for line in per_image.read_text().splitlines()[1:]]
        swept = {(r, name): [p, s] for _i, r, name, p, s in rows}
        assert len(swept) == 3 * 2
        flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
        for r in ("0.25", "0.6", "0.95"):
            metrics = tmp_path / "m.csv"
            assert main(["compress", "--in", str(corpus / "a.pgm"), *flags, "--r", r,
                         "--metrics", str(metrics)]) == 0
            [_in, _t, r_cell, p, s] = metrics.read_text().splitlines()[1].split(",")
            assert r_cell == r
            assert [p, s] == swept[(r, "a.pgm")], r

    def test_compress_lossless_sentinel(self, tmp_path, corpus, capsys):
        code = main(["compress", "--in", str(corpus / "a.pgm"), "--dct", "--r", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        # float reconstruction error is ~1e-13, far above 100 dB
        assert float(out.split("psnr=")[1].split()[0]) >= 100.0

    @pytest.mark.parametrize("bad", ["--out", "--metrics"])
    def test_compress_bad_output_writes_nothing(self, tmp_path, corpus, capsys, monkeypatch,
                                                bad):
        def compressed(*args):
            raise AssertionError("the image was compressed")

        monkeypatch.setattr("dctapprox.cli.compress_image", compressed)
        outputs = {"--out": tmp_path / "recon.pgm", "--metrics": tmp_path / "m.csv"}
        outputs[bad] = tmp_path / "missing" / "x"
        before = sorted(tmp_path.rglob("*"))
        argv = ["compress", "--in", str(corpus / "a.pgm"), "--dct", "--r", "0.5"]
        assert main(argv + [a for flag, path in outputs.items() for a in (flag, str(path))]) == 4
        assert "not a file name in an existing directory" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("bad", ["--out", "--per-image"])
    def test_sweep_bad_output_writes_nothing(self, tmp_path, corpus, capsys, monkeypatch, bad):
        def swept(*args):
            raise AssertionError("the corpus was swept")

        monkeypatch.setattr("dctapprox.cli.retention_sweep", swept)
        tlist = tmp_path / "t.json"
        tlist.write_text('[{"id": "dct8", "dct": 8}]')
        outputs = {"--out": tmp_path / "curves.csv", "--per-image": tmp_path / "p.csv"}
        outputs[bad] = tmp_path / "missing" / "x.csv"
        before = sorted(tmp_path.rglob("*"))
        argv = ["sweep", "--corpus", str(corpus), "--transforms", str(tlist)]
        assert main(argv + [a for flag, path in outputs.items() for a in (flag, str(path))]) == 4
        assert "not a file name in an existing directory" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("kind, code, message", [
        ("missing", 4, "is not an existing directory"),
        ("file", 4, "is not an existing directory"),
        ("empty", 2, "no .pgm files in"),
    ])
    def test_sweep_corpus_checked_before_work(self, tmp_path, capsys, monkeypatch,
                                              kind, code, message):
        # A corpus that is not a directory is an I/O error, like every other
        # missing input; a directory without .pgm files is a usage error.
        def swept(*args):
            raise AssertionError("the corpus was swept")

        monkeypatch.setattr("dctapprox.cli.retention_sweep", swept)
        tlist = tmp_path / "t.json"
        tlist.write_text('[{"id": "dct8", "dct": 8}]')
        corpus = tmp_path / "corpus"
        if kind == "file":
            write_pgm(corpus, ar1_test_image(16, 16, seed=21))
        elif kind == "empty":
            corpus.mkdir()
        out = tmp_path / "curves.csv"
        argv = ["sweep", "--corpus", str(corpus), "--transforms", str(tlist), "--out", str(out)]
        assert main(argv) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, second", [("compress", "--metrics"),
                                                 ("sweep", "--per-image")])
    def test_outputs_naming_one_file_write_nothing(self, tmp_path, corpus, capsys, monkeypatch,
                                                   command, second):
        def worked(*args):
            raise AssertionError("the command did its work")

        monkeypatch.setattr("dctapprox.cli.compress_image", worked)
        monkeypatch.setattr("dctapprox.cli.retention_sweep", worked)
        tlist = tmp_path / "t.json"
        tlist.write_text('[{"id": "dct8", "dct": 8}]')
        argv = {
            "compress": ["compress", "--in", str(corpus / "a.pgm"), "--dct", "--r", "0.5"],
            "sweep": ["sweep", "--corpus", str(corpus), "--transforms", str(tlist)],
        }[command]
        same = tmp_path / "same.csv"
        before = sorted(tmp_path.rglob("*"))
        # Two spellings of one file.
        argv += ["--out", str(same), second, str(corpus / ".." / "same.csv")]
        assert main(argv) == 2
        assert "two outputs name the same file" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_all_zero_image_sweeps_to_the_sentinel(self, tmp_path, capsys):
        # Every PSNR is at most the 999 dB sentinel, so every mean-MSE term is
        # positive and db-of-mean-mse gives the sentinel back.
        zero = tmp_path / "zero"
        zero.mkdir()
        write_pgm(zero / "z.pgm", np.zeros((16, 16), dtype=np.uint8))
        tlist = tmp_path / "t.json"
        tlist.write_text('[{"id": "d8", "dct": 8}]')
        out = tmp_path / "o.csv"
        assert main(["sweep", "--corpus", str(zero), "--transforms", str(tlist),
                     "--out", str(out), "--agg", "db-of-mean-mse",
                     "--r-grid", "0.5:0.5:0.1"]) == 0
        assert out.read_text().splitlines()[1:] == [
            "transform_id,r,psnr,ssim,ape_psnr,ape_ssim", "d8,0.5,999,1,0,0"]

    def test_sweep_curves(self, tmp_path, corpus, capsys):
        t16 = tmp_path / "t16.json"
        main(["scale", "--seed", "0,0.5,0,1,1,1,1,2", "--size", "16", "--out", str(t16)])
        tlist = tmp_path / "transforms.json"
        tlist.write_text(json.dumps([
            {"id": "dct8", "dct": 8},
            {"id": "c8_15", "params": "1,0.5,0.5,0.5,1,1,0.5,0.5"},
            {"id": "c16_9", "file": t16.name},
        ]))
        transforms = [("dct8", exact_dct_matrix(8), 8),
                      ("c8_15", build_scaled(CATALOG[15], 8).transform, 8),
                      ("c16_9", Transform.load(t16), 16)]
        baselines = {8: exact_dct_matrix(8), 16: exact_dct_matrix(16)}
        images = [(p.name, read_pgm(p)) for p in sorted(corpus.glob("*.pgm"))]
        grid = (0.3, 0.5, 0.7)
        # scores[transform][k] = (psnr column, ssim column) at level k
        scores = {}
        for key, t in [*baselines.items(), *((ident, t) for ident, t, _ in transforms)]:
            sweeps = [retention_sweep(img, t, grid) for _, img in images]
            scores[key] = [(np.array([sw[k][1] for sw in sweeps]),
                            np.array([sw[k][2] for sw in sweeps])) for k in range(len(grid))]

        def aggregate(psnrs, agg):
            if agg == "mean-db":
                return float(np.mean(psnrs))
            mean = float(np.mean(255.0**2 * 10.0 ** (-psnrs / 10.0)))
            return 10.0 * math.log10(255.0**2 / mean)

        per_image_expected = ["transform_id,r,image,psnr,ssim"] + [
            f"{ident},{_fmt(r)},{name},{_fmt(scores[ident][k][0][i])},"
            f"{_fmt(scores[ident][k][1][i])}"
            for ident, _, _ in transforms
            for i, (name, _) in enumerate(images)
            for k, r in enumerate(grid)
        ]
        for agg in ("mean-db", "db-of-mean-mse"):
            out = tmp_path / f"curves_{agg}.csv"
            per_image = tmp_path / f"per_image_{agg}.csv"
            code = main(["sweep", "--corpus", str(corpus), "--transforms", str(tlist),
                         "--out", str(out), "--r-grid", "0.3:0.7:0.2", "--agg", agg,
                         "--per-image", str(per_image)])
            assert code == 0
            expected = [f"# psnr aggregate: {agg}", "transform_id,r,psnr,ssim,ape_psnr,ape_ssim"]
            for ident, _, size in transforms:
                for k, r in enumerate(grid):
                    (ps, ss), (bps, bss) = scores[ident][k], scores[size][k]
                    p, s = aggregate(ps, agg), float(np.mean(ss))
                    bp, bs = aggregate(bps, agg), float(np.mean(bss))
                    expected.append(",".join([ident, _fmt(r), _fmt(p), _fmt(s),
                                              _fmt(ape(p, bp)), _fmt(ape(s, bs))]))
            assert out.read_text().splitlines() == expected
            assert len(expected) == 2 + 3 * 3
            assert all(row.endswith(",0,0") for row in expected[2:5])
            assert per_image.read_text().splitlines() == per_image_expected

    def test_each_transform_swept_once(self, tmp_path, corpus, capsys, monkeypatch):
        # Entries that share an exact DCT reuse its size's baseline sweep.
        write_pgm(corpus / "c.pgm", ar1_test_image(24, 40, seed=24))
        calls = []

        def counting_sweep(image, transform, grid):
            calls.append(transform)
            return retention_sweep(image, transform, grid)

        monkeypatch.setattr("dctapprox.cli.retention_sweep", counting_sweep)
        tlist = tmp_path / "t.json"
        tlist.write_text(json.dumps([
            {"id": "dct8", "dct": 8},
            {"id": "dct8_again", "dct": 8},
            {"id": "c8_1", "params": "0,0,0,1,1,0,0,1"},
        ]))
        assert main(["sweep", "--corpus", str(corpus), "--transforms", str(tlist),
                     "--out", str(tmp_path / "o.csv"), "--r-grid", "0.5:0.9:0.2"]) == 0
        assert len(calls) == 6
        assert sum(isinstance(t, np.ndarray) for t in calls) == 3

    @pytest.mark.parametrize("grid", ["0.1:1:nan", "0.1:1:inf", "nan:1:0.1", "0.1:nan:0.1"])
    def test_non_finite_r_grid(self, tmp_path, corpus, capsys, grid):
        tlist = tmp_path / "t.json"
        tlist.write_text('[{"id": "dct8", "dct": 8}]')
        assert main(["sweep", "--corpus", str(corpus), "--transforms", str(tlist),
                     "--out", str(tmp_path / "o.csv"), "--r-grid", grid]) == 2
        assert "bad r grid" in capsys.readouterr().err

    # A step too small for 10,000 levels, and a step below the 1e-10
    # rounding of each level, which would repeat levels.
    @pytest.mark.parametrize("grid", ["0.1:1:1e-12", "0.5:0.5000000001:0.00000000004"])
    def test_r_grid_step_too_small(self, tmp_path, corpus, capsys, grid):
        with pytest.raises(ValueError, match="bad r grid"):
            _parse_r_grid(grid)
        tlist = tmp_path / "t.json"
        tlist.write_text('[{"id": "dct8", "dct": 8}]')
        assert main(["sweep", "--corpus", str(corpus), "--transforms", str(tlist),
                     "--out", str(tmp_path / "o.csv"), "--r-grid", grid]) == 2
        assert "bad r grid" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    # A step below the 1e-9 stop tolerance adds no level past stop.
    @pytest.mark.parametrize("grid", ["0.5:0.5:5e-10", "0.9:0.9:0.0000000004"])
    def test_r_grid_step_below_stop_tolerance(self, tmp_path, corpus, capsys, grid):
        start = float(grid.split(":")[0])
        assert _parse_r_grid(grid) == (start,)
        tlist = tmp_path / "t.json"
        tlist.write_text('[{"id": "dct8", "dct": 8}]')
        out = tmp_path / "o.csv"
        assert main(["sweep", "--corpus", str(corpus), "--transforms", str(tlist),
                     "--out", str(out), "--r-grid", grid]) == 0
        assert "1 transforms x 1 retention levels" in capsys.readouterr().out
        rows = [l for l in out.read_text().splitlines() if l.startswith("dct8,")]
        assert [row.split(",")[1] for row in rows] == [str(start)]

    @pytest.mark.parametrize("grid", ["0.1:1", "0.1:1:0.1:0.1"])
    def test_r_grid_field_count(self, tmp_path, corpus, capsys, grid):
        tlist = tmp_path / "t.json"
        tlist.write_text('[{"id": "dct8", "dct": 8}]')
        assert main(["sweep", "--corpus", str(corpus), "--transforms", str(tlist),
                     "--out", str(tmp_path / "o.csv"), "--r-grid", grid]) == 2
        assert "start:stop:step" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_fine_r_grid_within_level_bound(self):
        grid = _parse_r_grid("0.25:0.99:0.0001")
        assert len(grid) == 7401 and len(set(grid)) == 7401
        assert grid[0] == 0.25 and grid[-1] == 0.99

    def test_image_smaller_than_ssim_window(self, tmp_path, capsys):
        small = tmp_path / "small"
        small.mkdir()
        write_pgm(small / "s.pgm", ar1_test_image(6, 6, seed=23))
        tlist = tmp_path / "t.json"
        tlist.write_text('[{"id": "dct8", "dct": 8}]')
        commands = [
            ["compress", "--in", str(small / "s.pgm"), "--dct", "--r", "0.5"],
            ["sweep", "--corpus", str(small), "--transforms", str(tlist),
             "--out", str(tmp_path / "o.csv")],
        ]
        for argv in commands:
            assert main(argv) == 2
            assert "image smaller than the 8x8 window" in capsys.readouterr().err

    def test_small_image_named_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        # Every image is checked against the SSIM window as it is read, so a
        # small second image stops the sweep before the first is swept.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_pgm(corpus / "a.pgm", ar1_test_image(64, 64, seed=24))
        write_pgm(corpus / "b.pgm", ar1_test_image(4, 40, seed=25))
        tlist = tmp_path / "t.json"
        tlist.write_text('[{"id": "dct8", "dct": 8}]')
        calls = count_calls(monkeypatch, cli, ("retention_sweep",))
        out = tmp_path / "o.csv"
        assert main(["sweep", "--corpus", str(corpus), "--transforms", str(tlist),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {corpus / 'b.pgm'}: image smaller than the 8x8 window" in err
        assert calls == {"retention_sweep": 0}
        assert not out.exists()

    def test_small_compress_input_named(self, tmp_path, capsys, monkeypatch):
        img = tmp_path / "s.pgm"
        write_pgm(img, ar1_test_image(40, 4, seed=26))
        calls = count_calls(monkeypatch, cli, ("compress_image",))
        metrics = tmp_path / "m.csv"
        assert main(["compress", "--in", str(img), "--dct", "--r", "0.5",
                     "--metrics", str(metrics)]) == 2
        assert f"error: {img}: image smaller than the 8x8 window" in capsys.readouterr().err
        assert calls == {"compress_image": 0}
        assert not metrics.exists()

    def test_empty_corpus(self, tmp_path):
        (tmp_path / "empty").mkdir()
        tlist = tmp_path / "t.json"
        tlist.write_text('[{"id": "dct8", "dct": 8}]')
        assert main(["sweep", "--corpus", str(tmp_path / "empty"),
                     "--transforms", str(tlist), "--out", str(tmp_path / "o.csv")]) == 2

    def test_sweep_cells_with_commas_or_outside_ascii(self, tmp_path, capsys):
        # Ids and file names are cells like any other: a comma is quoted,
        # a non-ASCII character written as UTF-8, and every row keeps the
        # header's width.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_pgm(corpus / "x,é.pgm", ar1_test_image(24, 24, seed=23))
        tlist = tmp_path / "t.json"
        tlist.write_text(json.dumps([{"id": "dct8é", "dct": 8}, {"id": "a,b", "dct": 8}]))
        out, per_image = tmp_path / "o.csv", tmp_path / "p.csv"
        assert main(["sweep", "--corpus", str(corpus), "--transforms", str(tlist),
                     "--out", str(out), "--per-image", str(per_image),
                     "--r-grid", "0.3:0.5:0.1"]) == 0
        ids = ["dct8é"] * 3 + ["a,b"] * 3
        with open(out, encoding="utf-8", newline="") as f:
            comment, header, *rows = csv.reader(f)
        assert comment == ["# psnr aggregate: mean-db"]
        assert [len(row) for row in rows] == [len(header)] * 6
        assert [row[0] for row in rows] == ids
        with open(per_image, encoding="utf-8", newline="") as f:
            header, *rows = csv.reader(f)
        assert [len(row) for row in rows] == [len(header)] * 6
        assert [(row[0], row[2]) for row in rows] == [(i, "x,é.pgm") for i in ids]

    def test_list_id_that_is_not_printable_sweeps_nothing(self, tmp_path, corpus, capsys,
                                                          monkeypatch):
        # csv.writer leaves a lone \r unquoted, and a reader splits the row
        # there, so such an id is refused before the sweep.
        def swept(*args):
            raise AssertionError("the corpus was swept")

        monkeypatch.setattr("dctapprox.cli.retention_sweep", swept)
        tlist = tmp_path / "t.json"
        tlist.write_text(json.dumps([{"id": "a\rb", "dct": 8}]))
        out = tmp_path / "o.csv"
        assert main(["sweep", "--corpus", str(corpus), "--transforms", str(tlist),
                     "--out", str(out)]) == 2
        assert "printable" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("per_image", [True, False])
    def test_undecodable_file_name_checked_before_the_sweep(self, tmp_path, capsys,
                                                            monkeypatch, per_image):
        # The byte 0xff reaches Python as a surrogate escape, which UTF-8
        # cannot encode: with --per-image the sweep is refused before any
        # work, and without it the name is never written and works.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_pgm(corpus / os.fsdecode(b"x\xff.pgm"), ar1_test_image(24, 24, seed=25))
        tlist = tmp_path / "t.json"
        tlist.write_text('[{"id": "dct8", "dct": 8}]')
        out, extra = tmp_path / "o.csv", []
        if per_image:
            def swept(*args):
                raise AssertionError("the corpus was swept")

            monkeypatch.setattr("dctapprox.cli.retention_sweep", swept)
            extra = ["--per-image", str(tmp_path / "p.csv")]
        code = main(["sweep", "--corpus", str(corpus), "--transforms", str(tlist),
                     "--out", str(out), "--r-grid", "0.3:0.5:0.1", *extra])
        if per_image:
            assert code == 2
            assert "not printable" in capsys.readouterr().err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "t.json"]
        else:
            assert code == 0
            assert len(out.read_text(encoding="utf-8").splitlines()) == 5

    @pytest.mark.parametrize("metrics", [True, False])
    def test_undecodable_input_path_checked_before_compress(self, tmp_path, capsys, metrics):
        image = tmp_path / os.fsdecode(b"x\xff.pgm")
        write_pgm(image, ar1_test_image(24, 24, seed=26))
        recon, table = tmp_path / "recon.pgm", tmp_path / "m.csv"
        argv = ["compress", "--in", str(image), "--dct", "--r", "0.5", "--out", str(recon)]
        if metrics:
            assert main(argv + ["--metrics", str(table)]) == 2
            assert "not printable" in capsys.readouterr().err
            assert not recon.exists() and not table.exists()
        else:
            assert main(argv) == 0
            assert recon.exists()

    def test_compress_metrics_keep_the_input_path(self, tmp_path, capsys):
        image = tmp_path / "é,1.pgm"
        write_pgm(image, ar1_test_image(24, 24, seed=24))
        metrics = tmp_path / "m.csv"
        assert main(["compress", "--in", str(image), "--dct", "--r", "0.5",
                     "--metrics", str(metrics)]) == 0
        with open(metrics, encoding="utf-8", newline="") as f:
            header, row = csv.reader(f)
        assert len(header) == len(row) == 5
        assert row[:2] == [str(image), "dct8"]


# The golden sweep: ten small AR(1) images whose sides are not multiples of
# 8, so every block size pads, and ten values per level, so numpy's 8-way
# unrolled summation runs in each level's mean.  The list mixes exact DCTs
# at two sizes (one of them twice), parameters at 8, 16 and 32 points and a
# 16-point transform file.  The golden files are this function's output;
# rewrite them only for a deliberate change of the sweep's output.
_GOLDEN_SHAPES = [(19, 27), (23, 17), (30, 21), (17, 17), (26, 35),
                  (21, 29), (33, 18), (18, 25), (27, 22), (35, 31)]
_GOLDEN_LIST = [
    {"id": "dct8", "dct": 8},
    {"id": "c8_9", "params": "0,0.5,0,1,1,1,1,2"},
    {"id": "dct16", "dct": 16},
    {"id": "c16_15", "params": "1,0.5,0.5,0.5,1,1,0.5,0.5", "size": 16},
    {"id": "c32_1", "params": "0,0,0,1,1,0,0,1", "size": 32},
    {"id": "t16", "file": "t16.json"},
    {"id": "dct8_again", "dct": 8},
]
# --agg value -> (--r-grid, whether to write per-image rows): the default
# grid with curves only, and a short grid with per-image rows too.
_GOLDEN_RUNS = {"mean-db": (None, False), "db-of-mean-mse": ("0.3:0.9:0.15", True)}


def golden_sweep(work: Path, agg: str) -> list[Path]:
    """Run one golden sweep in ``work``; the CSV files it wrote."""
    corpus = work / "corpus"
    corpus.mkdir()
    for k, (h, w) in enumerate(_GOLDEN_SHAPES):
        write_pgm(corpus / f"img{k:02d}.pgm", ar1_test_image(h, w, seed=40 + k))
    build_scaled(CATALOG[1], 16).transform.save(work / "t16.json")
    tlist = work / "list.json"
    tlist.write_text(json.dumps(_GOLDEN_LIST))
    out = work / "out"
    out.mkdir()
    grid, per_image = _GOLDEN_RUNS[agg]
    argv = ["sweep", "--corpus", str(corpus), "--transforms", str(tlist),
            "--out", str(out / f"curves_{agg}.csv"), "--agg", agg]
    if grid:
        argv += ["--r-grid", grid]
    if per_image:
        argv += ["--per-image", str(out / f"per_image_{agg}.csv")]
    assert main(argv) == 0
    return sorted(out.iterdir())


@pytest.mark.parametrize("agg", list(_GOLDEN_RUNS))
def test_sweep_golden_bytes(tmp_path, capsys, agg):
    written = golden_sweep(tmp_path, agg)
    assert len(written) == 1 + _GOLDEN_RUNS[agg][1]
    for path in written:
        assert path.read_bytes() == (DATA / "golden_sweep" / path.name).read_bytes(), path.name


class TestSearchCli:
    def test_search_deterministic_across_workers(self, tmp_path):
        a = tmp_path / "front1.csv"
        b = tmp_path / "front2.csv"
        assert main(["search", "--out", str(a), "--workers", "1"]) == 0
        assert main(["search", "--out", str(b), "--workers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_search_rejects_nonpositive_workers(self, tmp_path):
        out = tmp_path / "front.csv"
        assert main(["search", "--out", str(out), "--workers", "0"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("out", ["missing/dir/f.csv", "."])
    def test_bad_out_fails_before_the_search(self, tmp_path, capsys, monkeypatch, out):
        def searched(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr("dctapprox.cli.run_search", searched)
        monkeypatch.chdir(tmp_path)
        assert main(["search", "--no-feasibility-filter", "--out", out]) == 4
        assert "not a file name in an existing directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_header_keeps_the_exact_rho(self, tmp_path):
        # report reads the header's rho back, so it must be the search's
        # to the last bit, not a rounded form of it.
        out = tmp_path / "front.csv"
        assert main(["search", "--rho", "0.9512345678", "--out", str(out)]) == 0
        meta, _rows = _parse_front_csv(out)
        assert float(meta["rho"]) == 0.9512345678

    def test_one_tie_line_per_non_canonical_entry(self, tmp_path, capsys, monkeypatch):
        # The real filtered fronts have no tie, so the search returns one.
        model = SignalModel(n=8)
        report = evaluate(CATALOG[1], model)
        twin = ParamVector.from_values([0, 0, 0, 1, 1, 0, 0, -1])
        entries = (ParetoEntry(CATALOG[1], report, True), ParetoEntry(twin, report, False))
        result = SearchResult(entries, N_CANDIDATES, 2821 * 7, 2821 * 7, model, True)
        monkeypatch.setattr("dctapprox.cli.run_search", lambda *args, **kwargs: result)
        assert main(["search", "--out", str(tmp_path / "front.csv")]) == 0
        summary, *ties = capsys.readouterr().out.splitlines()
        assert summary.startswith("candidates=5764801 ") and " front=1 " in summary
        assert ties == ["tie (objectives equal to a canonical member): 0,0,0,1,1,0,0,-1"]

    def test_search_matches_golden_values(self, tmp_path):
        out = tmp_path / "front.csv"
        assert main(["search", "--out", str(out)]) == 0
        got = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        golden = [
            l for l in (DATA / "golden_front.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert got[0] == golden[0]
        assert len(got) == len(golden)
        for g_row, e_row in zip(got[1:], golden[1:]):
            g, e = g_row.split(","), e_row.split(",")
            assert g[:9] == e[:9]          # rank and parameters: exact
            assert g[13:] == e[13:]        # additions, shifts: exact
            for gv, ev in zip(g[9:13], e[9:13]):
                assert float(gv) == pytest.approx(float(ev), rel=1e-4)

    @pytest.mark.slow
    def test_unfiltered_search_matches_golden_front(self, tmp_path, capsys):
        # Every nonsingular candidate at rho 0.95: the front CSV byte for
        # byte, and the summary (elapsed time dropped) and tie lines.
        out = tmp_path / "front.csv"
        argv = ["search", "--no-feasibility-filter", "--rho", "0.95", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == (DATA / "golden_front_unfiltered.csv").read_bytes()
        summary, *ties = capsys.readouterr().out.splitlines()
        head, elapsed = summary.rsplit(" ", 1)
        assert elapsed.startswith("elapsed=")
        golden = (DATA / "golden_front_unfiltered.txt").read_text().splitlines()
        assert [head, *ties] == golden
        assert " evaluated=5368846 front=335" in head and len(ties) == 44


class TestReport:
    def test_golden_rendering_is_byte_stable(self, tmp_path):
        written = report_tables(DATA / "golden_front.csv", tmp_path)
        assert len(written) == 8
        for path in written:
            golden = DATA / "golden_tables" / path.name
            assert path.read_bytes() == golden.read_bytes(), path.name

    def test_each_seed_grown_once(self, tmp_path, monkeypatch):
        # One complexity count and two doublings per seed for all three
        # tables, not one growth per seed and table.
        calls = count_calls(monkeypatch, scaling, ("complexity", "scale_once"))
        report_tables(DATA / "golden_front.csv", tmp_path)
        assert calls == {"complexity": 16, "scale_once": 32}

    def test_every_size_at_the_requested_rho(self, tmp_path, capsys):
        # The front CSV was computed at rho 0.95; every metric table must
        # follow --rho instead of copying the CSV's metrics, and agree with
        # eval of each seed at the table's size.
        assert main(["report", "--in", str(DATA / "golden_front.csv"),
                     "--out-dir", str(tmp_path), "--rho", "0.9"]) == 0
        capsys.readouterr()
        params = (tmp_path / "table1.csv").read_text().splitlines()[1:]
        assert len(params) == 16
        for stem, size in (("table2", "8"), ("table4", "16"), ("table6", "32")):
            table = (tmp_path / f"{stem}.csv").read_text().splitlines()[1:]
            assert len(table) == len(params), stem
            for p_row, t_row in zip(params, table):
                j, *values = p_row.split(",")
                assert main(["eval", "--params", ",".join(values), "--size", size,
                             "--rho", "0.9"]) == 0
                cells = capsys.readouterr().out.splitlines()[1].split(",")[8:]
                expected = [f"{float(c):.2f}" for c in cells[:4]] + cells[4:]
                assert t_row.split(",") == [j] + expected, (stem, j)

    def test_empty_front_gives_headers_only(self, tmp_path):
        src = tmp_path / "empty_front.csv"
        src.write_text("# rho=0.95\nrank,a1,a2,a3,a4,a5,a6,a7,a8,"
                       "epsilon,mse,cg,eta,adds,shifts\n")
        written = report_tables(src, tmp_path / "out")
        table1 = (tmp_path / "out" / "table1.csv").read_text().splitlines()
        assert table1 == ["j,a1,a2,a3,a4,a5,a6,a7,a8"]

    def test_front_csv_read_as_utf8(self, tmp_path):
        front = tmp_path / "front.csv"
        text = (DATA / "golden_front.csv").read_text(encoding="utf-8")
        front.write_text("# note=é\n" + text, encoding="utf-8")
        meta, rows = _parse_front_csv(front)
        assert meta["note"] == "é"
        assert rows == _parse_front_csv(DATA / "golden_front.csv")[1]

    def test_quoted_crlf_front_renders_the_golden_tables(self, tmp_path):
        # The golden front as spreadsheet tools re-save it: every cell
        # quoted, \r\n line ends.
        with open(DATA / "golden_front.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        front = tmp_path / "front.csv"
        with open(front, "w", encoding="utf-8", newline="") as f:
            csv.writer(f, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(rows)
        assert front.read_bytes().startswith(b'"# rho=0.95"\r\n"# candidates=')
        written = report_tables(front, tmp_path / "out")
        assert len(written) == 8
        for path in written:
            golden = DATA / "golden_tables" / path.name
            assert path.read_bytes() == golden.read_bytes(), path.name

    def test_front_with_a_byte_order_mark_renders_the_golden_tables(self, tmp_path, capsys):
        # Spreadsheet tools save "CSV UTF-8" with a UTF-8 byte-order mark.
        front = tmp_path / "front.csv"
        front.write_bytes(b"\xef\xbb\xbf" + (DATA / "golden_front.csv").read_bytes())
        assert _parse_front_csv(front) == _parse_front_csv(DATA / "golden_front.csv")
        out = tmp_path / "out"
        assert main(["report", "--in", str(front), "--out-dir", str(out)]) == 0
        assert len(list(out.iterdir())) == 8
        for path in out.iterdir():
            golden = DATA / "golden_tables" / path.name
            assert path.read_bytes() == golden.read_bytes(), path.name

    @pytest.mark.parametrize("value", ["x", ""])
    def test_front_rho_that_is_not_a_number(self, tmp_path, capsys, monkeypatch, value):
        # The front's "# rho=" line decides over DCTAPPROX_RHO and is named
        # when it is not a number; --rho decides without reading it.
        golden = (DATA / "golden_front.csv").read_text().splitlines()
        front = tmp_path / "front.csv"
        front.write_text("\n".join(
            [f"# rho={value}"] + [line for line in golden if not line.startswith("# rho=")]
        ) + "\n")
        monkeypatch.setenv("DCTAPPROX_RHO", "0.95")
        out = tmp_path / "tables"
        assert main(["report", "--in", str(front), "--out-dir", str(out)]) == 2
        assert (f"error: the '# rho=' line of {front} must be a number, got {value!r}"
                in capsys.readouterr().err)
        assert not out.exists()
        assert main(["report", "--in", str(front), "--out-dir", str(out), "--rho", "0.95"]) == 0
        assert len(list(out.iterdir())) == 8
        for path in out.iterdir():
            golden_table = DATA / "golden_tables" / path.name
            assert path.read_bytes() == golden_table.read_bytes(), path.name

    def test_comment_with_a_comma_reads_back(self, tmp_path):
        front = tmp_path / "front.csv"
        _write_csv(front, [["# note=a,b"], FRONT_HEADER])
        assert front.read_text(encoding="utf-8").startswith('"# note=a,b"\n')
        meta, rows = _parse_front_csv(front)
        assert meta["note"] == "a,b"
        assert rows == []

    def test_malformed_csv_rejected(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("not,a,front\n1,2,3\n")
        with pytest.raises(ValueError):
            report_tables(src, tmp_path / "out")

    @pytest.mark.parametrize("case, code", [("flag_rho", 2), ("csv_rho", 2), ("infeasible_seed", 3)])
    def test_failure_writes_no_file(self, tmp_path, capsys, case, code):
        lines = (DATA / "golden_front.csv").read_text().splitlines()
        argv = []
        if case == "flag_rho":
            argv = ["--rho", "5"]
        elif case == "csv_rho":
            lines[0] = "# rho=5"
        else:
            cells = lines[-1].split(",")
            lines[-1] = ",".join(cells[:1] + "1,0,1,0,1,1,1,0".split(",") + cells[9:])
        src = tmp_path / "front.csv"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "tables"
        assert main(["report", "--in", str(src), "--out-dir", str(out), *argv]) == code
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case, message", [
        ("short_row", "malformed front CSV row"),
        ("no_header", "no header row"),
    ])
    def test_malformed_front_writes_no_file(self, tmp_path, capsys, case, message):
        lines = (DATA / "golden_front.csv").read_text().splitlines()
        if case == "short_row":
            lines[-1] = lines[-1].rsplit(",", 1)[0]
        else:
            lines = [l for l in lines if l.startswith("#")]
        src = tmp_path / "front.csv"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "tables"
        assert main(["report", "--in", str(src), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_report_cli_exit_code(self, tmp_path):
        assert main(["report", "--in", str(tmp_path / "nope.csv"),
                     "--out-dir", str(tmp_path)]) == 4


@pytest.mark.parametrize("command", ["eval", "search", "report"])
def test_rho_precedence(tmp_path, capsys, monkeypatch, command):
    # --rho wins over DCTAPPROX_RHO, which wins over 0.95; report reads its
    # front's "# rho=" line between the two.  A malformed variable is read
    # only when nothing before it decides.
    golden = (DATA / "golden_front.csv").read_text().splitlines()
    for name, rho_line in (("none", []), ("0.9", ["# rho=0.9"])):
        lines = rho_line + [line for line in golden if not line.startswith("# rho=")]
        (tmp_path / f"front_{name}.csv").write_text("\n".join(lines) + "\n")
    runs = itertools.count()

    def run(env, *flags, front="none", code=0):
        """The command's output files or stdout at DCTAPPROX_RHO=env."""
        if env is None:
            monkeypatch.delenv("DCTAPPROX_RHO", raising=False)
        else:
            monkeypatch.setenv("DCTAPPROX_RHO", env)
        out = tmp_path / f"run{next(runs)}"
        argv = {
            "eval": ["eval", "--params", "0,0.5,0,1,1,1,1,2"],
            "search": ["search", "--out", str(out)],
            "report": ["report", "--in", str(tmp_path / f"front_{front}.csv"),
                       "--out-dir", str(out)],
        }[command]
        assert main([*argv, *flags]) == code
        printed, err = capsys.readouterr()
        if code:
            assert "DCTAPPROX_RHO" in err and not out.exists()
        elif command == "eval":
            return printed
        elif command == "search":
            return out.read_bytes()
        else:
            return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    at_default, at_09 = run(None), run(None, "--rho", "0.9")
    assert at_default != at_09
    assert run("0.9") == at_09
    assert run("0.95", "--rho", "0.9") == at_09
    assert run("abc", "--rho", "0.9") == at_09
    run("abc", code=2)
    if command == "report":
        assert run("0.95", front="0.9") == at_09
        assert run("abc", front="0.9") == at_09
        assert run("0.9", "--rho", "0.95", front="0.9") == at_default
