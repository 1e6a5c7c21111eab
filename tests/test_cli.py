import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctapprox import (
    CATALOG,
    Transform,
    ar1_test_image,
    exact_dct_matrix,
    orthonormal_approx,
    write_pgm,
)
from dctapprox.cli import _load_transform_list, main, parse_params, report_tables
from helpers import assert_orthonormal_transform, json_values

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


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["eval", "--params", "0,0,0,3,1,0,0,1"]) == 2

    def test_infeasible(self, capsys):
        assert main(["eval", "--params", "0,0,0,0,0,0,0,0"]) == 3

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
    ])
    def test_sweep_list_field_ill_typed(self, tmp_path, image, capsys, entry, field):
        tlist = tmp_path / "t.json"
        tlist.write_text(json.dumps([entry]))
        assert main(["sweep", "--corpus", str(tmp_path), "--transforms", str(tlist),
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert field in capsys.readouterr().err

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

    def test_compress_lossless_sentinel(self, tmp_path, corpus, capsys):
        code = main(["compress", "--in", str(corpus / "a.pgm"), "--dct", "--r", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        # float reconstruction error is ~1e-13, far above 100 dB
        assert float(out.split("psnr=")[1].split()[0]) >= 100.0

    def test_sweep_curves(self, tmp_path, corpus, capsys):
        t16 = tmp_path / "t16.json"
        main(["scale", "--seed", "0,0.5,0,1,1,1,1,2", "--size", "16", "--out", str(t16)])
        tlist = tmp_path / "transforms.json"
        tlist.write_text(json.dumps([
            {"id": "dct8", "dct": 8},
            {"id": "c8_15", "params": "1,0.5,0.5,0.5,1,1,0.5,0.5"},
            {"id": "c16_9", "file": t16.name},
        ]))
        out = tmp_path / "curves.csv"
        per_image = tmp_path / "per_image.csv"
        code = main(["sweep", "--corpus", str(corpus), "--transforms", str(tlist),
                     "--out", str(out), "--r-grid", "0.3:0.7:0.2",
                     "--per-image", str(per_image)])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "transform_id,r,psnr,ssim,ape_psnr,ape_ssim"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 3 * 3
        for cells in rows:
            if cells[0] == "dct8":
                assert float(cells[4]) == 0.0 and float(cells[5]) == 0.0
        per_image_rows = per_image.read_text().splitlines()
        assert per_image_rows[0] == "transform_id,r,image,psnr,ssim"
        assert len(per_image_rows) == 1 + 3 * 3 * 2

    def test_empty_corpus(self, tmp_path):
        (tmp_path / "empty").mkdir()
        tlist = tmp_path / "t.json"
        tlist.write_text('[{"id": "dct8", "dct": 8}]')
        assert main(["sweep", "--corpus", str(tmp_path / "empty"),
                     "--transforms", str(tlist), "--out", str(tmp_path / "o.csv")]) == 2


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


class TestReport:
    def test_golden_rendering_is_byte_stable(self, tmp_path):
        written = report_tables(DATA / "golden_front.csv", tmp_path)
        assert len(written) == 8
        for path in written:
            golden = DATA / "golden_tables" / path.name
            assert path.read_bytes() == golden.read_bytes(), path.name

    def test_empty_front_gives_headers_only(self, tmp_path):
        src = tmp_path / "empty_front.csv"
        src.write_text("# rho=0.95\nrank,a1,a2,a3,a4,a5,a6,a7,a8,"
                       "epsilon,mse,cg,eta,adds,shifts\n")
        written = report_tables(src, tmp_path / "out")
        table1 = (tmp_path / "out" / "table1.csv").read_text().splitlines()
        assert table1 == ["j,a1,a2,a3,a4,a5,a6,a7,a8"]

    def test_malformed_csv_rejected(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("not,a,front\n1,2,3\n")
        with pytest.raises(ValueError):
            report_tables(src, tmp_path / "out")

    def test_report_cli_exit_code(self, tmp_path):
        assert main(["report", "--in", str(tmp_path / "nope.csv"),
                     "--out-dir", str(tmp_path)]) == 4
