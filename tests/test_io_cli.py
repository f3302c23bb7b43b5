import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import deflatrix.bounds
import deflatrix.cli
import deflatrix.clustering
import deflatrix.diagnostics
import deflatrix.selftest
from deflatrix import io as dio
from deflatrix.cli import main, parse_spectrum
from deflatrix.clustering import Dataset, synthetic_blobs
from deflatrix.deflate import run_inexact_deflation
from deflatrix.diagnostics import diagnose_run
from deflatrix.errors import DegenerateGapError, SchemaError
from deflatrix.linalg import (
    ExponentialSpectrum,
    PowerLawSpectrum,
    RandomSource,
    build_test_sigma,
    random_orthogonal_basis,
)
from deflatrix.selftest import run_selftest


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        data = synthetic_blobs(n=20, clusters=2, seed=0)
        path = tmp_path / "data.csv"
        dio.write_dataset_csv(data, path)
        back = dio.read_dataset_csv(path)
        assert np.array_equal(back.labels, data.labels)
        np.testing.assert_allclose(back.features, data.features, atol=0)

    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# schema=2\nx,y,label\n0.0,1.0,0\n")
        with pytest.raises(SchemaError, match="schema=1"):
            dio.read_dataset_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [("", "empty dataset"), ("\n  \n", "empty dataset"),
         ("# schema=1\n", "missing header"), ("# schema=1\n\n", "missing header")],
    )
    def test_rejects_file_without_header(self, tmp_path, text, message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(SchemaError) as err:
            dio.read_dataset_csv(path)
        assert err.type is SchemaError
        assert str(err.value) == f"{path}: {message}"

    def test_plain_csv_without_schema_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y,label\n0.0,1.0,0\n1.0,0.0,1\n")
        back = dio.read_dataset_csv(path)
        assert back.n == 2

    @pytest.mark.parametrize("head", ["", "# schema=1\n"])
    def test_byte_order_mark_is_dropped(self, tmp_path, head):
        # a spreadsheet's UTF-8 export starts with U+FEFF, here before the
        # label column or the schema line
        path = tmp_path / "data.csv"
        path.write_text(head + "label,x,y\n0,0.0,1.0\n1,1.0,0.0\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        back = dio.read_dataset_csv(path)
        assert back.labels.tolist() == [0, 1]
        assert back.features.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_byte_order_mark_does_not_hide_the_schema_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# schema=2\nx,y,label\n0.0,1.0,0\n", encoding="utf-8-sig")
        with pytest.raises(SchemaError, match="schema=1"):
            dio.read_dataset_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n0.0,1.0\n")
        with pytest.raises(SchemaError, match="label"):
            dio.read_dataset_csv(path)

    def test_integral_float_label_accepted(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y,label\n0.0,1.0,0.0\n1.0,0.0,1.0\n")
        assert dio.read_dataset_csv(path).labels.tolist() == [0, 1]

    @pytest.mark.parametrize("label", ["2.7", "nan", "inf"])
    def test_non_integral_label_rejected(self, tmp_path, label):
        # int(float("2.7")) would silently put the point in cluster 2
        path = tmp_path / "data.csv"
        path.write_text(f"x,y,label\n0.0,1.0,0\n1.0,0.0,{label}\n")
        with pytest.raises(SchemaError, match="not an integer"):
            dio.read_dataset_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [("0.0,1.0,x", "label 'x' is not a number"),
         ("0.0,oops,1", "y 'oops' is not a number"),
         ("0.0,1.0", "row has 2 cells, header has 3"),
         ("0.0,1.0,2.5", "label '2.5' is not an integer")],
    )
    def test_row_errors_name_path_line_and_cell(self, tmp_path, row, message):
        # line 4 of the file: the schema line, the header and a blank line come first
        path = tmp_path / "data.csv"
        path.write_text(f"# schema=1\nx,y,label\n\n{row}\n0.0,0.0,0\n")
        with pytest.raises(SchemaError) as info:
            dio.read_dataset_csv(path)
        assert str(info.value) == f"{path}:4: {message}"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", " NaN "])
    def test_non_finite_feature_names_path_line_and_column(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"x,y,label\n0.0,1.0,0\n1.0,{cell},1\n")
        with pytest.raises(SchemaError) as info:
            dio.read_dataset_csv(path)
        assert str(info.value) == f"{path}:3: y {cell.strip()!r} is not finite"


class TestRunDir:
    def test_needs_one_diagnostic_row_per_step(self, tmp_path):
        basis = random_orthogonal_basis(6, RandomSource(3))
        sigma, spec = build_test_sigma(6, PowerLawSpectrum(1.0), basis)
        run = run_inexact_deflation(sigma, 3, 40, RandomSource(4), spectrum=spec)
        diags = diagnose_run(run)
        dio.write_run_dir(run, diags, tmp_path / "ok")
        rows = (tmp_path / "ok" / "run.csv").read_text().splitlines()[2:]
        assert [float(r.split(",")[2]) for r in rows] == [dg.sub_err for dg in diags]
        with pytest.raises(ValueError, match="one diagnostic row per step"):
            dio.write_run_dir(run, diags[:-1], tmp_path / "short")


class TestFigureCsvs:
    @pytest.mark.parametrize("j", [0, 7])
    def test_direction_outside_one_to_d_raises(self, tmp_path, j):
        # column j - 1 of a d = 6 run: 0 would wrap to column 6, 7 past it
        basis = random_orthogonal_basis(6, RandomSource(3))
        sigma, spec = build_test_sigma(6, PowerLawSpectrum(1.0), basis)
        diags = diagnose_run(run_inexact_deflation(sigma, 3, 40, RandomSource(4), spectrum=spec))
        with pytest.raises(ValueError, match=rf"out of range: \[{j}\]"):
            dio.write_figure_csvs(diags, [2, j], tmp_path)
        assert not (tmp_path / "fig2.csv").exists()


class TestBoundsCsv:
    def test_empty_report_writes_only_the_header(self, tmp_path):
        dio.write_bounds_csv([], tmp_path / "bounds.csv")
        assert (tmp_path / "bounds.csv").read_text().splitlines() == [
            "# schema=1",
            "k,thm1_bound,thm2_bound,empirical_err,slack_thm1,slack_thm2,cond7,cond12,cond13",
        ]


    # one row per kind of value _fmt formats: None, Python and numpy bools,
    # Python and numpy ints, inf, nan, -0.0 and a plain float
    ROWS = [
        deflatrix.bounds.BoundRow(
            k=1, agnostic=None, power_iter=math.inf, empirical=-0.0,
            condition_agnostic=False, condition_step_floor=np.bool_(True),
            condition_tail=np.bool_(False), error_budget=math.nan, iteration_budget=12,
        ),
        deflatrix.bounds.BoundRow(
            k=np.int64(2), agnostic=0.5, power_iter=None, empirical=0.1,
            condition_agnostic=True, condition_step_floor=False,
            condition_tail=True, error_budget=-0.0, iteration_budget=np.int64(7),
        ),
    ]
    HEADER = "k,thm1_bound,thm2_bound,empirical_err,slack_thm1,slack_thm2,cond7,cond12,cond13"

    def test_every_kind_of_value_is_pinned(self, tmp_path):
        dio.write_bounds_csv(self.ROWS, tmp_path / "bounds.csv")
        assert (tmp_path / "bounds.csv").read_bytes() == (
            f"# schema=1\n{self.HEADER},delta_budget,t_budget\n"
            "1,precondition-failed,inf,-0.0,precondition-failed,inf,false,true,false,nan,12\n"
            "2,0.5,precondition-failed,0.1,5.0,precondition-failed,true,false,true,-0.0,7\n"
        ).encode()

    def test_without_budgets_is_pinned(self, tmp_path):
        rows = [dataclasses.replace(r, error_budget=None, iteration_budget=None) for r in self.ROWS]
        dio.write_bounds_csv(rows, tmp_path / "bounds.csv")
        assert (tmp_path / "bounds.csv").read_bytes() == (
            f"# schema=1\n{self.HEADER}\n"
            "1,precondition-failed,inf,-0.0,precondition-failed,inf,false,true,false\n"
            "2,0.5,precondition-failed,0.1,5.0,precondition-failed,true,false,true\n"
        ).encode()


class TestVectorsCsv:
    def test_rows_match_per_entry_formatting(self):
        values = [-0.0, 5e-324, 1e16, 1.0, 0.1, -1.5e-300, 1e300]
        mat = np.array([values, values[::-1], values[3:] + values[:3]]).T
        lines = dio._vectors_csv(mat, "vectors")
        # the writer's per-entry formatter is the reference for every row
        assert lines[2:] == [",".join(dio._fmt(x) for x in row) for row in mat]
        assert [line.split(",")[0] for line in lines[2:]] == [repr(x) for x in values]


class TestParseSpectrum:
    def test_kinds(self):
        assert parse_spectrum("power-law:1.5") == PowerLawSpectrum(1.5)
        assert parse_spectrum("power-law") == PowerLawSpectrum(1.0)
        assert parse_spectrum("exponential:0.8") == ExponentialSpectrum(0.8)
        assert parse_spectrum("explicit:1,0.5").values == (1.0, 0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_spectrum("zipf:1")

    @pytest.mark.parametrize(
        "text, message",
        [("exponential", "exponential spectrum needs a decay rate, e.g. exponential:0.8"),
         ("explicit:", "explicit spectrum needs values, e.g. explicit:1,0.5,0.25")],
    )
    def test_kind_without_values(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_spectrum(text)
        assert err.type is ValueError
        assert str(err.value) == message


def run_cli(*argv):
    return main(list(argv))


# SHA-256 of each file written by
# `deflate --d 32 --K 32 --t 200 --spectrum power-law:1 --seed 1`
FIGURE_TRACE_SHA256 = {
    "bounds.csv": "73bcdffa323e952d44c894545e3bf6a35a6b91b68342a3f999981f36d260c61d",
    "fig2.csv": "3029cbfcf02cfaf441fd10814e925ad5ef3701e058ffa145bb5d5c55b1c246a2",
    "fig3.csv": "6a72f361c115712e2e99af291d29d675b7267a58530ec64ab500e55b11a0ffdb",
    "fig4.csv": "463b6c682aee3481f3678bee85d11ed6761d5b6be09c7628e0f9be990ba4151a",
    "meta.json": "c6cf07780b148a4fe5ade0bd006dfc7d34b08073195cd94803c6d04d2b417dbb",
    "run.csv": "5a8b1c8e15f166f8d8e1adc73b839dfaa845a5b488b6749318f67195ce2da3d2",
    "u.csv": "bb2543ce92613a07072eff07c92d4b2cc76b019171b795e1a767806208c884ff",
    "v.csv": "c5a848ce54d046d973c5b811aef29627d955b00de8d02b8f570131f4f1e873c0",
}


class TestDeflateCommand:
    def test_writes_artifact_suite(self, tmp_path):
        code = run_cli(
            "deflate", "--d", "12", "--K", "6", "--t", "50",
            "--spectrum", "power-law:1", "--seed", "42", "--out", str(tmp_path),
        )
        assert code == 0
        for name in ("run.csv", "v.csv", "u.csv", "meta.json",
                     "fig2.csv", "fig3.csv", "fig4.csv", "bounds.csv"):
            assert (tmp_path / name).exists(), name
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["d"] == 12 and meta["K"] == 6 and meta["seed"] == 42
        header = (tmp_path / "bounds.csv").read_text().splitlines()[1]
        assert header == (
            "k,thm1_bound,thm2_bound,empirical_err,slack_thm1,slack_thm2,"
            "cond7,cond12,cond13"
        )

    def test_figure_trace_files_are_pinned(self, tmp_path):
        # A change that claims the same output bits must leave every file
        # of this run as it is. At d=32 OpenBLAS runs its matrix-vector
        # products on one thread, so the digests do not depend on the BLAS
        # thread count.
        code = run_cli(
            "deflate", "--d", "32", "--K", "32", "--t", "200",
            "--spectrum", "power-law:1", "--seed", "1", "--out", str(tmp_path),
        )
        assert code == 0
        got = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.iterdir())
        }
        assert got == FIGURE_TRACE_SHA256, f"numpy {np.__version__}"

    def test_usage_error_when_k_exceeds_d(self, tmp_path, capsys):
        code = run_cli("deflate", "--d", "3", "--K", "5", "--out", str(tmp_path))
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [(("--d", "0"), "d must be >= 1"), (("--d", "3", "--K", "5"), "K must lie in [1, 3]")],
    )
    @pytest.mark.parametrize("command", ["bounds", "deflate"])
    def test_run_size_errors_carry_the_library_message(
        self, tmp_path, capsys, command, argv, message
    ):
        out = tmp_path / "out"
        assert run_cli(command, *argv, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "spectrum",
        ["power-law:nan", "explicit:1,nan,0.1", "explicit:inf,1,0.5", "exponential:nan"],
    )
    def test_non_finite_spectrum_is_a_precondition_abort(self, tmp_path, capsys, spectrum):
        out = tmp_path / "out"
        code = run_cli("deflate", "--d", "3", "--t", "5", "--spectrum", spectrum, "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.startswith("precondition failed: ")
        assert not out.exists()

    def test_j_slice_selects_the_figure_directions(self, tmp_path):
        code = run_cli("deflate", "--d", "6", "--t", "30", "--j-slice", "2,5",
                       "--out", str(tmp_path))
        assert code == 0
        for name in ("fig2.csv", "fig3.csv", "fig4.csv"):
            rows = (tmp_path / name).read_text().splitlines()[2:]
            pairs = [tuple(int(x) for x in row.split(",")[:2]) for row in rows]
            assert pairs == [(k, j) for k in range(1, 7) for j in (2, 5)], name

    @pytest.mark.parametrize("j_slice", ["0", "7", ",", ""])
    def test_bad_j_slice_exits_one(self, tmp_path, capsys, j_slice):
        out = tmp_path / "out"
        code = run_cli("deflate", "--d", "6", "--t", "30", "--j-slice", j_slice, "--out", str(out))
        assert code == 1
        assert "j-slice" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_j_slice_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        def no_run(*args):
            raise AssertionError("the deflation ran before --j-slice was checked")

        monkeypatch.setattr(deflatrix.cli, "reference_run", no_run)
        out = tmp_path / "out"
        code = run_cli("deflate", "--d", "150", "--j-slice", "151", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --j-slice entries out of range: [151]")
        assert not out.exists()

    def test_j_slice_at_d_zero_reports_the_size_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("deflate", "--d", "0", "--j-slice", "1", "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: d must be >= 1")
        assert not out.exists()

    def test_repeated_j_slice_directions_are_written_once(self, tmp_path):
        once, twice = tmp_path / "once", tmp_path / "twice"
        assert run_cli("deflate", "--d", "6", "--t", "30", "--j-slice", "5,2",
                       "--out", str(once)) == 0
        assert run_cli("deflate", "--d", "6", "--t", "30", "--j-slice", "5,2,5,2,2",
                       "--out", str(twice)) == 0
        for name in ("fig2.csv", "fig3.csv", "fig4.csv"):
            assert (twice / name).read_bytes() == (once / name).read_bytes(), name
            rows = (once / name).read_text().splitlines()[2:]
            pairs = [tuple(int(x) for x in row.split(",")[:2]) for row in rows]
            assert pairs == [(k, j) for k in range(1, 7) for j in (5, 2)], name

    def test_precondition_abort_on_tied_spectrum(self, tmp_path, capsys):
        code = run_cli(
            "deflate", "--d", "3", "--K", "2", "--t", "5",
            "--spectrum", "explicit:1,0.5,0.5", "--out", str(tmp_path),
        )
        assert code == 2
        assert "precondition" in capsys.readouterr().err

    def test_precondition_abort_on_oracle_failure(self, tmp_path, monkeypatch, capsys):
        def fail(a):
            raise np.linalg.LinAlgError("eigh did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        code = run_cli("deflate", "--d", "6", "--K", "2", "--t", "5", "--out", str(tmp_path))
        assert code == 2
        assert "did not converge" in capsys.readouterr().err

    def test_bounds_matches_deflate_without_diagnostics(self, tmp_path, monkeypatch):
        args = ["--d", "30", "--K", "30", "--t", "200", "--seed", "42", "--epsilon", "0.01"]
        assert run_cli("deflate", *args, "--out", str(tmp_path / "d")) == 0

        def forbidden(*a, **kw):
            raise AssertionError("bounds must not run the diagnostics")

        monkeypatch.setattr("deflatrix.cli.diagnose_run", forbidden)
        assert run_cli("bounds", *args, "--out", str(tmp_path / "b")) == 0
        expected = (tmp_path / "d" / "bounds.csv").read_bytes()
        assert (tmp_path / "b" / "bounds.csv").read_bytes() == expected

    def test_memory_stays_quadratic_in_d(self, tmp_path):
        # a run keeps vectors and replays each deflated matrix when needed;
        # storing every sigma_k and ideal matrix would take 2(K+1) d^2 doubles
        d = 120
        tracemalloc.start()
        try:
            code = run_cli("deflate", "--d", str(d), "--K", str(d), "--out", str(tmp_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 64 * d * d * 8

    @pytest.mark.filterwarnings("ignore:leading eigenvalue")
    @pytest.mark.parametrize("epsilon", [None, "1e-2"])
    def test_zero_log_gap_reads_inadmissible(self, tmp_path, epsilon):
        # adjacent eigenvalues one ulp apart have log lambda_1 == log lambda_2,
        # so the spectral-decay floor is infinite rather than a division error
        extra = ["--epsilon", epsilon] if epsilon else []
        code = run_cli(
            "bounds", "--d", "3", "--K", "2", "--t", "50",
            "--spectrum", "explicit:1e10,9999999999.999998,1",
            "--out", str(tmp_path), *extra,
        )
        assert code == 0
        lines = (tmp_path / "bounds.csv").read_text().splitlines()
        header = lines[1].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
        assert len(rows) == 2
        for row in rows:
            assert row["thm2_bound"] == "precondition-failed"
            assert row["cond12"] == "false"
        if epsilon:
            assert rows[0]["t_budget"] == "inf"

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["bounds", "deflate"])
    def test_rejects_epsilon_outside_positive_reals(self, tmp_path, capsys, command, epsilon):
        out = tmp_path / "out"
        code = run_cli(command, "--d", "5", "--epsilon", epsilon, "--out", str(out))
        assert code == 1
        assert "epsilon must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bounds", "deflate"])
    def test_bad_epsilon_rejected_before_the_run(self, tmp_path, monkeypatch, capsys, command):
        def forbidden(*a, **kw):
            raise AssertionError("a bad --epsilon must be rejected before the deflation")

        monkeypatch.setattr("deflatrix.cli.reference_run", forbidden)
        out = tmp_path / "out"
        code = run_cli(command, "--d", "5", "--epsilon", "nan", "--out", str(out))
        assert code == 1
        assert "epsilon must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_epsilon_adds_budget_columns(self, tmp_path):
        code = run_cli(
            "bounds", "--d", "8", "--K", "3", "--t", "120",
            "--epsilon", "0.01", "--out", str(tmp_path), "--seed", "1",
        )
        assert code == 0
        header = (tmp_path / "bounds.csv").read_text().splitlines()[1]
        assert header.endswith(",delta_budget,t_budget")

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("--d", "40", "--K", "20", "--t", "800",
              "--spectrum", "exponential:0.7", "--epsilon", "1e-2"),
             "4267147014c433f76f94cee56bea4ca56c6b14c5f9f393f82cb0d96d3deff5ed"),
            # K = d: the last step reads lambda_{K+1} = 0
            (("--d", "60", "--K", "60", "--t", "20000",
              "--spectrum", "power-law:2", "--epsilon", "1e-6"),
             "91f1fdb0934e5857c33a43db2f7e4b311949940ffd8bddddef4fb6dce6d692ed"),
        ],
    )
    def test_budget_columns_are_pinned(self, tmp_path, argv, digest):
        # SHA-256 of bounds.csv, the delta_budget and t_budget columns included,
        # the same under one BLAS thread and the default thread count
        assert run_cli("bounds", *argv, "--out", str(tmp_path)) == 0
        got = hashlib.sha256((tmp_path / "bounds.csv").read_bytes()).hexdigest()
        assert got == digest, f"numpy {np.__version__}"

    def test_small_t_marks_gated_bounds(self, tmp_path):
        code = run_cli(
            "bounds", "--d", "10", "--K", "5", "--t", "1",
            "--out", str(tmp_path), "--seed", "2",
        )
        assert code == 0
        body = (tmp_path / "bounds.csv").read_text()
        assert "precondition-failed" in body
        assert ",false" in body

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DEFLATRIX_OUT", str(tmp_path / "envout"))
        code = run_cli("bounds", "--d", "6", "--K", "2", "--t", "40", "--seed", "3")
        assert code == 0
        assert (tmp_path / "envout" / "bounds.csv").exists()

    def test_config_file_with_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=10\nk=4\nt=30\nseed=9\nspectrum=exponential:0.7\n")
        out = tmp_path / "o1"
        code = run_cli("deflate", "--config", str(cfg), "--K", "2", "--out", str(out))
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["K"] == 2  # flag beats config
        assert meta["d"] == 10

    @pytest.mark.parametrize("key", ["K", "k"])
    def test_config_spells_k_like_the_flag(self, tmp_path, key):
        # `--K` is the flag, so `K=` is its config key; `k=` still works
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"d=10\n{key}=4\nt=30\nseed=9\n")
        for argv, rows in (((), 4), (("--K", "2"), 2)):  # a flag beats the config
            out = tmp_path / f"o{rows}"
            assert run_cli("bounds", "--config", str(cfg), *argv, "--out", str(out)) == 0
            steps = [line.split(",")[0] for line in (out / "bounds.csv").read_text().splitlines()]
            assert steps[2:] == [str(k) for k in range(1, rows + 1)]

    def test_config_rejects_unknown_keys(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dd=10\n")
        assert run_cli("deflate", "--config", str(cfg)) == 1

    def test_config_warns_about_keys_of_other_commands(self, tmp_path, capsys):
        # t-values and jobs belong to `cluster`; `bounds` runs without them
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=10\nK=3\nt-values=5,20\njobs=x\n")
        out = tmp_path / "o"
        assert run_cli("bounds", "--config", str(cfg), "--out", str(out)) == 0
        err = capsys.readouterr().err
        assert err == "warning: ignoring config keys bounds does not use: t-values, jobs\n"
        steps = [line.split(",")[0] for line in (out / "bounds.csv").read_text().splitlines()]
        assert steps[2:] == ["1", "2", "3"]
        # a misspelled key is still an error
        cfg.write_text("d=10\nt-value=5\n")
        assert run_cli("bounds", "--config", str(cfg), "--out", str(out)) == 1
        assert "unknown config key 't_value'" in capsys.readouterr().err


class TestDecayPrecondition:
    # decay is checked over lambda_1..lambda_{K+1} only, so a fast-decaying
    # spectrum whose tail gaps fall below 1e-12 runs at small K
    @pytest.mark.parametrize(
        "argv, files",
        [
            (("deflate", "--d", "45", "--K", "5", "--spectrum", "exponential:0.5"),
             {"run.csv", "v.csv", "u.csv", "meta.json",
              "fig2.csv", "fig3.csv", "fig4.csv", "bounds.csv"}),
            (("bounds", "--d", "100", "--K", "20", "--spectrum", "exponential:0.7"),
             {"bounds.csv"}),
        ],
    )
    def test_tail_gaps_below_tolerance_run(self, tmp_path, argv, files):
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        assert {p.name for p in tmp_path.iterdir()} == files
        lines = (tmp_path / "bounds.csv").read_text().splitlines()
        assert len(lines) == 2 + int(argv[4])

    @pytest.mark.parametrize("command", ["deflate", "bounds"])
    def test_tie_past_k_plus_one_runs(self, tmp_path, command):
        # lambda_3 = lambda_4 lies past lambda_{K+1}; the tie only makes the
        # decay floor infinite, so the power-iteration bound is inadmissible
        code = run_cli(command, "--d", "4", "--K", "1", "--t", "50",
                       "--spectrum", "explicit:1,0.5,0.25,0.25", "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "bounds.csv").read_text().splitlines()
        header = lines[1].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
        assert len(rows) == 1
        assert all(row["thm2_bound"] == "precondition-failed" for row in rows)

    @pytest.mark.parametrize(
        "spectrum", ["explicit:1,0.5,0", "explicit:1,0.5,-0.25", "explicit:1,0.25,0.5"]
    )
    def test_nonpositive_or_unsorted_spectrum_aborts(self, tmp_path, capsys, spectrum):
        out = tmp_path / "out"
        code = run_cli("deflate", "--d", "3", "--K", "1", "--t", "20",
                       "--spectrum", spectrum, "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.startswith("precondition failed: ")
        assert not out.exists()

    def test_underflowing_tail_aborts(self, tmp_path, capsys):
        # 0.01**399 underflows to 0, which the run rejects as non-positive
        code = run_cli("bounds", "--d", "400", "--K", "2", "--t", "5",
                       "--spectrum", "exponential:0.01", "--out", str(tmp_path))
        assert code == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("K, code", [("1", 0), ("2", 2)])
    def test_gap_within_k_plus_one_aborts(self, tmp_path, capsys, K, code):
        # lambda_2 - lambda_3 = 1e-13 matters only once the run reaches step 2
        out = tmp_path / "out"
        got = run_cli("deflate", "--d", "3", "--K", K, "--t", "20",
                      "--spectrum", "explicit:1,0.5,0.4999999999999", "--out", str(out))
        assert got == code
        if code == 2:
            assert "strictly decreasing" in capsys.readouterr().err
            assert not out.exists()

    def test_leading_eigenvalue_warned_once(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("deflate", "--d", "3", "--K", "2", "--t", "50",
                           "--spectrum", "explicit:2,1,0.5", "--out", str(tmp_path))
        assert code == 0
        assert [str(w.message) for w in caught] == [
            "leading eigenvalue is not 1; proceeding without rescaling"
        ]


class TestUsageErrors:
    # argparse's own exit code 2 is reserved for precondition aborts
    @pytest.mark.parametrize("argv", [("deflate", "--bogus"), ()])
    def test_usage_error_exits_one(self, capsys, argv):
        assert main(list(argv)) == 1
        assert "usage: deflatrix" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: deflatrix" in capsys.readouterr().out


class TestClusterCommand:
    def test_blobs_sweep(self, tmp_path):
        code = run_cli(
            "cluster", "--data", "blobs", "--r", "6", "--k", "4", "--clusters", "4",
            "--t-values", "5,25", "--seeds", "0,1", "--out", str(tmp_path),
        )
        assert code == 0
        mi_lines = (tmp_path / "mi_vs_t.csv").read_text().splitlines()
        assert mi_lines[0] == "# schema=1"
        assert mi_lines[1] == "t,seed,mi"
        assert len(mi_lines) == 6
        summary = (tmp_path / "mi_summary.csv").read_text().splitlines()
        assert summary[1] == "t,mean_mi,std_mi"
        assert len(summary) == 4

    def test_default_cluster_count_ignores_where_the_labels_start(self, tmp_path):
        # labels 1..3 are three clusters, as 0..3 would not be
        data = synthetic_blobs(n=60, clusters=3, seed=2)
        args = ["cluster", "--r", "5", "--t-values", "4,12", "--seeds", "0,1"]
        for name, labels in (("zero", data.labels), ("one", data.labels + 1)):
            path = tmp_path / f"{name}.csv"
            dio.write_dataset_csv(Dataset(data.features, labels), path)
            assert run_cli(*args, "--data", str(path), "--out", str(tmp_path / name)) == 0
        assert ((tmp_path / "zero" / "mi_vs_t.csv").read_bytes()
                == (tmp_path / "one" / "mi_vs_t.csv").read_bytes())

    def test_non_integral_label_exits_one(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        rows = [f"{i % 2}.0,{i // 2}.0,{i % 2}" for i in range(8)] + ["0.5,0.5,2.7"]
        data.write_text("x,y,label\n" + "\n".join(rows) + "\n")
        out = tmp_path / "out"
        code = run_cli("cluster", "--data", str(data), "--r", "3", "--t-values", "4",
                       "--seeds", "0", "--out", str(out))
        assert code == 1
        assert "not an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_cell_exits_one_with_its_location(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        rows = [f"{i % 2}.0,{i // 2}.0,{i % 2}" for i in range(8)] + ["0.5,0.5,x"]
        data.write_text("x,y,label\n" + "\n".join(rows) + "\n")
        out = tmp_path / "out"
        code = run_cli("cluster", "--data", str(data), "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {data}:10: label 'x' is not a number")
        assert not out.exists()

    @pytest.mark.parametrize("head", ["", "# schema=1\n"])
    def test_header_only_dataset_exits_one_naming_the_file(self, tmp_path, capsys, head):
        data = tmp_path / "h.csv"
        data.write_text(head + "f0,label\n\n")
        out = tmp_path / "out"
        code = run_cli("cluster", "--data", str(data), "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == f"error: {data}: no data rows\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [("x,label\n0.0,0\n1.0,1\ninf,0\n", "{data}:4: x 'inf' is not finite"),
         ("label\n0\n1\n0\n1\n", "{data}: no feature columns"),
         ("x,label\n0.0,0\n1.0,2\n", "{data}: labels must cover a contiguous integer range")],
        ids=["non-finite", "label-only", "label-gap"],
    )
    def test_dataset_errors_exit_one_naming_the_file(self, tmp_path, capsys, text, message):
        data = tmp_path / "data.csv"
        data.write_text(text)
        out = tmp_path / "out"
        code = run_cli("cluster", "--data", str(data), "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == f"error: {message.format(data=data)}\n"
        assert not out.exists()

    def test_missing_dataset_file(self, tmp_path):
        code = run_cli("cluster", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path))
        assert code == 1

    def test_byte_deterministic_sweep(self, tmp_path):
        args = ["cluster", "--data", "blobs", "--r", "5", "--k", "3", "--clusters", "3",
                "--t-values", "4,12", "--seeds", "0,1"]
        assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
        for name in ("mi_vs_t.csv", "mi_summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_repeated_cells_run_once(self, tmp_path):
        # a repeated t value or seed would add copies of a cell to the std
        args = ["cluster", "--data", "blobs", "--r", "5", "--k", "3", "--clusters", "3"]
        assert run_cli(*args, "--t-values", "12,4,12", "--seeds", "1,0,1,1",
                       "--out", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--t-values", "12,4", "--seeds", "1,0",
                       "--out", str(tmp_path / "b")) == 0
        for name in ("mi_vs_t.csv", "mi_summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert len((tmp_path / "a" / "mi_vs_t.csv").read_text().splitlines()) == 6

    @pytest.mark.parametrize(
        "argv, message",
        [(("--clusters", "0"), "k_clusters must lie in [1, 500]"),
         (("--k", "0", "--clusters", "3"), "k must lie in [1, 500]")],
    )
    def test_count_errors_name_the_count_that_is_wrong(self, tmp_path, capsys, argv, message):
        # without --k, k is the cluster count, so a bad cluster count is
        # reported as such
        out = tmp_path / "out"
        assert run_cli("cluster", "--data", "blobs", *argv, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_blobs_csv_script_matches_the_builtin_blobs(self, tmp_path):
        # the README: `make_blobs_csv.py PATH`, then `cluster --data PATH`,
        # writes the bytes of `cluster --data blobs`, at any blob seed
        src = Path(deflatrix.__file__).resolve().parent.parent
        script = src.parent / "scripts" / "make_blobs_csv.py"
        env = {**os.environ, "PYTHONPATH": str(src)}
        sweep = ["--t-values", "5,20", "--seeds", "0,1"]
        for seed in ("0", "3"):
            csv_path, csv_out, blobs_out = (tmp_path / f"{name}{seed}"
                                            for name in ("blobs.csv", "csv", "blobs"))
            subprocess.run([sys.executable, str(script), str(csv_path), "--seed", seed],
                           env=env, capture_output=True, check=True)
            assert run_cli("cluster", "--data", str(csv_path), *sweep,
                           "--out", str(csv_out)) == 0
            assert run_cli("cluster", "--data", "blobs", "--seed", seed, *sweep,
                           "--out", str(blobs_out)) == 0
            for name in ("mi_vs_t.csv", "mi_summary.csv"):
                assert (csv_out / name).read_bytes() == (blobs_out / name).read_bytes()

    def test_job_count_does_not_change_sweep(self, tmp_path):
        # worker processes compute the cells the serial run computes in turn,
        # and every worker has exited once the command returns
        args = ["cluster", "--data", "blobs", "--r", "5", "--k", "3", "--clusters", "3",
                "--t-values", "4,12", "--seeds", "0,1"]
        assert run_cli(*args, "--jobs", "1", "--out", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--jobs", "2", "--out", str(tmp_path / "b")) == 0
        assert multiprocessing.active_children() == []
        for name in ("mi_vs_t.csv", "mi_summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize(
        "extra, digests",
        [
            ((), ("058c7244613328eff00dfeb5dc2d8a3b3dbcee16f282ff13f7d812d955d33939",
                  "38c33ba11be6ace9c03444951ca69a508b05b74752ebe8a6a9b3345a934301d2")),
            (("--spectrum-end", "bottom", "--row-normalize"),
             ("c7cd4a2213ccb0035b3c77445be0dc37da5115855e0449272d36fdf39096485a",
              "bb87288a4a60299f271ed7c92080b34b8bf9e85f585d0cdeb2fd4d5a906ffb48")),
        ],
    )
    def test_cluster_files_are_pinned(self, tmp_path, extra, digests):
        # SHA-256 of mi_vs_t.csv and mi_summary.csv, the same for one and two
        # jobs and under one BLAS thread and the default thread count
        args = ["cluster", "--data", "blobs", "--r", "5", "--k", "3", "--clusters", "3",
                "--t-values", "4,12", "--seeds", "0,1", *extra]
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            assert run_cli(*args, "--jobs", jobs, "--out", str(out)) == 0
            got = tuple(
                hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("mi_vs_t.csv", "mi_summary.csv")
            )
            assert got == digests, f"jobs={jobs}, numpy {np.__version__}"

    def test_complete_graph_sweep_is_pinned(self, tmp_path, monkeypatch):
        # at r = n - 1 every entry is nonzero, so the runs multiply by the
        # dense Laplacian; SHA-256 of the two files as the dense deflation
        # chain wrote them
        def no_csr(*args):
            raise AssertionError("a complete graph was stored in CSR form")

        monkeypatch.setattr(deflatrix.clustering, "_CsrMatrix", no_csr)
        assert run_cli("cluster", "--data", "blobs", "--r", "499", "--k", "3", "--clusters", "3",
                       "--t-values", "4,12", "--seeds", "0,1", "--out", str(tmp_path)) == 0
        got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("mi_vs_t.csv", "mi_summary.csv"))
        assert got == ("13a84d2a71ea9c53d583aa064a8b94c5e5f2615afc472c0efbed9c5720ca9cd2",
                       "7a2a93c3bdeb6d1c72435d72287d2790798aea45ef37b683e13d7cdb6283360d")

    def test_cluster_files_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # k-means multiplies by its centers through BLAS, which reads its
        # thread count once, when numpy is imported: one process per setting
        src = Path(deflatrix.cli.__file__).resolve().parent.parent
        code = "import sys; from deflatrix.cli import main; sys.exit(main(sys.argv[1:]))"
        written = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-c", code, "cluster", "--data", "blobs",
                            "--out", str(out)], env=env, capture_output=True, check=True)
            written.append([(out / name).read_bytes() for name in ("mi_vs_t.csv", "mi_summary.csv")])
        assert written[0] == written[1]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="workers inherit the patched k-means only when forked",
    )
    def test_worker_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        def degenerate(*args, **kwargs):
            raise DegenerateGapError("k-means found no gap")

        monkeypatch.setattr(deflatrix.clustering, "kmeans", degenerate)
        code = run_cli("cluster", "--data", "blobs", "--r", "5", "--k", "3", "--clusters", "3",
                       "--t-values", "4", "--seeds", "0,1,2", "--jobs", "2",
                       "--out", str(tmp_path))
        assert code == 2
        assert "k-means found no gap" in capsys.readouterr().err
        assert not (tmp_path / "mi_vs_t.csv").exists()
        assert multiprocessing.active_children() == []

    def test_zero_jobs_rejected(self, tmp_path, capsys):
        code = run_cli("cluster", "--data", "blobs", "--r", "5", "--k", "3", "--clusters", "3",
                       "--t-values", "4", "--seeds", "0", "--jobs", "0", "--out", str(tmp_path))
        assert code == 1
        assert "jobs must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "mi_vs_t.csv").exists()

    def test_trend_line_reported(self, tmp_path, capsys):
        code = run_cli("cluster", "--data", "blobs", "--r", "5", "--k", "3",
                       "--clusters", "3", "--t-values", "4,30", "--seeds", "0",
                       "--out", str(tmp_path))
        assert code == 0
        assert "MI trend across t:" in capsys.readouterr().out


# The selftest's closed forms, bound rows and directional sums share work
# across steps but must compute the same bits as their one-term-at-a-time
# forms, so neither this table nor any worst margin below may move.
SELFTEST_SEED0_TABLE = """\
check                      holds  violated  skipped
agnostic_formula_oracle        1         0        0
agnostic_soundness            10         0        0
alignment_floor               68         0       35
budget_e2e                     4         0        0
directional_bound             55         0       48
directional_sum              103         0        0
drift_bound                   55         0       48
eigenvalue_shift             103         0        0
eigvec_sensitivity            66         0       37
gap_recurrence                61         0       26
inner_identity                40         0        0
iterate_convergence           88         0        8
perturbed_alignment           30         0        0
pi_formula_oracle              1         0        0
power_iter_formula_oracle      1         0        0
power_iter_soundness           8         0        0
recurrence_affine_form       200         0        0
recurrence_geometric_tail    200         0        0
recurrence_sum_form          200         0        0
"""

# (holds, violated, skipped, worst) per row of run_selftest(seed)
SELFTEST_TALLIES = {
    0: {
        "agnostic_formula_oracle": (1, 0, 0, None),
        "agnostic_soundness": (10, 0, 0, None),
        "alignment_floor": (68, 0, 35, 9.999689137553105e-11),
        "budget_e2e": (4, 0, 0, None),
        "directional_bound": (55, 0, 48, 9.999962439950387e-11),
        "directional_sum": (103, 0, 0, 9.999994398271376e-11),
        "drift_bound": (55, 0, 48, 9.999827261953733e-11),
        "eigenvalue_shift": (103, 0, 0, 9.999933386618523e-11),
        "eigvec_sensitivity": (66, 0, 37, 9.999827261953733e-11),
        "gap_recurrence": (61, 0, 26, None),
        "inner_identity": (40, 0, 0, 9.999938461891137e-07),
        "iterate_convergence": (88, 0, 8, None),
        "perturbed_alignment": (30, 0, 0, None),
        "pi_formula_oracle": (1, 0, 0, None),
        "power_iter_formula_oracle": (1, 0, 0, None),
        "power_iter_soundness": (8, 0, 0, None),
        "recurrence_affine_form": (200, 0, 0, 9.993185283655222e-13),
        "recurrence_geometric_tail": (200, 0, 0, None),
        "recurrence_sum_form": (200, 0, 0, 9.98682188286243e-13),
    },
    1: {
        "agnostic_formula_oracle": (1, 0, 0, None),
        "agnostic_soundness": (10, 0, 0, None),
        "alignment_floor": (69, 0, 25, 9.99982236431606e-11),
        "budget_e2e": (4, 0, 0, None),
        "directional_bound": (60, 0, 34, 9.999973509904778e-11),
        "directional_sum": (94, 0, 0, 9.999991673327316e-11),
        "drift_bound": (60, 0, 34, 9.999881034831809e-11),
        "eigenvalue_shift": (94, 0, 0, 9.99991118215803e-11),
        "eigvec_sensitivity": (68, 0, 26, 9.999881034831809e-11),
        "gap_recurrence": (60, 0, 18, None),
        "inner_identity": (40, 0, 0, 9.999988420844706e-07),
        "iterate_convergence": (104, 0, 4, None),
        "perturbed_alignment": (30, 0, 0, None),
        "pi_formula_oracle": (1, 0, 0, None),
        "power_iter_formula_oracle": (1, 0, 0, None),
        "power_iter_soundness": (8, 0, 0, None),
        "recurrence_affine_form": (200, 0, 0, 9.993511716680014e-13),
        "recurrence_geometric_tail": (200, 0, 0, None),
        "recurrence_sum_form": (200, 0, 0, 9.987690552755686e-13),
    },
}


class TestSelftestCommand:
    def test_clean_run_exits_zero(self, capsys):
        import time

        start = time.perf_counter()
        code = run_cli("selftest", "--seed", "0")
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == SELFTEST_SEED0_TABLE
        assert captured.err == ""
        assert elapsed <= 60.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tallies_and_worst_margins_are_pinned(self, seed):
        got = {
            name: (t.holds, t.violated, t.skipped, t.worst)
            for name, t in run_selftest(seed).items()
        }
        assert got == SELFTEST_TALLIES[seed]

    def test_mutation_canary_detected(self, capsys, monkeypatch):
        # a leading constant of 4 in place of 5 in the agnostic bound must
        # surface as violations
        real = deflatrix.bounds.build_bound_report

        def misscaled(inputs, gaps, empirical_errors):
            return [
                dataclasses.replace(
                    row, agnostic=None if row.agnostic is None else 0.8 * row.agnostic
                )
                for row in real(inputs, gaps, empirical_errors)
            ]

        for module in (deflatrix.diagnostics, deflatrix.selftest):
            monkeypatch.setattr(module, "build_bound_report", misscaled)
        code = run_cli("selftest", "--seed", "0")
        assert code == 1
        assert "violation" in capsys.readouterr().err



class TestParserReuse:
    # main() builds its parser once per process; each call must still behave
    # as if it had a parser of its own
    SEQUENCE = [
        ("deflate", "--d", "12", "--K", "12", "--t", "40", "--seed", "3",
         "--spectrum", "exponential:0.7", "--epsilon", "1e-2"),
        ("bounds", "--d", "10", "--t", "30"),
        ("bounds", "--t", "many"),
        ("selftest", "--seed", "0"),
    ]

    @staticmethod
    def outcome(argv, out, capsys):
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        return code, captured.out.replace(str(out), "OUT"), captured.err, files

    def test_calls_in_one_process_match_fresh_parsers(self, tmp_path, capsys):
        fresh = []
        for i, argv in enumerate(self.SEQUENCE):
            deflatrix.cli._parser.cache_clear()
            fresh.append(self.outcome(argv, tmp_path / f"fresh{i}", capsys))
        deflatrix.cli._parser.cache_clear()
        reused = [
            self.outcome(argv, tmp_path / f"reused{i}", capsys)
            for i, argv in enumerate(self.SEQUENCE)
        ]
        assert deflatrix.cli._parser.cache_info().misses == 1
        assert [o[0] for o in reused] == [0, 0, 1, 0]
        assert "invalid int value: 'many'" in reused[2][2]
        assert "delta_budget" not in reused[1][3]["bounds.csv"].decode()
        assert reused == fresh


class TestConfigFile:
    # a config value is the command's default for one call, parsed by its
    # flag's own type, so a config file and the same flags run alike
    CASES = {
        "deflate": {
            "d": "8", "K": "4", "t": "40", "seed": "3", "spectrum": "exponential:0.7",
            "j-slice": "2,7", "epsilon": "0.01",
        },
        "bounds": {
            "d": "8", "K": "5", "t": "60", "seed": "2",
            "spectrum": "explicit:1,0.6,0.4,0.3,0.2,0.15,0.1,0.05", "epsilon": "1e-3",
        },
        "cluster": {
            "data": "blobs", "seed": "1", "r": "5", "k": "3", "clusters": "3",
            "t-values": "4,12", "seeds": "0,1", "spectrum-end": "bottom",
            "row-normalize": "true", "jobs": "1",
        },
        "selftest": {"seed": "1"},
    }

    @staticmethod
    def outcome(argv, out, capsys):
        code = main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        return code, captured.out.replace(str(out), "OUT"), captured.err, files

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_config_matches_flags(self, tmp_path, capsys, command):
        values = self.CASES[command]
        flags = []
        for key, value in values.items():
            if key == "row-normalize":
                flags.append("--row-normalize")
            else:
                flags += [f"--{key}", value]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in values.items()))
        by_flags = self.outcome([command, *flags], tmp_path / "flags", capsys)
        by_config = self.outcome([command, "--config", str(cfg)], tmp_path / "config", capsys)
        assert by_config == by_flags
        assert by_flags[0] == 0

    def test_row_normalize_false_keeps_the_default(self, tmp_path, capsys):
        argv = ["cluster", "--r", "5", "--k", "3", "--clusters", "3", "--t-values", "4",
                "--seeds", "0"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("row-normalize=false\n")
        plain = self.outcome(argv, tmp_path / "plain", capsys)
        assert self.outcome([*argv, "--config", str(cfg)], tmp_path / "config", capsys) == plain

    @pytest.mark.parametrize(
        "value, is_set",
        [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("False", False),
         ("NO", False), ("", False)],
    )
    def test_boolean_config_spellings(self, tmp_path, capsys, value, is_set):
        argv = ["cluster", "--r", "5", "--k", "3", "--clusters", "3", "--t-values", "4",
                "--seeds", "0"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"row-normalize={value}\n")
        flags = ["--row-normalize"] if is_set else []
        expected = self.outcome([*argv, *flags], tmp_path / "flags", capsys)
        assert self.outcome([*argv, "--config", str(cfg)], tmp_path / "config", capsys) == expected

    @pytest.mark.parametrize("value", ["on", "off", "2", "y"])
    def test_other_boolean_config_value_exits_one(self, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"row-normalize={value}\n")
        out = tmp_path / "out"
        assert run_cli("cluster", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {cfg}: row-normalize={value!r} is not a boolean\n"
        assert not out.exists()

    def test_config_does_not_carry_over_to_the_next_call(self, tmp_path):
        deflatrix.cli._parser.cache_clear()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("K=3\nt=30\nseed=9\nspectrum=exponential:0.7\nepsilon=0.01\n")
        assert run_cli("bounds", "--config", str(cfg), "--d", "10",
                       "--out", str(tmp_path / "a")) == 0
        assert run_cli("bounds", "--d", "10", "--out", str(tmp_path / "b")) == 0
        assert deflatrix.cli._parser.cache_info().misses == 1
        explicit = ("--d", "10", "--K", "10", "--t", "200", "--seed", "0",
                    "--spectrum", "power-law:1")
        assert run_cli("bounds", *explicit, "--out", str(tmp_path / "c")) == 0
        plain = (tmp_path / "b" / "bounds.csv").read_bytes()
        assert plain == (tmp_path / "c" / "bounds.csv").read_bytes()
        assert len((tmp_path / "a" / "bounds.csv").read_text().splitlines()) == 2 + 3

    @pytest.mark.parametrize("line", ["d=abc", "epsilon=small", "seeds=0,x", "j-slice=,"])
    def test_bad_config_value_exits_one(self, tmp_path, capsys, line):
        command = "cluster" if line.startswith("seeds") else "deflate"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 1
        assert "error: argument --" in capsys.readouterr().err
        assert not out.exists()

    def test_blank_and_comment_lines_are_skipped(self, tmp_path, capsys):
        argv = ["bounds", "--d", "8", "--K", "3", "--t", "30"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\n\n   \n  # indented comment\nseed=4\n\n")
        expected = self.outcome([*argv, "--seed", "4"], tmp_path / "flags", capsys)
        assert self.outcome([*argv, "--config", str(cfg)], tmp_path / "config", capsys) == expected

    def test_line_without_equals_sign_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# run\nd 10\n")
        out = tmp_path / "out"
        assert run_cli("bounds", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: expected key=value, got 'd 10'\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["func", "help", "config", "command"])
    def test_parser_internals_are_unknown_keys(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=x\n")
        assert run_cli("bounds", "--config", str(cfg)) == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_config_call_builds_no_parser_of_its_own(self, tmp_path, monkeypatch):
        # a config file is read as flags by the shared parser
        deflatrix.cli._parser.cache_clear()
        deflatrix.cli._parser()

        def no_parser():
            raise AssertionError("a --config call built a parser")

        monkeypatch.setattr(deflatrix.cli, "build_parser", no_parser)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=10\nK=3\nt=30\n")
        assert run_cli("bounds", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0
        assert len((tmp_path / "o" / "bounds.csv").read_text().splitlines()) == 2 + 3
        assert deflatrix.cli._parser.cache_info().misses == 1

    CLUSTER = ["cluster", "--r", "5", "--clusters", "3", "--t-values", "4", "--seeds", "0"]

    def test_upper_k_is_not_the_cluster_k(self, tmp_path, capsys):
        # `K=` names `--K`, a flag of deflate and bounds, so cluster skips it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("K=4\n")
        plain = self.outcome(self.CLUSTER, tmp_path / "plain", capsys)
        code, out, err, files = self.outcome(
            [*self.CLUSTER, "--config", str(cfg)], tmp_path / "config", capsys
        )
        assert err == "warning: ignoring config keys cluster does not use: K\n"
        assert (code, out, files) == plain[:2] + plain[3:]

    @pytest.mark.parametrize("lines", [["K=4", "k=10"], ["k=10", "K=4"]])
    def test_both_k_spellings_go_to_their_own_flags(self, tmp_path, capsys, lines):
        # with both keys in a file, `K=` is --K and `k=` is cluster's --k,
        # whichever line comes first
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "bounds"
        assert run_cli("bounds", "--config", str(cfg), "--d", "10", "--t", "30",
                       "--out", str(out)) == 0
        assert capsys.readouterr().err == (
            "warning: ignoring config keys bounds does not use: k\n"
        )
        steps = [line.split(",")[0] for line in (out / "bounds.csv").read_text().splitlines()]
        assert steps[2:] == ["1", "2", "3", "4"]
        by_flag = self.outcome([*self.CLUSTER, "--k", "10"], tmp_path / "flag", capsys)
        code, stdout, err, files = self.outcome(
            [*self.CLUSTER, "--config", str(cfg)], tmp_path / "config", capsys
        )
        assert err == "warning: ignoring config keys cluster does not use: K\n"
        assert (code, stdout, files) == by_flag[:2] + by_flag[3:]

    def test_bad_config_value_exits_one_under_the_same_flag(self, tmp_path, capsys):
        # the config value is parsed even when a flag on the command line wins
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=abc\n")
        out = tmp_path / "out"
        assert run_cli("bounds", "--config", str(cfg), "--d", "5", "--out", str(out)) == 1
        assert "argument --d: invalid int value: 'abc'" in capsys.readouterr().err
        assert not out.exists()
