import json
import os
import tracemalloc

import numpy as np
import pytest

from deflatrix import io as dio
from deflatrix.cli import main, parse_spectrum
from deflatrix.clustering import synthetic_blobs
from deflatrix.deflate import ideal_deflation, run_inexact_deflation
from deflatrix.diagnostics import diagnose_run
from deflatrix.errors import SchemaError
from deflatrix.linalg import (
    ExponentialSpectrum,
    PowerLawSpectrum,
    RandomSource,
    SymMatrix,
    build_test_sigma,
    random_orthogonal_basis,
)


class TestSymMatrixCsv:
    def test_round_trip(self, tmp_path):
        g = RandomSource(1).normal(5, 5)
        m = SymMatrix((g + g.T) / 2.0)
        path = tmp_path / "m.csv"
        dio.write_symmatrix_csv(m, path)
        back = dio.read_symmatrix_csv(path)
        assert np.array_equal(m.array, back.array)
        first = path.read_text().splitlines()[:2]
        assert first[0] == "# schema=1"
        assert first[1] == "# symmatrix d=5"

    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# schema=2\n# symmatrix d=1\n1.0\n")
        with pytest.raises(SchemaError):
            dio.read_symmatrix_csv(path)


class TestSpectrumCsv:
    def test_round_trip(self, tmp_path):
        from deflatrix.linalg import jacobi_eigendecomposition

        g = RandomSource(2).normal(4, 4)
        spec = jacobi_eigendecomposition(SymMatrix((g + g.T) / 2.0))
        path = tmp_path / "spec.csv"
        dio.write_spectrum_csv(spec, path)
        back = dio.read_spectrum_csv(path)
        assert np.array_equal(back.eigenvalues, spec.eigenvalues)
        assert np.array_equal(back.basis, spec.basis)


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        data = synthetic_blobs(n=20, clusters=2, seed=0)
        path = tmp_path / "data.csv"
        dio.write_dataset_csv(data, path)
        back = dio.read_dataset_csv(path)
        assert np.array_equal(back.labels, data.labels)
        np.testing.assert_allclose(back.features, data.features, atol=0)

    def test_plain_csv_without_schema_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y,label\n0.0,1.0,0\n1.0,0.0,1\n")
        back = dio.read_dataset_csv(path)
        assert back.n == 2

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n0.0,1.0\n")
        with pytest.raises(SchemaError, match="label"):
            dio.read_dataset_csv(path)


class TestRunDir:
    def test_needs_one_diagnostic_row_per_step(self, tmp_path):
        basis = random_orthogonal_basis(6, RandomSource(3))
        sigma, spec = build_test_sigma(6, PowerLawSpectrum(1.0), basis)
        run = run_inexact_deflation(sigma, 3, 40, RandomSource(4), spectrum=spec)
        diags = diagnose_run(run, ideal_deflation(spec, 3))
        dio.write_run_dir(run, diags, tmp_path / "ok")
        rows = (tmp_path / "ok" / "run.csv").read_text().splitlines()[2:]
        assert [float(r.split(",")[2]) for r in rows] == [dg.sub_err for dg in diags]
        with pytest.raises(ValueError, match="one diagnostic row per step"):
            dio.write_run_dir(run, diags[:-1], tmp_path / "short")


class TestParseSpectrum:
    def test_kinds(self):
        assert parse_spectrum("power-law:1.5") == PowerLawSpectrum(1.5)
        assert parse_spectrum("power-law") == PowerLawSpectrum(1.0)
        assert parse_spectrum("exponential:0.8") == ExponentialSpectrum(0.8)
        assert parse_spectrum("explicit:1,0.5").values == (1.0, 0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_spectrum("zipf:1")


def run_cli(*argv):
    return main(list(argv))


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

    def test_usage_error_when_k_exceeds_d(self, tmp_path, capsys):
        code = run_cli("deflate", "--d", "3", "--K", "5", "--out", str(tmp_path))
        assert code == 1
        assert "error" in capsys.readouterr().err

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
            raise AssertionError("bounds must not run the diagnostics or the ideal trace")

        monkeypatch.setattr("deflatrix.cli.diagnose_run", forbidden)
        monkeypatch.setattr("deflatrix.cli.ideal_deflation", forbidden)
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

    def test_epsilon_adds_budget_columns(self, tmp_path):
        code = run_cli(
            "bounds", "--d", "8", "--K", "3", "--t", "120",
            "--epsilon", "0.01", "--out", str(tmp_path), "--seed", "1",
        )
        assert code == 0
        header = (tmp_path / "bounds.csv").read_text().splitlines()[1]
        assert header.endswith(",delta_budget,t_budget")

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

    def test_config_rejects_unknown_keys(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dd=10\n")
        assert run_cli("deflate", "--config", str(cfg)) == 1


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

    def test_thread_count_does_not_change_sweep(self, tmp_path):
        # concurrent cells share one Laplacian; an in-place write into it
        # would make the outputs depend on the interleaving
        args = ["cluster", "--data", "blobs", "--r", "5", "--k", "3", "--clusters", "3",
                "--t-values", "4,12", "--seeds", "0,1"]
        assert run_cli(*args, "--jobs", "1", "--out", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--jobs", "2", "--out", str(tmp_path / "b")) == 0
        for name in ("mi_vs_t.csv", "mi_summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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


class TestSelftestCommand:
    def test_clean_run_exits_zero(self, capsys):
        import time

        start = time.perf_counter()
        code = run_cli("selftest", "--seed", "0")
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        assert "violated" in out.splitlines()[0]
        assert elapsed <= 60.0

    def test_mutation_canary_detected(self, capsys):
        code = run_cli("selftest", "--seed", "0", "--debug-eq8-constant", "4")
        assert code == 1
        assert "violation" in capsys.readouterr().err
