import contextlib
import importlib.util
import json
import os
import re
import signal
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    band_form,
    covariance_bands,
    dense_covariance,
    dense_design,
    per_pair_correlation,
    pointwise_variance,
    read_stratum_csv_by_float,
    region,
    sweep_summary_by_bin_scan,
    write_csv_by_row,
)

from smoothdiff import basis, cli, fitting, simulate
from smoothdiff.basis import design_matrix, difference_penalty, make_basis
from smoothdiff.cli import (
    CURVE_GRID_POINTS,
    band_pointwise_variance,
    load_model,
    main,
    read_stratum_csv,
)
from smoothdiff.errors import ParameterError
from smoothdiff.fitting import StratumData, covariance_block, select_lambda
from smoothdiff.simulate import (
    PRESETS,
    SimScenario,
    exact_model_error_rates,
    gen_coefficients,
    gen_stratum,
    replicate_rng,
    run_replicate,
)
from smoothdiff.tdp import threshold_regions
from smoothdiff.windows import window_statistics


def load_script(name):
    """The module of scripts/<name>.py."""
    script = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    loader = importlib.util.spec_from_file_location(name, script)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def write_stratum_csv(path, data1, data2):
    """Dump two strata to the analyze input format (full float precision)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y,z,stratum\n")
        for label, data in (("1", data1), ("2", data2)):
            for yi, zi in zip(data.y, data.z):
                fh.write(f"{float(yi)!r},{float(zi)!r},{label}\n")


def gait_csv(tmp_path, n=500):
    """A `synth_gait` two-stratum CSV on the domain [0, 100]."""
    path = tmp_path / "gait.csv"
    load_script("demo_analysis").synth_gait(str(path), n=n, seed=4)
    return path


def make_pair(seed=42, m_delta=2.0, family="gaussian", n=700):
    scn = SimScenario(
        n_nonzero=4,
        m=20,
        degree=2,
        n_per_stratum=n,
        sigma_b2=0.4,
        sigma_delta2=0.05,
        m_delta=m_delta,
        noise_var=0.3,
        domain=(0.0, 1.0),
        family=family,
        alphas=(0.1,),
        n_replicates=1,
        seed=seed,
    )
    spec = scn.basis()
    rng = replicate_rng(seed, 0)
    b_base, b_alt, _ = gen_coefficients(scn, rng)
    data1 = gen_stratum(b_alt, scn, rng, spec)
    data2 = gen_stratum(b_base, scn, rng, spec)
    return scn, data1, data2


class TestAnalyze:
    def test_identical_strata_have_empty_regions(self, tmp_path, capsys):
        scn, data1, _ = make_pair()
        path = tmp_path / "data.csv"
        write_stratum_csv(path, data1, data1)
        out = tmp_path / "out"
        rc = main(
            [
                "analyze",
                "--data", str(path),
                "--basis-dim", "20",
                "--degree", "2",
                "--domain", "0", "1",
                "--alpha", "0.1",
                "--tdp", "0.9", "0.7", "0.5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        regions = json.loads((out / "regions.json").read_text())
        for rec in regions["regions"]:
            assert rec["windows"] == []
            assert rec["intervals"] == []

    def test_roundtrip_matches_in_process_pipeline(self, tmp_path):
        scn, data1, data2 = make_pair(seed=7)
        spec = scn.basis()
        pen = difference_penalty(scn.m, scn.penalty_order)
        fits = select_lambda([data1, data2], spec, pen)
        series = window_statistics(fits[0].coef - fits[1].coef, sum(covariance_bands(fits, spec.degree)), spec)
        report = threshold_regions(series.p, 0.1, (0.9, 0.7, 0.5))

        path = tmp_path / "dump.csv"
        write_stratum_csv(path, data1, data2)
        out = tmp_path / "out"
        rc = main(
            [
                "analyze",
                "--data", str(path),
                "--basis-dim", "20",
                "--degree", "2",
                "--domain", "0", "1",
                "--alpha", "0.1",
                "--tdp", "0.9", "0.7", "0.5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        got = json.loads((out / "regions.json").read_text())
        assert got["h"] == report.h
        for rec, ours in zip(got["regions"], report.records):
            assert rec["tdp_threshold"] == ours.tau
            assert tuple(rec["windows"]) == ours.windows
            assert rec["phi"] == ours.phi
            assert rec["tdp_lower_bound"] == ours.bound
            assert [tuple(iv) for iv in rec["intervals"]] == spec.window_intervals(ours.windows)
        windows_csv = (out / "windows.csv").read_text().strip().splitlines()
        assert windows_csv[0] == "k,region_lo,region_hi,T,p"
        assert len(windows_csv) == 1 + series.n_windows
        row0 = windows_csv[1].split(",")
        assert float(row0[3]) == series.T[0]
        assert float(row0[4]) == series.p[0]

    def test_windows_csv_regions_are_the_oracle_regions(self, tmp_path):
        out = tmp_path / "out"
        argv = ["analyze", "--data", str(gait_csv(tmp_path)), "--basis-dim", "37", "--domain", "0", "100"]
        assert main(argv + ["--out", str(out)]) == 0
        spec = load_model(str(out / "fits.json"))[0]
        rows = [line.split(",") for line in (out / "windows.csv").read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(spec.n_regions))
        assert [(float(r[1]), float(r[2])) for r in rows] == [region(spec, k) for k in range(spec.n_regions)]

    def test_two_file_input_mode(self, tmp_path):
        scn, data1, data2 = make_pair(seed=15)
        p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        for path, data in ((p1, data1), (p2, data2)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("y,z\n")
                for yi, zi in zip(data.y, data.z):
                    fh.write(f"{float(yi)!r},{float(zi)!r}\n")
        out = tmp_path / "out"
        rc = main(
            [
                "analyze",
                "--stratum1", str(p1),
                "--stratum2", str(p2),
                "--basis-dim", "20",
                "--degree", "2",
                "--domain", "0", "1",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert (out / "regions.json").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        scn, data1, data2 = make_pair(seed=9)
        data_path = tmp_path / "d.csv"
        write_stratum_csv(data_path, data1, data2)
        config = tmp_path / "run.cfg"
        config.write_text(
            f"data = {data_path}\n"
            "basis_dim = 20\n"
            "degree = 2\n"
            "domain = 0, 1\n"
            "alpha = 0.2\n"
            "tdp = 0.9, 0.5\n"
            f"out = {tmp_path / 'cfg_out'}\n"
        )
        rc = main(["analyze", "--config", str(config), "--alpha", "0.1"])
        assert rc == 0
        regions = json.loads((tmp_path / "cfg_out" / "regions.json").read_text())
        assert regions["alpha"] == 0.1  # flag wins over file

    def test_parse_failure_exits_2_with_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,z,stratum\n1.0,0.5,1\noops,0.6,2\n")
        rc = main(["analyze", "--data", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.csv:3" in err

    def test_missing_column_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["analyze", "--data", str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"", "bad.csv: empty file (header row required)"),
            (b"a,b\n1,2\n", "bad.csv: header must contain 'y' and 'z' columns"),
            (b"y,z,stratum\n\n", "bad.csv: no data rows"),
            (b"y,z\n1,0.5\n", "bad.csv:2: missing stratum column 'stratum'"),
            # The first bad row is reported, not the first bad column.
            (b"y,z,stratum\n1,0.5,1\n\n1,0.6\noops,0.7,2\n", "bad.csv:3: missing stratum column"),
            (b"y,z,stratum\n1,0.5,1\n1,,2\n", "bad.csv:3: non-numeric field (could not convert"),
            (b"y,z,stratum\n1,0.5,1\n1\n", "bad.csv:3: non-numeric field (float() argument"),
            (
                b"y,z,stratum\n1,0.5,a\n1,0.6,b\n1,0.7,c\n",
                "bad.csv: expected exactly 2 stratum labels, found ['a', 'b', 'c']",
            ),
            (b"y,z,stratum\n1,0.5,\xff\n", "cannot read"),
        ],
    )
    def test_malformed_csv_exits_2_naming_problem(self, tmp_path, capsys, content, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        assert main(["analyze", "--data", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    def test_labels_grouped_by_their_stripped_value(self, tmp_path):
        # " 1", "1 " and "1" are one stratum; so are "a" and "a\0", as str arrays drop trailing NULs
        path = tmp_path / "labels.csv"
        labels = ["a", "a\x00", " 1", "1 ", "1", "a", "  a\x00", "1"]
        rows = ["y,z,stratum"] + [f"{i},0.{i + 1},{lab}" for i, lab in enumerate(labels)]
        path.write_text("\n".join(rows) + "\n")
        strata = cli.load_strata(cli.AnalysisConfig(data=str(path)))
        assert [data.y.tolist() for data in strata] == [[2.0, 3.0, 4.0, 7.0], [0.0, 1.0, 5.0, 6.0]]
        assert [data.z.tolist() for data in strata] == [[0.3, 0.4, 0.5, 0.8], [0.1, 0.2, 0.6, 0.7]]

    def test_columns_found_by_stripped_header_names(self, tmp_path):
        scn, data1, data2 = make_pair(seed=3)
        plain = tmp_path / "plain.csv"
        write_stratum_csv(plain, data1, data2)
        lines = plain.read_text().splitlines()
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("\n".join([" y , z , stratum", *lines[1:]]) + "\n")
        for path in (plain, spaced):
            argv = ["analyze", "--data", str(path), "--basis-dim", "20", "--degree", "2"]
            assert main([*argv, "--out", str(tmp_path / path.stem)]) == 0
        assert (tmp_path / "plain" / "windows.csv").read_bytes() == (
            tmp_path / "spaced" / "windows.csv"
        ).read_bytes()

    def test_non_finite_outcome_exits_2_naming_index(self, tmp_path, capsys):
        scn, data1, data2 = make_pair(seed=5)
        path = tmp_path / "nan.csv"
        write_stratum_csv(path, data1, data2)
        lines = path.read_text().splitlines()
        fields = lines[4].split(",")
        lines[4] = ",".join(["nan"] + fields[1:])  # stratum 1, index 3
        path.write_text("\n".join(lines) + "\n")
        rc = main(["analyze", "--data", str(path), "--basis-dim", "20", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "y[3] = nan is not finite" in capsys.readouterr().err

    def test_rows_outside_domain_exit_2_naming_stratum(self, tmp_path, capsys):
        scn, data1, data2 = make_pair(seed=5)
        path = tmp_path / "d.csv"
        write_stratum_csv(path, data1, data2)
        argv = ["analyze", "--data", str(path), "--basis-dim", "20", "--degree", "2"]
        rc = main(argv + ["--domain", "0", "0.5", "--out", str(tmp_path / "o")])
        assert rc == 2
        outside = np.flatnonzero(data1.z > 0.5)
        err = capsys.readouterr().err
        assert f"stratum 1: {outside.size} rows have z outside the domain" in err
        assert f"first z = {float(data1.z[outside[0]])!r}" in err
        assert not (tmp_path / "o").exists()

    def test_domain_covering_the_data_exits_0(self, tmp_path):
        scn, data1, data2 = make_pair(seed=5)
        path = tmp_path / "d.csv"
        write_stratum_csv(path, data1, data2)
        z = np.concatenate([data1.z, data2.z])
        lo, hi = repr(float(z.min())), repr(float(z.max()))
        out = tmp_path / "o"
        argv = ["analyze", "--data", str(path), "--basis-dim", "20", "--degree", "2"]
        assert main(argv + ["--domain", lo, hi, "--out", str(out)]) == 0
        assert json.loads((out / "fits.json").read_text())["basis"]["domain"] == [float(lo), float(hi)]

    @pytest.mark.parametrize(
        "lo, hi, problem",
        [
            ("-1e308", "1e308", "its width overflows"),
            ("0", "5e-322", "its 118 breakpoints are not strictly increasing"),
            ("1e10", "10000000000.00001", "its 118 breakpoints are not strictly increasing"),
        ],
    )
    def test_domain_whose_breakpoints_do_not_separate_exits_2(self, tmp_path, capsys, lo, hi, problem):
        z = np.repeat([float(lo), float(hi)], 10)  # every z lies inside
        path = few_rows_csv(tmp_path / "d.csv", {1: (np.sin(np.arange(20.0)), z), 2: (np.cos(np.arange(20.0)), z)})
        argv = ["analyze", "--data", str(path), "--basis-dim", "120", "--domain", lo, hi, "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"input error: domain [{float(lo)}, {float(hi)}] cannot hold a basis of m=120, degree 3: {problem}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flags, config, value",
        [
            (["--lambda", "nan"], "", "nan"),
            (["--lambda", "inf"], "", "inf"),
            (["--lambda", "-1"], "", "-1.0"),
            ([], "lambda = nan\n", "nan"),
        ],
    )
    def test_bad_lambda_exits_2(self, tmp_path, capsys, flags, config, value):
        scn, data1, data2 = make_pair(seed=5)
        path = tmp_path / "d.csv"
        write_stratum_csv(path, data1, data2)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "basis_dim = 20\ndegree = 2\n")
        out = tmp_path / "o"
        argv = ["analyze", "--config", str(cfg), "--data", str(path), "--out", str(out)]
        assert main(argv + flags) == 2
        err = capsys.readouterr().err
        assert f"smoothing parameter must be finite and >= 0, got {value}" in err
        assert "stratum" not in err  # a setting of the run, not of one stratum
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting, problem",
        [
            ("domain = 0 0.5 1", "domain = (0.0, 0.5, 1.0) must be two values"),
            ("domain = 0", "domain = (0.0,) must be two values"),
            ("tdp =", "tdp must list at least one TDP threshold"),
        ],
    )
    def test_bad_config_field_exits_2(self, tmp_path, capsys, setting, problem):
        scn, data1, data2 = make_pair(seed=5)
        path = tmp_path / "d.csv"
        write_stratum_csv(path, data1, data2)
        out = tmp_path / "o"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {path}\nbasis_dim = 20\ndegree = 2\n{setting}\nout = {out}\n")
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert problem in capsys.readouterr().err
        assert not out.exists()

    def test_every_config_key_writes_the_files_its_flags_write(self, tmp_path):
        scn, data1, data2 = make_pair(seed=9)
        data_path = tmp_path / "d.csv"
        write_stratum_csv(data_path, data1, data2)
        data_path.write_text(data_path.read_text().replace("stratum", "group", 1))
        s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"  # unread: --data takes precedence
        settings = {
            "stratum1": str(s1),
            "stratum2": str(s2),
            "data": str(data_path),
            "stratum_col": "group",
            "family": "gaussian",
            "basis_dim": "18",
            "degree": "2",
            "domain": "0 1",
            "alpha": "0.2",
            "tdp": "0.5 0.8",
            "lambda": "0.75",
        }
        assert set(settings) | {"out"} == set(cli._CONFIG_FIELD_PARSERS)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()) + f"out = {tmp_path / 'cfg'}\n")
        assert main(["analyze", "--config", str(cfg)]) == 0
        flags = []
        for key, value in settings.items():
            flags += ["--" + key.replace("_", "-"), *value.split()]
        assert main(["analyze", *flags, "--out", str(tmp_path / "flags")]) == 0
        names = sorted(os.listdir(tmp_path / "flags"))
        assert names == sorted(os.listdir(tmp_path / "cfg"))
        assert len(names) == 5
        for name in names:
            assert (tmp_path / "cfg" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes(), name

    def test_repeated_config_key_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        config = tmp_path / "run.cfg"
        config.write_text(f"alpha = 0.1\n# a comment\nbasis_dim = 20\nalpha = 0.2\nout = {out}\n")
        assert main(["analyze", "--config", str(config), "--data", "d.csv"]) == 2
        assert f"{config}:4: config key 'alpha' repeats the one on line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_config_key_is_unknown(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("basis_dim = 20\nseed = 3\n")
        assert main(["analyze", "--config", str(config)]) == 2
        assert "unknown config key 'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--seed", "--threads"])
    def test_seed_and_threads_flags_rejected(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--data", "d.csv", flag, "5", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_pointwise_variance_matches_einsum(self, tmp_path):
        scn, data1, data2 = make_pair(seed=11)
        p = tmp_path / "d.csv"
        write_stratum_csv(p, data1, data2)
        out = tmp_path / "out"
        rc = main(
            ["analyze", "--data", str(p), "--basis-dim", "20", "--degree", "2",
             "--domain", "0", "1", "--out", str(out)]
        )
        assert rc == 0
        _, fits = load_model(str(out / "fits.json"))
        spec = make_basis(0.0, 1.0, 20, 2)
        D = dense_design(design_matrix(spec, np.linspace(0.0, 1.0, CURVE_GRID_POINTS)))
        covs = [dense_covariance(fit) for fit in fits]
        rng = np.random.default_rng(3)
        a = rng.normal(size=(20, 20))
        covs.append(a @ a.T + np.eye(20))
        for cov in covs:
            oracle = np.einsum("ij,jk,ik->i", D, cov, D)
            np.testing.assert_allclose(pointwise_variance(D, cov), oracle, rtol=1e-12)
        curves = np.loadtxt(out / "curves.csv", delimiter=",", skiprows=1)
        se = np.sqrt(np.einsum("ij,jk,ik->i", D, covs[0], D))
        np.testing.assert_allclose(curves[:, 3] - curves[:, 1], 1.96 * se, rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_band_pointwise_variance_matches_dense(self, family, degree):
        _, data1, _ = make_pair(seed=11, family=family)
        spec = make_basis(0.0, 1.0, 20, degree)
        pen = difference_penalty(20, 2)
        dm = design_matrix(spec, np.linspace(0.0, 1.0, CURVE_GRID_POINTS))
        [fit] = select_lambda([data1], spec, pen)
        got = band_pointwise_variance(dm, covariance_bands([fit], degree)[0])
        np.testing.assert_allclose(got, pointwise_variance(dense_design(dm), dense_covariance(fit)), rtol=1e-12)
        # the fit's own band, wider than degree below order 2, reads the same entries
        assert np.array_equal(band_pointwise_variance(dm, fit.cov_band), got)

    def test_numerical_failure_exits_3(self, tmp_path):
        # binomial fit on perfectly separated outcomes diverges
        path = tmp_path / "sep.csv"
        rows = ["y,z,stratum"]
        rng = np.random.default_rng(0)
        for z in rng.uniform(0, 1, 300):
            rows.append(f"1.0,{float(z)!r},1")
        for z in rng.uniform(0, 1, 300):
            rows.append(f"0.0,{float(z)!r},2")
        path.write_text("\n".join(rows) + "\n")
        rc = main(
            [
                "analyze",
                "--data", str(path),
                "--family", "binomial",
                "--basis-dim", "10",
                "--degree", "2",
                "--lambda", "1.0",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert rc == 3

    def test_overflowing_lambda_exits_3_naming_it(self, tmp_path, capsys):
        # lambda S overflows to inf: the fit fails at that lambda, without a traceback
        rc = main(["analyze", "--data", str(gait_csv(tmp_path)), "--basis-dim", "15", "--domain", "0", "100",
                   "--lambda", "1e308", "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "penalized system at lambda 1e+308 has non-finite entries" in err
        assert "Traceback" not in err and "Warning" not in err

    def test_overflowing_covariance_exits_3_before_writing(self, tmp_path, capsys):
        # y ~ 1e10 N(0, 1), no row in the first knot cell: at lambda 1e-289 the dispersion
        # (about 1.07e20) times the covariance band overflows; this once wrote curves
        # holding +-inf and a finite T for a window whose covariance was inf, with exit 0
        rng = np.random.default_rng(0)
        rows = ["y,z,stratum"]
        for s in (1, 2):
            z = rng.uniform(0.2, 1.0, 200)
            y = 1e10 * rng.normal(size=200)
            rows += [f"{float(a)!r},{float(b)!r},{s}" for a, b in zip(y, z)]
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["analyze", "--data", str(path), "--basis-dim", "12", "--domain", "0", "1",
                       "--lambda", "1e-289", "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == "smoothdiff: numerical error: fit at lambda 1e-289 has a non-finite covariance band\n"
        assert not (tmp_path / "o").exists()

    def test_zero_residual_variance_exits_3(self, tmp_path, capsys):
        # two identical constant strata: a rounding-level deviance is an exact fit,
        # whose zero dispersion the window tests reject rather than report discoveries
        rng = np.random.default_rng(30)
        path = tmp_path / "const.csv"
        rows = ["y,z,stratum"] + [f"1.0,{float(z)!r},{s}" for s in (1, 2) for z in rng.uniform(0, 1, 200)]
        path.write_text("\n".join(rows) + "\n")
        rc = main(["analyze", "--data", str(path), "--basis-dim", "10", "--domain", "0", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "covariance is not positive definite" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    @pytest.mark.parametrize("n, flags", [(2, ["--basis-dim", "16", "--degree", "0"]), (3, ["--basis-dim", "10"])])
    def test_less_than_one_residual_df_exits_3(self, tmp_path, capsys, family, n, flags):
        # every grid lambda leaves n - edf < 1 and fails; with 2 rows this was a
        # ZeroDivisionError, with 3 rows a bound of 1.000 from edf 2.99999. The
        # message adds the largest lambda's cause, which for two binomial rows
        # is separation.
        path = tmp_path / "few.csv"
        z = np.linspace(0.2, 0.8, n)
        rows = ["y,z,stratum"] + [f"{float(i % 2)!r},{float(zi)!r},{s}" for s in (1, 2) for i, zi in enumerate(z)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.warns(UserWarning, match="does not exceed basis dimension"):
            rc = main(["analyze", "--data", str(path), *flags, "--domain", "0", "1", "--family", family,
                       "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "no smoothing parameter candidate could be fit: " in err
        if family == "binomial" and n == 2:
            assert "linear predictor diverged (complete or quasi-complete separation)" in err
        else:
            assert f"leave less than one residual degree of freedom at sample size {n}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_fixed_lambda_with_less_than_one_residual_df_exits_3(self, tmp_path, capsys, family):
        # y = 0, 1, 0 along z: no line separates it, so binomial IRLS converges, at edf in (2, 3)
        path = tmp_path / "few.csv"
        rows = ["y,z,stratum"] + [f"{y},{z},{s}" for s in (1, 2) for y, z in ((0.0, 0.2), (1.0, 0.5), (0.0, 0.8))]
        path.write_text("\n".join(rows) + "\n")
        with pytest.warns(UserWarning, match="does not exceed basis dimension"):
            rc = main(["analyze", "--data", str(path), "--basis-dim", "10", "--domain", "0", "1",
                       "--family", family, "--lambda", "1", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "less than one residual degree of freedom at sample size 3" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    @pytest.mark.filterwarnings("ignore:sample size n=")
    def test_single_z_value_exits_3(self, tmp_path, capsys, family):
        # every z is 0.5: Z'WZ + lambda S is singular at every lambda (a linear trend through
        # one point is free); the binomial fit of stratum 2 once passed with edf -7.8 and a NaN curve band
        rng = np.random.default_rng(339)
        path = tmp_path / "one_z.csv"
        rows = ["y,z,stratum"]
        for label, n in ((1, 3), (2, 84)):
            rows += [f"{float(y)!r},0.5,{label}" for y in rng.integers(0, 2, size=n)]
        path.write_text("\n".join(rows) + "\n")
        flags = ["analyze", "--data", str(path), "--basis-dim", "9", "--degree", "4", "--domain", "0", "1",
                 "--family", family]
        assert main([*flags, "--out", str(tmp_path / "o")]) == 3
        assert "no smoothing parameter candidate could be fit" in capsys.readouterr().err
        assert main([*flags, "--lambda", "1", "--out", str(tmp_path / "o")]) == 3
        assert "the data do not identify the polynomials of degree < 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_overflowing_sum_of_squares_exits_2_naming_the_stratum(self, tmp_path, capsys):
        # an infinite y'y made every deviance read as an exact fit (window 0 not positive definite)
        rng = np.random.default_rng(32)
        path = tmp_path / "huge.csv"
        rows = ["y,z,stratum"] + [
            f"{1e300 if s == 2 and i == 7 else float(rng.normal())!r},{float(rng.uniform())!r},{s}"
            for s in (1, 2) for i in range(100)
        ]
        path.write_text("\n".join(rows) + "\n")
        rc = main(["analyze", "--data", str(path), "--basis-dim", "10", "--domain", "0", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "stratum 2: the sum of squared outcomes y'y overflows" in err
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize("scale, rc", [(1.0, 0), (1e-150, 0), (1e-160, 2), (1e-300, 2)])
    def test_underflowing_sum_of_squares_exits_2(self, tmp_path, capsys, scale, rc):
        # y'y below the normal range made every deviance read as an exact fit: exit 3,
        # "window 0 covariance is not positive definite"; at 1e-300 y'y is exactly 0
        rng = np.random.default_rng(33)
        path = tmp_path / "tiny.csv"
        rows = ["y,z,stratum"]
        for s in (1, 2):
            z = rng.uniform(0, 1, 200)
            y = scale * (np.sin(5 * z) + rng.normal(0, 0.3, z.size))
            rows += [f"{float(yi)!r},{float(zi)!r},{s}" for yi, zi in zip(y, z)]
        path.write_text("\n".join(rows) + "\n")
        assert main(["analyze", "--data", str(path), "--basis-dim", "10", "--domain", "0", "1",
                     "--out", str(tmp_path / "o")]) == rc
        err = capsys.readouterr().err
        assert ("stratum 1: the sum of squared outcomes y'y underflows; rescale y" in err) == bool(rc)
        assert "Traceback" not in err and "Warning" not in err

    def test_gait_like_annotation_semantics(self, tmp_path):
        # two double-peak curves differing in the valley; region bars must be
        # disjoint, sorted intervals inside the domain at a strict level
        rng = np.random.default_rng(20)
        n = 3000
        path = tmp_path / "gait.csv"
        rows = ["y,z,stratum"]
        for label in ("1", "2"):
            z = rng.uniform(0, 100, n)
            curve = np.sin(z * 2 * np.pi / 100) ** 2 + 0.5 * np.cos(z * np.pi / 50)
            if label == "2":
                valley = np.exp(-0.5 * ((z - 50) / 8) ** 2)
                curve = curve + 0.6 * valley
            y = curve + rng.normal(0, 0.2, n)
            rows += [f"{float(yi)!r},{float(zi)!r},{label}" for yi, zi in zip(y, z)]
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        rc = main(
            [
                "analyze",
                "--data", str(path),
                "--basis-dim", "60",
                "--degree", "3",
                "--domain", "0", "100",
                "--alpha", "0.01",
                "--tdp", "0.9", "0.7", "0.5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        regions = json.loads((out / "regions.json").read_text())
        found_valley = False
        for rec in regions["regions"]:
            ivals = [tuple(iv) for iv in rec["intervals"]]
            for lo, hi in ivals:
                assert 0.0 <= lo < hi <= 100.0
            assert ivals == sorted(ivals)
            assert all(a[1] < b[0] for a, b in zip(ivals, ivals[1:]))
            if rec["tdp_threshold"] == 0.9 and any(lo <= 50 <= hi for lo, hi in ivals):
                found_valley = True
        assert found_valley

    def test_curve_file_shape(self, tmp_path):
        scn, data1, data2 = make_pair(seed=11)
        p = tmp_path / "d.csv"
        write_stratum_csv(p, data1, data2)
        out = tmp_path / "out"
        rc = main(
            [
                "analyze",
                "--data", str(p),
                "--basis-dim", "20",
                "--degree", "2",
                "--domain", "0", "1",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = (out / "curves.csv").read_text().strip().splitlines()
        assert lines[0] == "z,fit1,lo1,hi1,fit2,lo2,hi2"
        first = [float(v) for v in lines[1].split(",")]
        assert first[2] <= first[1] <= first[3]


def number_text(rng, values):
    """Each value as repr or '%.12g' text, with rounding-edge and special values mixed in."""
    specials = ["5e-324", "2.2250738585072014e-308", "1e-310", "inf", "-inf", "nan", "-0.0",
                "1E5", "+3.5", ".5", "7.", "1.7976931348623157e308", "0.1", "-1e-7"]
    out = [repr(float(v)) if i % 2 else "%.12g" % v for i, v in enumerate(values)]
    for i in rng.choice(len(out), size=len(specials), replace=False):
        out[i] = specials[int(i) % len(specials)]
    return out


def csv_case(case, rng, n=200):
    """(file bytes, stratum column) of a two-stratum table written in one reader-parity style."""
    cols = {"y": number_text(rng, rng.normal(5, 3, n)), "z": number_text(rng, rng.uniform(0, 100, n))}
    if case in ("x_columns", "stratum_first"):
        cols["x_a"] = number_text(rng, rng.normal(size=n))
        cols["x_b"] = number_text(rng, 1e3 * rng.normal(size=n))
    if case == "word_labels":
        labels = ["left" if i % 3 else "right" for i in range(n)]
    else:
        labels = [str(1 + i % 2) for i in range(n)]
    if case == "stratum_first":
        cols = {"stratum": labels, **cols}
    elif case != "no_stratum":
        cols["stratum"] = labels
    names = list(cols)
    rows = [[cols[c][i] for c in names] for i in range(n)]
    if case == "two_line_header":  # the header's last field quoted, holding a newline
        names[-1] = f'"{names[-1]}\n"'
    end = "\n"
    if case == "crlf":
        end = "\r\n"
    elif case == "cr":
        end = "\r"
    elif case == "quoted":
        rows = [[f'"{v}"' for v in row] for row in rows]
    elif case == "spaced":
        rows = [[f" {v}  " if i % 2 else f"  {v} " for v in row] for i, row in enumerate(rows)]
    elif case == "extra_columns":
        names.append("note")
        rows = [row + ["x"] * (1 + i % 3) for i, row in enumerate(rows)]
    lines = [",".join(names)] + [",".join(row) for row in rows]
    if case == "blank_lines":
        lines = [text for i, line in enumerate(lines) for text in ([line, ""] if i % 7 == 3 else [line])] + [""]
    return (end.join(lines) + end).encode(), None if case == "no_stratum" else "stratum"


def assert_same_columns(got, want):
    for name, a, b in zip(("y", "z", "X"), got[:3], want[:3]):
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape, name
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name  # bitwise, NaN and -0.0 included
    if want[3] is None:
        assert got[3] is None
    else:
        assert got[3].tolist() == want[3].tolist()


@contextlib.contextmanager
def alarm_after(seconds):
    """Raise TimeoutError in the block's blocking call once `seconds` have passed (main thread only)."""

    def expire(signum, frame):
        raise TimeoutError(f"still blocked after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def loadtxt_sources(monkeypatch) -> list:
    """The first argument of each `np.loadtxt` call, appended as it is made."""
    sources, loadtxt = [], np.loadtxt

    def recording(source, *args, **kwargs):
        sources.append(source)
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recording)
    return sources


class TestCsvReader:
    """read_stratum_csv parses data rows with numpy; the csv + float() reader is its oracle."""

    @pytest.mark.parametrize(
        "case",
        ["plain", "no_stratum", "x_columns", "crlf", "quoted", "spaced", "extra_columns",
         "stratum_first", "word_labels", "blank_lines", "two_line_header", "cr", "large"],
    )
    def test_columns_bitwise_equal_to_float_reader(self, tmp_path, monkeypatch, case):
        # "large" is read by numpy in several chunks
        content, col = csv_case(case, np.random.default_rng(len(case)), n=40000 if case == "large" else 200)
        assert case != "large" or len(content) > 2**20
        path = tmp_path / "d.csv"
        path.write_bytes(content)
        sources = loadtxt_sources(monkeypatch)
        got = read_stratum_csv(str(path), col)
        assert [type(source) for source in sources] == [str]  # a regular file is parsed from its path
        if case == "spaced":  # labels come back as read; load_strata strips them
            got = (*got[:3], np.char.strip(got[3].astype(str)))
        assert_same_columns(got, read_stratum_csv_by_float(path, col))

    @pytest.mark.parametrize("case", ["plain", "crlf"])
    def test_fifo_gives_the_regular_files_columns_from_its_open_file(self, tmp_path, monkeypatch, case):
        content, col = csv_case(case, np.random.default_rng(len(case)))
        path, fifo = tmp_path / "d.csv", tmp_path / "fifo"
        path.write_bytes(content)
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(content,), daemon=True)
        writer.start()
        sources = loadtxt_sources(monkeypatch)
        with alarm_after(60):  # a second open of the FIFO would wait for a writer that never comes
            got = read_stratum_csv(str(fifo), col)
        writer.join(timeout=60)
        assert not writer.is_alive()
        assert len(sources) == 1 and sources[0].name == str(fifo)  # the open file, read once
        assert_same_columns(got, read_stratum_csv(str(path), col))

    def test_label_holding_a_line_break_exits_2_from_a_file_and_a_fifo(self, tmp_path, capsys):
        # a regular file reads the quoted CRLF as LF and a FIFO keeps it; both are refused
        content = b'y,z,s\n1,0.2,"a\r\nb"\n2,0.4,"a\nb"\n3,0.6,c\n'
        path, fifo = tmp_path / "d.csv", tmp_path / "fifo"
        path.write_bytes(content)
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(content,), daemon=True)
        writer.start()
        argv = ["analyze", "--stratum-col", "s", "--out", str(tmp_path / "o")]
        assert main([*argv, "--data", str(path)]) == 2
        with alarm_after(60):  # a second open of the FIFO would wait for a writer that never comes
            assert main([*argv, "--data", str(fifo)]) == 2
        writer.join(timeout=60)
        assert not writer.is_alive()
        assert capsys.readouterr().err.splitlines() == [
            f"smoothdiff: input error: {path}: stratum label 'a\\nb' holds a line break",
            f"smoothdiff: input error: {fifo}: stratum label 'a\\r\\nb' holds a line break",
        ]
        assert not (tmp_path / "o").exists()

    def test_plain_file_with_a_compressed_name_reads_from_its_open_file(self, tmp_path, monkeypatch):
        # numpy would take "d.csv.gz" for gzip data and fail
        content, col = csv_case("plain", np.random.default_rng(5))
        path = tmp_path / "d.csv.gz"
        path.write_bytes(content)
        sources = loadtxt_sources(monkeypatch)
        got = read_stratum_csv(str(path), col)
        assert len(sources) == 1 and sources[0].name == str(path)
        assert_same_columns(got, read_stratum_csv_by_float(path, col))

    def test_url_like_relative_name_reads_its_own_file(self, tmp_path, monkeypatch):
        # numpy takes "http://host/d.csv" for a URL and reads a local "host/d.csv" in its place
        monkeypatch.chdir(tmp_path)
        content, col = csv_case("plain", np.random.default_rng(6))
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "d.csv").write_bytes(content)
        (tmp_path / "host").mkdir()
        (tmp_path / "host" / "d.csv").write_bytes(csv_case("plain", np.random.default_rng(7))[0])
        got = read_stratum_csv("http://host/d.csv", col)
        assert_same_columns(got, read_stratum_csv_by_float("http://host/d.csv", col))

    def test_undecodable_byte_past_the_first_megabyte_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"y,z,stratum\n" + b"1.5,0.25,1\n2.5,0.75,2\n" * 50000 + b"1,0.5,\xff\n")
        with pytest.raises(ParameterError, match="cannot read") as exc:
            read_stratum_csv(str(bad), "stratum")
        assert isinstance(exc.value.__cause__, UnicodeDecodeError)  # raised by numpy's reader
        assert main(["analyze", "--data", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        # the offset in the file (12 + 22 * 50000 + 6), not in the decoder's chunk
        assert f"cannot read {bad}: 'utf-8' codec can't decode byte 0xff in position 1100018: invalid start byte" in err

    def test_synth_gait_file_bitwise_equal_to_float_reader(self, tmp_path):
        path = tmp_path / "gait.csv"
        load_script("demo_analysis").synth_gait(str(path), n=500, seed=4)
        got = read_stratum_csv(str(path), "stratum")
        assert_same_columns(got, read_stratum_csv_by_float(path, "stratum"))
        assert got[0].size == 1000 and got[0].flags.c_contiguous and got[1].flags.c_contiguous

    def test_number_float_accepts_and_numpy_rejects_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,z,stratum\n1,0.5,1\n1_000,0.6,2\n")
        assert main(["analyze", "--data", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: unreadable data (could not convert string '1_000' to float64 at row 1, column 1" in err
        assert "Traceback" not in err

    def test_header_only_file_exits_2_without_warning(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,z,stratum\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "--data", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "bad.csv: no data rows" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"y,z,stratum\n1,0.5,1\n1_000,0.6,2\n",
             "unreadable data (could not convert string '1_000' to float64 at row 1, column 1"),
            (b"y,z\n1,0.5\n1,0.6\n", "header has no stratum column 'stratum'"),
            (b"y,z,stratum\n1,0.5,1\n1,0.6,\xff\n", "'utf-8' codec can't decode byte 0xff in position"),
        ],
    )
    def test_malformed_fifo_exits_2_without_opening_it_again(self, tmp_path, content, message):
        # a FIFO's second open waits for a new writer: the error must come from the one read,
        # and the command runs in a subprocess so that a regression fails instead of hanging
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        argv = [sys.executable, "-m", "smoothdiff.cli", "analyze", "--data", str(fifo), "--out", str(tmp_path / "o")]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        threading.Thread(target=fifo.write_bytes, args=(content,), daemon=True).start()
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            pytest.fail("analyze waited on its FIFO")
        assert proc.returncode == 2
        assert f"{fifo}: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[1, None, -0.0, 0.0, float("nan"), float("inf"), float("-inf")]],
        [[None, None], [0.1, 1e300], [-7, 5e-324], [2**70, -2.5e-8]],
    ],
)
def test_write_csv_bytes_equal_to_per_row_writer(tmp_path, rows):
    cli._write_csv(str(tmp_path / "a.csv"), "h1,h2", iter(rows))
    write_csv_by_row(str(tmp_path / "b.csv"), "h1,h2", iter(rows))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=True, allow_infinity=True), st.text()
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(value=JSON_VALUES)
def test_json_text_equals_indented_dumps(value):
    # nested dicts and lists, empty containers, ints, bools, None, NaN, +-inf and strings that need escapes
    assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=1)


def test_json_text_of_escapes_and_non_finite_floats():
    value = {"q\"\\\n\t\u2028é\ud800": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324], "": {}, "b": [[], [[]]]}
    assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=1)


def test_fits_json_bytes_are_the_indented_dumps(tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", "--data", str(gait_csv(tmp_path)), "--basis-dim", "30", "--out", str(out)]) == 0
    for name in ("fits.json", "regions.json"):
        text = (out / name).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=1)


def noise_and_signal_strata(n=1500, seed=1):
    """Stratum 1 is pure noise, y independent of z; stratum 2 a strong smooth signal.

    GCV takes the upper edge for pure noise in most draws (seeds 1 and 3-7
    of 0-7 here), not in every one; the tests assert the edge they rely on.
    """
    rng = np.random.default_rng(seed)
    z1, z2 = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
    return StratumData(y=rng.normal(size=n), z=z1), StratumData(y=4 * np.sin(8 * z2) + rng.normal(0, 0.3, n), z=z2)


class TestGridEdgeLine:
    """`analyze` writes one stderr line per stratum whose GCV choice is the grid's first or last point."""

    def test_pure_noise_takes_the_upper_edge_and_a_smooth_signal_none(self, tmp_path, capsys):
        strata = noise_and_signal_strata()
        assert [f.grid_index for f in select_lambda(strata, make_basis(0, 1, 30, 3), difference_penalty(30))] == [39, 19]
        path = tmp_path / "data.csv"
        write_stratum_csv(path, *strata)
        out = tmp_path / "out"
        assert main(["analyze", "--data", str(path), "--basis-dim", "30", "--domain", "0", "1", "--out", str(out)]) == 0
        fits = json.loads((out / "fits.json").read_text())["strata"]
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            f"smoothdiff: stratum 1: GCV chose the upper edge of the lambda grid (lambda={fits[0]['lambda']:.6g}, "
            f"edf={fits[0]['edf']:.4g}); the window tests may not cover this stratum's smoothing bias"
        ]

    def test_lower_edge_line_has_no_bias_note(self, tmp_path, capsys, monkeypatch):
        # a grid far above the data's scale: the signal stratum takes its smallest lambda
        path = tmp_path / "data.csv"
        noise, signal = noise_and_signal_strata()
        write_stratum_csv(path, signal, signal)
        grid = np.geomspace(1e3, 1e6, fitting.LAMBDA_GRID_POINTS)
        monkeypatch.setattr(fitting, "default_lambda_grid", lambda dm, pen: grid)
        assert main(["analyze", "--data", str(path), "--basis-dim", "30", "--domain", "0", "1", "--out", str(tmp_path / "o")]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(" (")[0] for line in lines] == [
            f"smoothdiff: stratum {i}: GCV chose the lower edge of the lambda grid" for i in (1, 2)
        ]
        assert all(line.endswith(")") for line in lines)

    def test_given_lambda_prints_no_line(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        write_stratum_csv(path, *noise_and_signal_strata())
        argv = ["analyze", "--data", str(path), "--basis-dim", "30", "--domain", "0", "1", "--lambda", "1e6"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_demo_prints_none(self, tmp_path, capsys):
        demo = load_script("demo_analysis")
        assert demo.run(["--out", str(tmp_path / "demo")]) == 0
        assert capsys.readouterr().err == ""

    def test_simulate_prints_nothing_at_an_edge(self, tmp_path, capsys, monkeypatch):
        indices = []
        real = simulate.select_lambda

        def recording(*args):
            fits = real(*args)
            indices.extend(f.grid_index for f in fits)
            return fits

        monkeypatch.setattr(simulate, "select_lambda", recording)
        argv = ["simulate", "--preset", "tableS1", "--replicates", "3", "--threads", "1", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert fitting.LAMBDA_GRID_POINTS - 1 in indices
        assert capsys.readouterr().err == ""


class TestSimulate:
    def test_unknown_preset_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "table99"])
        assert exc.value.code == 2

    def test_scenario_file_run_is_deterministic(self, tmp_path):
        scenario = tmp_path / "tiny.scn"
        scenario.write_text(
            "n_nonzero = 4\nm = 20\ndegree = 2\nn_per_stratum = 500\n"
            "sigma_b2 = 0.4\nnoise_var = 0.3\nm_delta = 1.5\ndomain = 0 1\n"
            "alphas = 0.1\nthresholds = 0.9 0.5\nn_replicates = 3\nseed = 5\n"
        )
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            rc = main(
                ["simulate", "--scenario", str(scenario), "--threads", "1", "--out", str(out)]
            )
            assert rc == 0
            outs.append((out / "tiny_outcome.json").read_bytes())
        assert outs[0] == outs[1]

    def test_preset_with_overrides_writes_tables(self, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = main(
            [
                "simulate",
                "--preset", "table2a",
                "--replicates", "2",
                "--seed", "3",
                "--threads", "1",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert (out / "table2a_outcome.json").exists()
        table = (out / "table2a_tdp_table.csv").read_text().splitlines()
        assert table[0] == "alpha,tdp_threshold,value,n_replicates,mc_se"
        assert "mean empirical TDP" in capsys.readouterr().out
        assert not (out / "table2a_sweep.csv").exists()  # no sweep, no summary

    def test_sweep_scenario_writes_curves_file(self, tmp_path):
        scenario = tmp_path / "sweep.scn"
        scenario.write_text(
            "n_nonzero = 4\nm = 20\ndegree = 2\nn_per_stratum = 500\n"
            "sigma_b2 = 0.4\nnoise_var = 0.3\ndomain = 0 1\n"
            "alphas = 0.2\nm_delta_sweep = 0 2\nn_replicates = 3\nseed = 4\n"
        )
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", str(scenario), "--threads", "1", "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep_curves.csv").read_text().strip().splitlines()
        assert lines[0].startswith("replicate,m_delta,alpha,tdp_threshold")
        effects = sorted({float(line.split(",")[1]) for line in lines[1:]})
        assert effects == [0.0, 1.0, 2.0]

    def test_sweep_summary_has_rows_per_alpha(self, tmp_path, monkeypatch):
        # each alpha's rows read its own regions and truth-region bounds; a failed replicate is in no bin
        scenario = tmp_path / "sweep.scn"
        scenario.write_text(scenario_with("alphas = 0.3 0.1") + "m_delta_sweep = 0 2\n")
        real = simulate.run_replicate

        def failing(scn, index):
            rec = real(scn, index)
            return replace(rec, failed=True, message="x") if index == 3 else rec

        monkeypatch.setattr(simulate, "run_replicate", failing)
        outcomes = captured_outcomes(monkeypatch)
        out = tmp_path / "out"
        argv = ["simulate", "--scenario", str(scenario), "--replicates", "12", "--threads", "1", "--out", str(out)]
        assert main(argv) == 0
        [outcome] = outcomes
        assert outcome.scenario.alphas == (0.3, 0.1) and outcome.n_effective == 11
        assert_sweep_summary(out / "sweep_sweep.csv", outcome)
        rows = [line.split(",") for line in (out / "sweep_sweep.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["0.3"] * 20 + ["0.1"] * 20
        assert [row[7] for row in rows[:10]] != [row[7] for row in rows[20:30]]

    def test_sweep_summary_counts_the_last_replicate(self, tmp_path, monkeypatch):
        # the last replicate's effect was 0.9000000000000001, outside every bin of 0.3 .. 0.9
        scenario = tmp_path / "sweep.scn"
        scenario.write_text(scenario_with("n_replicates = 4") + "m_delta_sweep = 0.3 0.9\n")
        outcomes = captured_outcomes(monkeypatch)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(scenario), "--threads", "1", "--out", str(out)]) == 0
        [outcome] = outcomes
        assert [r.m_delta for r in outcome.records][-1] == 0.9 and outcome.n_effective == 4
        assert_sweep_summary(out / "sweep_sweep.csv", outcome)

    def test_repeated_levels_count_each_replicate_once(self, tmp_path, capsys):
        # a repeated alpha counted every replicate twice in its cells and printed its row twice,
        # and a repeated --tdp printed its column twice
        runs = {}
        for name, alphas, taus in (("once", "0.1", ["0.5"]), ("twice", "0.1 0.1", ["0.5", "0.5"])):
            scenario = tmp_path / f"{name}.scn"
            scenario.write_text(
                "n_nonzero = 3\nm = 15\ndegree = 2\nn_per_stratum = 400\nsigma_b2 = 0.4\n"
                "noise_var = 0.3\nm_delta = 1.5\ndomain = 0 1\nn_replicates = 6\nseed = 5\n"
                f"alphas = {alphas}\n"
            )
            out = tmp_path / name
            argv = ["simulate", "--scenario", str(scenario), "--tdp", *taus, "--threads", "1", "--out", str(out)]
            assert main(argv) == 0
            outcome = json.loads((out / f"{name}_outcome.json").read_text())
            runs[name] = (
                [(out / f"{name}_{kind}_table.csv").read_bytes() for kind in ("error", "tdp")],
                {key: outcome[key] for key in ("error_table", "tdp_table")},
                capsys.readouterr().out.replace(name, "NAME"),
            )
        assert runs["twice"] == runs["once"]
        assert b",6," in runs["once"][0][0]

    def test_env_seed_used_as_default(self, tmp_path, monkeypatch):
        scenario = tmp_path / "tiny.scn"
        scenario.write_text(
            "n_nonzero = 3\nm = 15\ndegree = 2\nn_per_stratum = 400\n"
            "sigma_b2 = 0.4\nnoise_var = 0.3\nm_delta = 1.5\ndomain = 0 1\n"
            "alphas = 0.1\nn_replicates = 2\nseed = 999\n"
        )
        out_env = tmp_path / "env"
        monkeypatch.setenv("SMOOTHDIFF_SEED", "31")
        assert main(["simulate", "--scenario", str(scenario), "--threads", "1", "--out", str(out_env)]) == 0
        monkeypatch.delenv("SMOOTHDIFF_SEED")
        out_flag = tmp_path / "flag"
        assert main(["simulate", "--scenario", str(scenario), "--seed", "31", "--threads", "1", "--out", str(out_flag)]) == 0
        assert (out_env / "tiny_outcome.json").read_bytes() == (out_flag / "tiny_outcome.json").read_bytes()


    @pytest.mark.parametrize(
        "setting, flags, env, problem",
        [
            ("seed = 5", ["--seed", "-1"], None, "seed = -1 must lie in [0, 2**64)"),
            ("seed = 5", ["--seed", str(2**64)], None, f"seed = {2**64} must lie in [0, 2**64)"),
            ("seed = -1", [], None, "seed = -1 must lie in [0, 2**64)"),
            ("seed = 5", [], "-7", "seed = -7 must lie in [0, 2**64)"),
            ("m_delta_sweep = 0 1 2", [], None, "m_delta_sweep = (0.0, 1.0, 2.0) must be two"),
            ("noise_var = -1", [], None, "noise_var = -1.0 must be finite"),
            ("noise_var = nan", [], None, "noise_var = nan must be finite"),
            ("noise_var = 0", [], None, "noise_var = 0.0 must be positive for a Gaussian family"),
            ("m_delta = nan", [], None, "m_delta = nan must be finite"),
            ("sigma_b2 = nan", [], None, "sigma_b2 = nan must be finite"),
            ("domain = 0 1 2", [], None, "domain = (0.0, 1.0, 2.0) must be two values"),
            ("domain = 5", [], None, "domain = (5.0,) must be two values"),
            ("domain = -1e308 1e308", [], None, "domain [-1e+308, 1e+308] cannot hold a basis of m=20, degree 2"),
            ("domain = 0 5e-322", [], None, "domain [0.0, 5e-322] cannot hold a basis of m=20, degree 2"),
            ("domain = 1e10 10000000000.00001", [], None, "domain [10000000000.0, 10000000000.00001] cannot hold"),
            ("alphas =", [], None, "alphas must list at least one value"),
            ("thresholds =", [], None, "thresholds must list at least one value"),
            ("n_replicates = 5", ["--replicates", "0"], None, "replicate count must be at least 1"),
            ("m_delta_sweep = 2 0", [], None, "m_delta_sweep = (2.0, 0.0) must run from LO up to HI"),
        ],
    )
    def test_bad_scenario_field_exits_2(self, tmp_path, capsys, monkeypatch, setting, flags, env, problem):
        scenario = tmp_path / "bad.scn"
        scenario.write_text(scenario_with(setting))
        if env is not None:
            monkeypatch.setenv("SMOOTHDIFF_SEED", env)
        out = tmp_path / "sim"
        argv = ["simulate", "--scenario", str(scenario), "--threads", "1", "--out", str(out)]
        assert main(argv + flags) == 2
        assert problem in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_scenario_key_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "bad.scn"
        scenario.write_text(TINY_SCENARIO + "alphas = 0.2\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(scenario), "--threads", "1", "--out", str(out)]) == 2
        assert f"{scenario}:13: scenario key 'alphas' repeats the one on line 9" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "settings, problem",
        [
            (("n_nonzero = 2", "m = 3", "degree = 3"), "basis dimension m=3 must be at least degree+2=5"),
            (("penalty_order = 0",), "penalty order must be at least 1"),
            (("penalty_order = 20",), "basis dimension m=20 must exceed penalty order 20"),
        ],
    )
    def test_bad_basis_or_penalty_exits_2_before_the_pool_starts(self, tmp_path, capsys, monkeypatch, settings, problem):
        # 24 replicates at --threads 2 take two workers, which used to start and then each raise
        def no_pool(*args, **kwargs):
            raise AssertionError("the process pool started")

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", no_pool)
        scenario = tmp_path / "bad.scn"
        scenario.write_text(scenario_with(*settings, "n_replicates = 24"))
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(scenario), "--threads", "2", "--out", str(out)]) == 2
        assert problem in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["-5", "0"])
    def test_sample_size_below_one_exits_2(self, tmp_path, capsys, n):
        # -5 was a traceback from rng.uniform; 0 failed only inside the first replicate
        scenario = tmp_path / "bad.scn"
        scenario.write_text(TINY_SCENARIO.replace("n_per_stratum = 500", f"n_per_stratum = {n}"))
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(scenario), "--threads", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"smoothdiff: input error: n_per_stratum = {n} must be at least 1" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        out = tmp_path / "sim"
        rc = main(
            ["simulate", "--preset", "table1a", "--replicates", "1", "--threads", threads, "--out", str(out)]
        )
        assert rc == 2
        assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    def test_one_thread_is_valid(self, tmp_path):
        scenario = tmp_path / "tiny.scn"
        scenario.write_text(TINY_SCENARIO)
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", str(scenario), "--threads", "1", "--out", str(out)]) == 0

    def test_summary_tallies_failures_by_cause(self, tmp_path, capsys, monkeypatch):
        scenario = tmp_path / "tiny.scn"
        scenario.write_text(TINY_SCENARIO)
        messages = {
            0: "linear predictor diverged (complete or quasi-complete separation)",
            2: "no smoothing parameter candidate could be fit",
            3: "linear predictor diverged (complete or quasi-complete separation)",
        }
        real = simulate.run_replicate

        def failing(scn, index):
            rec = real(scn, index)
            if index not in messages:
                return rec
            return simulate.ReplicateRecord(
                index, rec.m_delta, rec.true_indices, failed=True, message=messages[index]
            )

        monkeypatch.setattr(simulate, "run_replicate", failing)
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", str(scenario), "--threads", "1", "--out", str(out)]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.endswith("over 2 replicates (3 failed: separation 2, no_lambda_candidate 1)")
        outcome = json.loads((out / "tiny_outcome.json").read_text())
        assert outcome["n_failed"] == 3
        assert "separation" not in json.dumps(outcome["scenario"])

    def test_summary_without_failures(self, tmp_path, capsys):
        scenario = tmp_path / "tiny.scn"
        scenario.write_text(TINY_SCENARIO)
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", str(scenario), "--threads", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[0].endswith("over 5 replicates (0 failed)")


TINY_SCENARIO = (
    "n_nonzero = 4\nm = 20\ndegree = 2\nn_per_stratum = 500\n"
    "sigma_b2 = 0.4\nnoise_var = 0.3\nm_delta = 1.5\ndomain = 0 1\n"
    "alphas = 0.1\nthresholds = 0.9 0.5\nn_replicates = 5\nseed = 5\n"
)


def scenario_with(*settings):
    """`TINY_SCENARIO` with the line of each setting's key replaced by it, or the setting added after."""
    lines = TINY_SCENARIO.splitlines()
    for setting in settings:
        key = setting.split("=", 1)[0].strip()
        keys = [line.split("=", 1)[0].strip() for line in lines]
        if key in keys:
            lines[keys.index(key)] = setting
        else:
            lines.append(setting)
    return "\n".join(lines) + "\n"


class TestDiagnose:
    def test_parameter_mode_reports_residual_and_rates(self, tmp_path, capsys):
        out = tmp_path / "diag"
        rc = main(
            [
                "diagnose",
                "--epsilon", "5", "--theta", "4", "--lambda-p", "1",
                "--dim", "40",
                "--out", str(out),
            ]
        )
        assert rc == 0
        payload = json.loads((out / "diagnostics.json").read_text())
        assert payload["reconstruction_residual"] < 1e-12
        assert payload["pi"] == [3.0, 1.0]
        assert "residual=" in capsys.readouterr().out

    def test_parameter_mode_with_defined_rates(self, tmp_path):
        out = tmp_path / "diag"
        rc = main(
            [
                "diagnose",
                "--epsilon", "8.1", "--theta", "5", "--lambda-p", "1",
                "--dim", "60",
                "--out", str(out),
            ]
        )
        assert rc == 0
        payload = json.loads((out / "diagnostics.json").read_text())
        assert payload["psi_min"] > 0
        assert payload["empirical_decay_rate"] == pytest.approx(payload["psi_min"], rel=0.1)

    def test_invalid_discriminant_exits_3_naming_condition(self, tmp_path, capsys):
        rc = main(
            [
                "diagnose",
                "--epsilon", "50", "--theta", "1", "--lambda-p", "1",
                "--out", str(tmp_path / "d"),
            ]
        )
        assert rc == 3
        assert "theta^2 - 4*lam_p*(eps - 2*lam_p)" in capsys.readouterr().err

    def test_missing_parameters_exit_2(self, tmp_path):
        assert main(["diagnose", "--epsilon", "5", "--out", str(tmp_path / "d")]) == 2

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["--epsilon=nan", "--theta=4", "--lambda-p=1"], "eps must be finite, got nan"),
            (["--epsilon=5", "--theta=inf", "--lambda-p=1"], "theta must be finite, got inf"),
            (["--epsilon=5", "--theta=4", "--lambda-p=-inf"], "lam_p must be finite, got -inf"),
        ],
    )
    def test_non_finite_parameter_exits_2_naming_it(self, tmp_path, capsys, argv, field):
        out = tmp_path / "d"
        assert main(["diagnose", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"input error: {field}" in err and "Traceback" not in err
        assert not (out / "diagnostics.json").exists()

    def test_dimension_above_the_ceiling_exits_2_naming_dim(self, tmp_path, capsys, monkeypatch):
        def dense(*args):
            raise AssertionError("a dense matrix was built")

        # the ceiling is checked before the diagnostics run
        monkeypatch.setattr(cli, "diagnose_pentadiagonal", dense)
        out = tmp_path / "d"
        assert main(["diagnose", "--epsilon=20", "--theta=10", "--lambda-p=1", "--dim=1000000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "input error: pentadiagonal dimension 1000000 exceeds 2000" in err and "--dim" in err
        assert not (out / "diagnostics.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [["--epsilon=1", "--theta=5", "--lambda-p=1e200"], ["--epsilon=1", "--theta=1e200", "--lambda-p=1"]],
        ids=["lambda_p", "theta"],
    )
    def test_overflowing_discriminant_exits_3_naming_it(self, tmp_path, capsys, argv):
        assert main(["diagnose", *argv, "--out", str(tmp_path / "d")]) == 3
        err = capsys.readouterr().err
        assert "numerical error: theta^2 - 4*lam_p*(eps - 2*lam_p) overflows to inf" in err

    @pytest.mark.parametrize("theta", [1e8, 1e9])
    def test_small_root_does_not_cancel(self, tmp_path, theta):
        # theta/2 - sqrt(disc)/2 gave pi_2 = 0.0 at 1e9 and failed the split's check at 1e8
        out = tmp_path / "d"
        assert main(["diagnose", "--epsilon=3", f"--theta={theta!r}", "--lambda-p=1", "--out", str(out)]) == 0
        payload = json.loads((out / "diagnostics.json").read_text())
        assert payload["pi"] == pytest.approx([theta, 1.0 / theta], rel=1e-15)

    @pytest.mark.parametrize(
        "argv",
        [["--epsilon=-3.12e150", "--theta=5.71e68", "--lambda-p=5.01e-280"], ["--epsilon=1e11", "--theta=1e10", "--lambda-p=1e-300"]],
    )
    def test_overflowing_decay_ratio_exits_3_naming_it(self, tmp_path, capsys, argv):
        out = tmp_path / "d"
        assert main(["diagnose", *argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical error: decay ratio pi_1/(2*lam_p) = " in err and "Traceback" not in err
        assert not (out / "diagnostics.json").exists()

    def test_tiny_scale_rates_follow_the_vieta_root(self, tmp_path, capsys):
        out = tmp_path / "d"
        argv = ["--epsilon=7.40e-144", "--theta=7.43e-158", "--lambda-p=7.77e-196", "--dim=29"]
        assert main(["diagnose", *argv, "--out", str(out)]) == 0
        payload = json.loads((out / "diagnostics.json").read_text())
        assert payload["psi_min"] == pytest.approx(32.2321, abs=1e-4)
        assert payload["empirical_decay_rate"] == pytest.approx(payload["psi_min"], rel=1e-9)
        # eps - 2 lam_p < 0 puts pi_2 on the wrong side of 2 lam_p
        argv = ["--epsilon=4.83e-299", "--theta=5.89e-162", "--lambda-p=6.33e-258", "--dim=28"]
        assert main(["diagnose", *argv, "--out", str(out)]) == 0
        assert "(decay rate undefined: some pi_i <= 2*lam_p)" in capsys.readouterr().out
        payload = json.loads((out / "diagnostics.json").read_text())
        assert payload["psi_min"] is None and payload["empirical_decay_rate"] is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["--epsilon=8.1", "--theta=5", "--lambda-p=1", "--dim=3"],  # a single lag
            ["--epsilon=2e60", "--theta=3e30", "--lambda-p=1"],  # entries beyond lag 1 underflow
        ],
        ids=["dim_3", "underflow"],
    )
    def test_decay_slope_without_two_lags_is_null(self, tmp_path, capsys, argv):
        out = tmp_path / "d"
        assert main(["diagnose", *argv, "--out", str(out)]) == 0
        assert "(empirical decay rate undefined: fewer than two lags" in capsys.readouterr().out
        payload = json.loads((out / "diagnostics.json").read_text())
        assert payload["empirical_decay_rate"] is None
        assert payload["psi_min"] == min(payload["psi"])

    def test_model_mode_correlation_decays(self, tmp_path):
        scn, data1, data2 = make_pair(seed=13, n=2500)
        p = tmp_path / "d.csv"
        write_stratum_csv(p, data1, data2)
        out = tmp_path / "out"
        assert (
            main(
                [
                    "analyze",
                    "--data", str(p),
                    "--basis-dim", "20",
                    "--degree", "2",
                    "--domain", "0", "1",
                    "--out", str(out),
                ]
            )
            == 0
        )
        diag_out = tmp_path / "diag"
        rc = main(
            [
                "diagnose",
                "--model", str(out / "fits.json"),
                "--max-lag", "8",
                "--out", str(diag_out),
            ]
        )
        assert rc == 0
        lines = (diag_out / "correlation_table.csv").read_text().strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        corr = [float(r[1]) for r in rows]
        assert corr[0] == pytest.approx(1.0)
        # decays toward zero beyond lag d
        d = 2
        assert all(abs(c) < 0.2 for c in corr[d + 2 :])

    def _model_file(self, tmp_path):
        scn, data1, data2 = make_pair(seed=13, n=800)
        p = tmp_path / "d.csv"
        write_stratum_csv(p, data1, data2)
        out = tmp_path / "out"
        rc = main(
            ["analyze", "--data", str(p), "--basis-dim", "20", "--degree", "2",
             "--domain", "0", "1", "--out", str(out)]
        )
        assert rc == 0
        return json.loads((out / "fits.json").read_text())

    def _diagnose_model(self, tmp_path, path):
        return main(["diagnose", "--model", str(path), "--out", str(tmp_path / "diag")])

    def test_model_mode_missing_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert self._diagnose_model(tmp_path, path) == 2
        err = capsys.readouterr().err
        assert "cannot read model file" in err and "absent.json" in err

    def test_model_mode_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert self._diagnose_model(tmp_path, path) == 2
        assert "broken.json" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, key", [({}, "'basis'"), ([], "'basis'")])
    def test_model_mode_empty_model_exits_2(self, tmp_path, capsys, payload, key):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(payload))
        assert self._diagnose_model(tmp_path, path) == 2
        err = capsys.readouterr().err
        assert "empty.json" in err and key in err

    @pytest.mark.parametrize(
        "drop, key",
        [
            (("strata",), "'strata'"),
            (("basis", "m"), "basis.'m'"),
            (("strata", 1, "precision_band"), "strata[1].'precision_band'"),
            (("strata", 1, "border"), "strata[1].'border'"),  # required also without fixed effects
        ],
    )
    def test_model_mode_missing_key_exits_2(self, tmp_path, capsys, drop, key):
        model = self._model_file(tmp_path)
        node = model
        for step in drop[:-1]:
            node = node[step]
        del node[drop[-1]]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(model))
        assert self._diagnose_model(tmp_path, path) == 2
        err = capsys.readouterr().err
        assert "partial.json" in err and key in err

    def test_model_mode_mismatched_dimension_exits_2(self, tmp_path, capsys):
        model = self._model_file(tmp_path)
        model["basis"]["m"] = 21
        path = tmp_path / "resized.json"
        path.write_text(json.dumps(model))
        assert self._diagnose_model(tmp_path, path) == 2
        assert "m=21" in capsys.readouterr().err

    @pytest.mark.parametrize("lag", ["-1", "-20"])
    def test_model_mode_negative_max_lag_exits_2(self, tmp_path, capsys, lag):
        model = self._model_file(tmp_path)
        path = tmp_path / "fits.json"
        path.write_text(json.dumps(model))
        out = tmp_path / "diag"
        rc = main(["diagnose", "--model", str(path), "--max-lag", lag, "--out", str(out)])
        assert rc == 2
        assert f"--max-lag must be non-negative, got {lag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fit_args, lag_args, anchor, lags",
        [
            # the default --max-lag 12 is clamped to n_regions - 1, so the anchor is window 0
            (["--basis-dim", "15"], [], 0, 12),
            (["--basis-dim", "10", "--degree", "0"], [], 0, 10),
            # unclamped, the anchor is centred: 117 // 2 - 10 // 2
            (["--basis-dim", "120"], ["--max-lag", "10"], 53, 11),
        ],
    )
    def test_model_mode_last_lag_reads_the_last_window(self, tmp_path, fit_args, lag_args, anchor, lags):
        out = tmp_path / "out"
        rc = main(["analyze", "--data", str(gait_csv(tmp_path, n=2000)), "--domain", "0", "100", *fit_args,
                   "--out", str(out)])
        assert rc == 0
        diag = tmp_path / "diag"
        assert main(["diagnose", "--model", str(out / "fits.json"), *lag_args, "--out", str(diag)]) == 0
        payload = json.loads((diag / "diagnostics.json").read_text())
        assert payload["anchor_window"] == anchor
        assert [lag for lag, _ in payload["correlations"]] == list(range(lags))
        assert payload["correlations"][0][1] == pytest.approx(1.0)

    def test_model_mode_zero_max_lag_reports_lag_zero(self, tmp_path):
        model = self._model_file(tmp_path)
        path = tmp_path / "fits.json"
        path.write_text(json.dumps(model))
        out = tmp_path / "diag"
        assert main(["diagnose", "--model", str(path), "--max-lag", "0", "--out", str(out)]) == 0
        payload = json.loads((out / "diagnostics.json").read_text())
        assert [lag for lag, _ in payload["correlations"]] == [0]
        assert payload["correlations"][0][1] == pytest.approx(1.0)


def analyze_to(out, data1, data2, basis_dim=20, family="gaussian"):
    """Run analyze on the two strata (written as one CSV beside `out`); its fits.json as a dict."""
    path = out.parent / f"{out.name}.csv"
    write_stratum_csv(path, data1, data2)
    rc = main(
        ["analyze", "--data", str(path), "--basis-dim", str(basis_dim), "--degree", "2",
         "--domain", "0", "1", "--family", family, "--out", str(out)]
    )
    assert rc == 0
    return json.loads((out / "fits.json").read_text())


def analyze_fixed_effect_to(out):
    """analyze on two strata with an x_age column; (its fits.json as a dict, the two StratumData)."""
    _, data1, data2 = make_pair(seed=13, n=800)
    rng = np.random.default_rng(4)
    strata = []
    for data in (data1, data2):
        x = rng.normal(size=(data.n, 1))
        strata.append(StratumData(y=data.y + 0.3 * x[:, 0], z=data.z, X=x))
    path = out.parent / f"{out.name}.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y,z,stratum,x_age\n")
        for label, data in (("1", strata[0]), ("2", strata[1])):
            for yi, zi, xi in zip(data.y, data.z, data.X[:, 0]):
                fh.write(f"{float(yi)!r},{float(zi)!r},{label},{float(xi)!r}\n")
    rc = main(["analyze", "--data", str(path), "--basis-dim", "20", "--degree", "2",
               "--domain", "0", "1", "--out", str(out)])
    assert rc == 0
    return json.loads((out / "fits.json").read_text()), strata


def diagnose_files(model_path, out):
    """correlation_table.csv and diagnostics.json bytes of diagnose --model."""
    assert main(["diagnose", "--model", str(model_path), "--max-lag", "6", "--out", str(out)]) == 0
    return [(out / name).read_bytes() for name in ("correlation_table.csv", "diagnostics.json")]


ABSENT = object()  # a model-file key deleted rather than set


def assert_covariance_bands_bitwise_equal(loaded, direct, m):
    # from the fit's own band up to the full width, as diagnose widens them
    for width in range(m):
        assert np.array_equal(covariance_bands([loaded], width)[0], covariance_bands([direct], width)[0]), width


def assert_covariance_blocks_bitwise_equal(loaded, direct, m):
    # every block diagnose can read, from one column to all m
    for q in range(1, m + 1):
        for cols in (np.arange(q), np.arange(m - q, m)):
            assert np.array_equal(covariance_block(loaded, cols), covariance_block(direct, cols)), q


def per_lag_correlations(model_path, max_lag) -> tuple[int, list[float]]:
    """(anchor, correlation per lag) of diagnose --model from one widening per fit and the per-pair oracle."""
    spec, fits = load_model(str(model_path))
    max_lag = min(max_lag, spec.n_regions - 1)
    anchor = min(spec.n_regions // 2 - max_lag // 2, spec.n_regions - 1 - max_lag)
    reach = max_lag + spec.degree
    v_band = sum(covariance_bands([fit], reach)[0] for fit in fits)
    return anchor, [float(per_pair_correlation(v_band, spec, anchor, anchor + lag)) for lag in range(max_lag + 1)]


class TestModelFile:
    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_loaded_cov_is_bitwise_the_fit_cov(self, tmp_path, family):
        scn, data1, data2 = make_pair(seed=7, family=family)
        analyze_to(tmp_path / "out", data1, data2, family=family)
        spec, loaded = load_model(str(tmp_path / "out" / "fits.json"))
        pen = difference_penalty(scn.m, scn.penalty_order)
        for data, fit in zip((data1, data2), loaded):
            [direct] = select_lambda([data], spec, pen)
            assert_covariance_bands_bitwise_equal(fit, direct, spec.m)
            assert_covariance_blocks_bitwise_equal([fit], [direct], spec.m)
            assert np.array_equal(fit.precision_band, direct.precision_band)
            assert np.array_equal(fit.border, direct.border)
            assert np.array_equal(fit.coef, direct.coef)

    def test_band_file_holds_o_m_numbers_and_no_cov(self, tmp_path):
        _, data1, data2 = make_pair(seed=7)
        m = 60
        model = analyze_to(tmp_path / "out", data1, data2, basis_dim=m)
        assert model["format"] == 3
        for entry in model["strata"]:
            assert "cov" not in entry
            assert entry["border"] == []
            band = np.asarray(entry["precision_band"])
            assert band.shape == (3, m)  # bandwidth max(degree 2, penalty order 2)
            numbers = sum(np.size(v) for v in entry.values() if not isinstance(v, str))
            assert numbers <= 5 * m

    def test_fixed_effect_strata_store_band_and_border(self, tmp_path):
        model, strata = analyze_fixed_effect_to(tmp_path / "out")
        assert model["format"] == 3
        for entry in model["strata"]:
            assert "cov" not in entry
            assert np.asarray(entry["precision_band"]).shape == (3, 20)
            assert np.asarray(entry["border"]).shape == (1, 20)
            assert len(entry["beta"]) == 1
        spec, loaded = load_model(str(tmp_path / "out" / "fits.json"))
        pen = difference_penalty(20, 2)
        for data, fit in zip(strata, loaded):
            [direct] = select_lambda([data], spec, pen)
            assert np.array_equal(fit.border, direct.border)
            assert_covariance_bands_bitwise_equal(fit, direct, spec.m)
            assert_covariance_blocks_bitwise_equal([fit], [direct], spec.m)
            # the bands are of dispersion * (A^{-1} + BB')
            cov = dense_covariance(fit)
            for width in (2, 8, 19):
                np.testing.assert_allclose(
                    covariance_bands([fit], width)[0], band_form(cov, width), rtol=0.0, atol=1e-12 * np.max(np.abs(cov))
                )
        diag = tmp_path / "diag"
        assert main(["diagnose", "--model", str(tmp_path / "out" / "fits.json"), "--out", str(diag)]) == 0
        assert (diag / "correlation_table.csv").exists()

    @pytest.mark.parametrize("kind", ["plain", "fixed_effect"])
    def test_one_call_widening_and_vector_correlations_match_per_fit_and_per_lag(self, tmp_path, kind):
        if kind == "fixed_effect":
            analyze_fixed_effect_to(tmp_path / "out")
        else:
            _, data1, data2 = make_pair(seed=13, n=800)
            analyze_to(tmp_path / "out", data1, data2)
        path = tmp_path / "out" / "fits.json"
        spec, fits = load_model(str(path))
        assert fits[0].cov_band is None
        assert fits[0].border.shape == (spec.m, int(kind == "fixed_effect"))
        for width in range(spec.degree, spec.m):
            both = covariance_bands(fits, width)
            for band, fit in zip(both, fits):
                assert np.array_equal(band, covariance_bands([fit], width)[0]), width
        # a centred anchor, and the largest lag, where an even count of windows clamps the anchor
        for max_lag in (6, 100):
            out = tmp_path / f"diag{max_lag}"
            assert main(["diagnose", "--model", str(path), "--max-lag", str(max_lag), "--out", str(out)]) == 0
            diagnostics = json.loads((out / "diagnostics.json").read_text())
            anchor, want = per_lag_correlations(path, max_lag)
            assert diagnostics["anchor_window"] == anchor
            got = [corr for _, corr in diagnostics["correlations"]]
            assert len(got) == len(want) and np.max(np.abs(np.subtract(got, want))) <= 1e-12

    def test_constant_fixed_effect_column_exits_2(self, tmp_path, capsys):
        _, data1, data2 = make_pair(seed=13, n=800)
        rng = np.random.default_rng(5)
        path = tmp_path / "const.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("y,z,stratum,x_age,x_site\n")
            for label, data in (("1", data1), ("2", data2)):
                for yi, zi in zip(data.y, data.z):
                    fh.write(f"{float(yi)!r},{float(zi)!r},{label},{float(rng.normal())!r},1.0\n")
        rc = main(["analyze", "--data", str(path), "--basis-dim", "20", "--degree", "2",
                   "--domain", "0", "1", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "stratum 1: fixed-effect column 2 is not identified" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key, corrupt, problem",
        [
            ("precision_band", lambda band: [row[:-1] for row in band], "has shape (3, 19)"),
            ("precision_band", lambda band: [], "has shape (0,)"),
            ("precision_band", lambda band: [band[0][:-1]] + band[1:], "is not a numeric matrix"),
            ("precision_band", lambda band: [band[0], band[1], band[2][:5] + [float("nan")] + band[2][6:]], "non-finite"),
            ("precision_band", lambda band: [band[0], band[1], [float("inf")] * len(band[2])], "non-finite"),
            ("precision_band", lambda band: [band[0], band[1], [-abs(v) for v in band[2]]], "not positive definite"),
            ("border", lambda border: [row[:-1] for row in border], "has shape (1, 19), expected (p=1, m=20)"),
            ("border", lambda border: [], "has shape (0, 20), expected (p=1, m=20)"),
            ("border", lambda border: [border[0], border[0][:-1]], "is not a numeric matrix"),
            ("border", lambda border: [border[0][:5] + [float("nan")] + border[0][6:]], "non-finite"),
            ("border", None, "lacks key strata[0].'border'"),
            ("precision_band", None, "lacks key strata[0].'precision_band'"),
        ],
        ids=[
            "columns", "no_rows", "ragged", "nan", "inf", "not_pd",
            "border_columns", "border_rows", "border_ragged", "border_nan", "no_border", "no_band",
        ],
    )
    def test_bad_precision_band_exits_2(self, tmp_path, capsys, key, corrupt, problem):
        model, _ = analyze_fixed_effect_to(tmp_path / "out")
        entry = model["strata"][0]
        if corrupt is None:
            # a stratum without its border would drop BB' from the covariance
            del entry[key]
        else:
            entry[key] = corrupt(entry[key])
        path = tmp_path / "bad_band.json"
        path.write_text(json.dumps(model))
        assert main(["diagnose", "--model", str(path), "--out", str(tmp_path / "diag")]) == 2
        err = capsys.readouterr().err
        assert "bad_band.json" in err and f"strata[0].'{key}'" in err and problem in err

    @pytest.mark.parametrize(
        "key, value, problem",
        [
            # format 1 had no "format" key; formats 1 and 2 stored dense covariances
            ("format", ABSENT, "bad.json: unknown model format None (expected 3)"),
            ("format", 1, "bad.json: unknown model format 1 (expected 3)"),
            ("format", 2, "bad.json: unknown model format 2 (expected 3)"),
            ("format", None, "bad.json: unknown model format None (expected 3)"),
            ("format", 4, "bad.json: unknown model format 4 (expected 3)"),
            ("dispersion", float("nan"), "bad.json: strata[1].'dispersion' = nan"),
            ("dispersion", -1.0, "bad.json: strata[1].'dispersion' = -1.0"),
        ],
        ids=["format_absent", "format_1", "format_2", "format_null", "format_4", "dispersion_nan", "dispersion_negative"],
    )
    def test_bad_model_field_exits_2(self, tmp_path, capsys, key, value, problem):
        _, data1, data2 = make_pair(seed=13, n=800)
        model = analyze_to(tmp_path / "out", data1, data2)
        node = model if key == "format" else model["strata"][1]
        if value is ABSENT:
            del node[key]
        else:
            node[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(model))
        assert main(["diagnose", "--model", str(path), "--out", str(tmp_path / "diag")]) == 2
        err = capsys.readouterr().err
        assert problem in err and "Traceback" not in err
        if key == "format":
            assert "re-run `smoothdiff analyze` to rewrite the file" in err
        assert not (tmp_path / "diag" / "correlation_table.csv").exists()


def test_no_library_path_forms_a_dense_inverse_or_expansion(tmp_path, monkeypatch):
    # the exact-model reference, a replicate of either family and an analyze +
    # diagnose session read every covariance from bands
    def dense(*args, **kwargs):
        raise AssertionError("a dense m x m path ran")

    monkeypatch.setattr(fitting, "penalized_inverse", dense)
    monkeypatch.setattr(basis, "expand_band", dense)
    assert exact_model_error_rates(5, 0)
    for family in ("gaussian", "binomial"):
        scn, _, _ = make_pair(family=family)
        assert not run_replicate(scn, 0).failed
    _, data1, data2 = make_pair(seed=13, n=800)
    analyze_to(tmp_path / "out", data1, data2)
    diagnose_files(tmp_path / "out" / "fits.json", tmp_path / "diag")


@pytest.mark.parametrize("command, option, kind", [("analyze", "--config", "config"), ("simulate", "--scenario", "scenario")])
def test_undecodable_settings_file_exits_2(tmp_path, capsys, command, option, kind):
    settings = tmp_path / "bad.txt"
    settings.write_bytes(b"m = \xff\n")
    out = tmp_path / "o"
    assert main([command, option, str(settings), "--out", str(out)]) == 2
    assert f"cannot read {kind} file {settings}: 'utf-8' codec can't decode" in capsys.readouterr().err
    assert not out.exists()


def invariance_strata(family, with_x):
    """Two strata of a planted pair at m = 120 on [0, 10], with one fixed-effect column or none."""
    scn = SimScenario(
        n_nonzero=15, family=family, n_per_stratum=1000 if family == "gaussian" else 2000, n_replicates=1, seed=8
    )
    spec = scn.basis()
    rng = replicate_rng(scn.seed, 0)
    b_base, b_alt, _ = gen_coefficients(scn, rng)
    strata = [gen_stratum(b, scn, rng, spec) for b in (b_alt, b_base)]
    if with_x:
        for i, data in enumerate(strata):
            x = rng.normal(size=(data.n, 1))
            y = data.y + 0.3 * x[:, 0] if family == "gaussian" else data.y
            strata[i] = StratumData(y=y, z=data.z, family=family, X=x)
    return strata


def write_strata_csv(path, strata, labels=None, y_scale=1.0, x_scale=1.0):
    """The strata's rows as y,z[,stratum][,x_a], strata[i]'s labelled labels[i], each y times y_scale
    and each x times x_scale."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y,z" + (",stratum" if labels else "") + (",x_a" if strata[0].X.shape[1] else "") + "\n")
        for i, data in enumerate(strata):
            for row in range(data.n):
                fields = [repr(float(data.y[row]) * y_scale), repr(float(data.z[row]))]
                fields += ([labels[i]] if labels else []) + [repr(float(x) * x_scale) for x in data.X[row]]
                fh.write(",".join(fields) + "\n")
    return path


def analyze_invariance(out, strata, swap=None, y_scale=1.0, x_scale=1.0):
    """analyze at m = 120 with strata[0] as stratum 1 and each y times y_scale, each x times x_scale.
    swap="labels" labels strata[0]'s rows 2 and strata[1]'s 1 in the --data file; swap="files"
    passes strata[1] as --stratum1."""
    if swap == "files":
        paths = [write_strata_csv(out.parent / f"{out.name}{i}.csv", [d], y_scale=y_scale) for i, d in enumerate(strata)]
        inputs = ["--stratum1", str(paths[1]), "--stratum2", str(paths[0])]
    else:
        labels = ("2", "1") if swap == "labels" else ("1", "2")
        inputs = ["--data", str(write_strata_csv(out.parent / f"{out.name}.csv", strata, labels, y_scale, x_scale))]
    assert main(["analyze", *inputs, "--basis-dim", "120", "--family", strata[0].family, "--out", str(out)]) == 0
    return out


def curve_rows(out):
    return [[float(v) for v in line.split(",")] for line in (out / "curves.csv").read_text().splitlines()[1:]]


SELECTION_FILES = ("windows.csv", "regions.json", "regions.csv")


class TestInvariance:
    """Metamorphic relations of analyze: exact, so a step that treats the strata or the scale of y
    differently breaks them (Chen et al. 2018)."""

    @pytest.mark.parametrize("swap", ["labels", "files"])
    @pytest.mark.parametrize("with_x", [False, True])
    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_exchanging_the_strata_exchanges_the_fits(self, tmp_path, capsys, family, with_x, swap):
        # each system's solve is independent of its stack, V1 + V2 commutes, and d -> -d leaves every T
        strata = invariance_strata(family, with_x)
        a = analyze_invariance(tmp_path / "a", strata)
        b = analyze_invariance(tmp_path / "b", strata, swap=swap)
        for name in SELECTION_FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        regions = json.loads((a / "regions.json").read_text())["regions"]
        assert any(rec["windows"] for rec in regions)
        fits_a, fits_b = (json.loads((out / "fits.json").read_text()) for out in (a, b))
        assert fits_b["strata"] == fits_a["strata"][::-1]
        assert {k: v for k, v in fits_b.items() if k != "strata"} == {k: v for k, v in fits_a.items() if k != "strata"}
        assert curve_rows(b) == [row[:1] + row[4:] + row[1:4] for row in curve_rows(a)]

    @pytest.mark.parametrize("k", [-3, -1, 1, 3])
    @pytest.mark.parametrize("with_x", [False, True])
    def test_gaussian_fit_is_equivariant_in_the_scale_of_y(self, tmp_path, capsys, with_x, k):
        # y -> 2^k y is exact, the lambda grid's scale does not involve y, and every
        # comparison against y is relative, so the fits scale and nothing else moves
        strata = invariance_strata("gaussian", with_x)
        a = analyze_invariance(tmp_path / "a", strata)
        b = analyze_invariance(tmp_path / "b", strata, y_scale=2.0**k)
        for name in SELECTION_FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        fits_a, fits_b = (json.loads((out / "fits.json").read_text()) for out in (a, b))
        for fit_a, fit_b in zip(fits_a["strata"], fits_b["strata"]):
            for key in ("lambda", "edf", "precision_band", "border", "n_obs"):
                assert fit_b[key] == fit_a[key], key
            for key in ("coef", "beta"):
                assert fit_b[key] == [v * 2.0**k for v in fit_a[key]], key
            for key in ("dispersion", "deviance"):
                assert fit_b[key] == fit_a[key] * 4.0**k, key
        assert curve_rows(b) == [row[:1] + [v * 2.0**k for v in row[1:]] for row in curve_rows(a)]

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_fit_is_equivariant_in_the_scale_of_a_fixed_effect(self, tmp_path, capsys, family):
        # x -> 2x is exact and every step is linear in x, so beta halves; the border B = V L^-T keeps
        # its value, as V and L both double, and nothing else moves
        strata = invariance_strata(family, with_x=True)
        a = analyze_invariance(tmp_path / "a", strata)
        b = analyze_invariance(tmp_path / "b", strata, x_scale=2.0)
        for name in (*SELECTION_FILES, "curves.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        fits_a, fits_b = (json.loads((out / "fits.json").read_text()) for out in (a, b))
        assert {k: v for k, v in fits_b.items() if k != "strata"} == {k: v for k, v in fits_a.items() if k != "strata"}
        for fit_a, fit_b in zip(fits_a["strata"], fits_b["strata"]):
            assert fit_b["beta"] == [v / 2.0 for v in fit_a["beta"]]
            assert {k: v for k, v in fit_b.items() if k != "beta"} == {k: v for k, v in fit_a.items() if k != "beta"}


SWEEP_HEADER = [
    "alpha", "tdp_threshold", "effect_lo", "effect_hi", "n",
    "mean_empirical_tdp", "mean_truth_coverage", "mean_truth_region_bound",
]


def captured_outcomes(monkeypatch) -> list:
    """The outcomes of the scenarios `simulate` runs, appended as it runs them."""
    outcomes = []

    def run_scenario(scenario, threads):
        outcomes.append(simulate.run_scenario(scenario, threads=threads))
        return outcomes[-1]

    monkeypatch.setattr(cli, "run_scenario", run_scenario)
    return outcomes


def assert_sweep_summary(path, outcome):
    """`path` holds the oracle's rows for `outcome` bit for bit: one per (alpha, tau, bin) in scenario
    order over 10 equal bins of the sweep, each (alpha, tau)'s counts summing to the replicates that
    did not fail, and each mean in [0, 1] or empty."""
    scenario = outcome.scenario
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == SWEEP_HEADER
    want = sweep_summary_by_bin_scan(outcome, 10)
    assert lines[1:] == [",".join("" if v is None else repr(v) for v in row) for row in want]
    rows = [dict(zip(SWEEP_HEADER, line.split(","))) for line in lines[1:]]
    keys = [tuple(float(r[key]) for key in SWEEP_HEADER[:4]) for r in rows]
    edges = np.linspace(*scenario.m_delta_sweep, 11)
    cells = [(alpha, tau) for alpha in scenario.alphas for tau in scenario.thresholds]
    assert keys == [(alpha, tau, edges[b], edges[b + 1]) for alpha, tau in cells for b in range(10)]
    for cell in cells:  # every replicate's effect lies in one bin
        assert sum(int(r["n"]) for r, key in zip(rows, keys) if key[:2] == cell) == outcome.n_effective
    for r in rows:
        for key in SWEEP_HEADER[5:]:
            assert r[key] == "" or 0.0 <= float(r[key]) <= 1.0


@pytest.mark.parametrize("name, seed", [("fig5", None), ("fig6", 7), ("fig8", None)])
def test_sweep_preset_writes_its_binned_summary(tmp_path, monkeypatch, name, seed):
    assert [n for n, scn in PRESETS.items() if scn.m_delta_sweep is not None] == ["fig5", "fig6", "fig8"]
    outcomes = captured_outcomes(monkeypatch)
    argv = ["simulate", "--preset", name, "--replicates", "8", "--threads", "1", "--out", str(tmp_path)]
    assert main(argv + ([] if seed is None else ["--seed", str(seed)])) == 0
    [outcome] = outcomes
    assert outcome.scenario == replace(PRESETS[name], n_replicates=8, **({} if seed is None else {"seed": seed}))
    assert_sweep_summary(tmp_path / f"{name}_sweep.csv", outcome)


def test_cached_parser_leaks_no_value_between_calls(monkeypatch):
    # main parses with one parser per process; every call must see exactly
    # what a freshly built parser gives for its own argv
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    seen = []
    monkeypatch.setattr(cli, "_analysis_config", seen.append)
    monkeypatch.setattr(cli, "cmd_analyze", lambda config: 0)
    monkeypatch.setattr(cli, "cmd_simulate", lambda args: seen.append(args) or 0)
    monkeypatch.setattr(cli, "cmd_diagnose", lambda args: seen.append(args) or 0)
    runs = [
        ["analyze", "--data", "a.csv", "--basis-dim", "40", "--tdp", "0.9", "0.5", "--lambda", "2"],
        ["simulate", "--preset", "tableS1", "--threads", "1", "--seed", "7", "--out", "s"],
        ["diagnose", "--model", "fits.json", "--max-lag", "3"],
        ["analyze", "--stratum1", "a.csv", "--stratum2", "b.csv"],
        ["simulate", "--scenario", "x.scn"],
        ["diagnose", "--epsilon", "1", "--theta", "0.2", "--lambda-p", "0.1"],
    ]
    for argv in runs:
        assert main(argv) == 0
        assert vars(seen[-1]) == vars(cli.build_parser().parse_args(argv))
    assert len(seen) == len(runs)
    assert cli._parser() is cli._parser()
    assert seen[4].threads == (os.cpu_count() or 1) and seen[4].seed is None
    assert seen[3].lam is None and seen[3].tdp is None and seen[3].basis_dim is None
    assert seen[5].model is None and seen[5].max_lag == 12


def exit_code(argv):
    """`main`'s exit code, argparse's SystemExit included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, spelled",
    [
        ("diagnose --epsilon 5 --theta -1e3 --lambda-p 1", "diagnose --epsilon 5 --theta=-1e3 --lambda-p 1"),
        ("diagnose --epsilon 5 --theta -2.5e-4 --lambda-p 1", "diagnose --epsilon 5 --theta=-2.5e-4 --lambda-p 1"),
        ("analyze --lambda -2.5e-4", "analyze --lambda=-2.5e-4"),
        ("analyze --lambda -1E3", "analyze --lambda=-1E3"),
        ("analyze --domain -2.5e-4 1e2", "analyze --domain -0.00025 100"),
        ("simulate --preset table1a --alpha -1e-1", "simulate --preset table1a --alpha=-1e-1"),
    ],
)
def test_negative_value_in_exponent_form_reaches_the_program(tmp_path, capsys, argv, spelled):
    # argparse before Python 3.13 reads `-1e3` as an unknown option ("expected one argument");
    # each argv must run as its spelling that argparse has always read as a value
    common = {
        "analyze": ["--data", str(gait_csv(tmp_path)), "--basis-dim", "20"],
        "diagnose": [],
        "simulate": ["--replicates", "1", "--threads", "1"],
    }[argv.split()[0]]
    results = []
    for args in (argv, spelled):
        code = exit_code(args.split() + common + ["--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert results[0] == results[1]
    assert "expected" not in results[0][2]


def test_table_suite_runs_the_six_studies_at_their_own_seeds(monkeypatch):
    suite = load_script("run_table_suite")
    calls = []
    monkeypatch.setattr(suite, "cli_main", lambda argv: calls.append(argv) or 0)
    assert suite.run(["--replicates", "4", "--out", "o"]) == 0
    presets = [argv[argv.index("--preset") + 1] for argv in calls]
    assert presets == ["table1a", "table1b", "tableS1", "fig5", "fig6", "fig8"]
    assert not any("--seed" in argv for argv in calls)
    calls.clear()
    assert suite.run(["--presets", "fig8", "--seed", "7"]) == 0
    [argv] = calls
    assert argv[argv.index("--seed") + 1] == "7" and "--replicates" not in argv


def test_exact_model_script_rejects_zero_replicates_with_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        load_script("exact_model_error_rates").run(["--replicates", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.rstrip().endswith("error: replicate count must be at least 1")
    assert "Traceback" not in err


def few_rows_csv(path, strata):
    """A two-stratum CSV from {label: (y, z)} on [0, 1]."""
    rows = ["y,z,stratum"]
    for label, (y, z) in strata.items():
        rows += [f"{float(yi)!r},{float(zi)!r},{label}" for yi, zi in zip(y, z)]
    path.write_text("\n".join(rows) + "\n")
    return path


FEW = ([0.0, 1.0, 0.0], [0.2, 0.5, 0.8])  # 3 rows: every lambda leaves n - edf < 1 at m = 10


def eight_rows(huge=False):
    z = np.linspace(0.05, 0.95, 8)
    y = np.sin(5 * z)
    if huge:
        y[3] = 1e300  # y'y overflows
    return y, z


class TestFailingStratum:
    """Each stratum is set up and solved in turn, and both before either is scored: every
    stratum's warning and input error comes before any stratum's fitting failure."""

    @staticmethod
    def run(tmp_path, strata, *flags):
        path = few_rows_csv(tmp_path / "few.csv", strata)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["analyze", "--data", str(path), "--basis-dim", "10", "--domain", "0", "1", *flags,
                       "--out", str(tmp_path / "o")])
        sizes = [re.search(r"n=(\d+)", str(w.message)).group(1) for w in caught if w.category is UserWarning]
        return rc, sizes

    @pytest.mark.parametrize("flags", [[], ["--lambda", "1"]])
    def test_failing_stratum_1_fails_after_both_warn(self, tmp_path, capsys, flags):
        rc, sizes = self.run(tmp_path, {1: FEW, 2: eight_rows()}, *flags)
        assert (rc, sizes) == (3, ["3", "8"])
        err = capsys.readouterr().err
        assert "less than one residual degree of freedom at sample size 3" in err
        assert ("no smoothing parameter candidate could be fit: " in err) == (not flags)

    @pytest.mark.parametrize("flags", [[], ["--lambda", "1"]])
    def test_failing_stratum_2_after_both_warn(self, tmp_path, capsys, flags):
        rc, sizes = self.run(tmp_path, {1: eight_rows(), 2: FEW}, *flags)
        assert (rc, sizes) == (3, ["8", "3"])
        assert "less than one residual degree of freedom at sample size 3" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--lambda", "1"]])
    def test_input_error_of_stratum_2_comes_before_failing_stratum_1(self, tmp_path, capsys, flags):
        rc, sizes = self.run(tmp_path, {1: FEW, 2: eight_rows(huge=True)}, *flags)
        assert (rc, sizes) == (2, ["3"])
        err = capsys.readouterr().err
        assert "smoothdiff: input error: stratum 2: the sum of squared outcomes y'y overflows" in err
        assert "numerical error" not in err

    @pytest.mark.parametrize("flags", [[], ["--lambda", "1"]])
    def test_input_error_of_stratum_1_comes_before_any_warning(self, tmp_path, capsys, flags):
        rc, sizes = self.run(tmp_path, {1: eight_rows(huge=True), 2: FEW}, *flags)
        assert (rc, sizes) == (2, [])
        assert "smoothdiff: input error: stratum 1: the sum of squared outcomes y'y overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--lambda", "1"]])
    def test_domain_error_of_stratum_2_after_stratum_1_warns(self, tmp_path, capsys, flags):
        # select_lambda checks the domain as it sets up each stratum, so stratum 1 warns first
        y, z = eight_rows()
        rc, sizes = self.run(tmp_path, {1: eight_rows(), 2: (y, np.append(z[:-1], 1.5))}, *flags)
        assert (rc, sizes) == (2, ["8"])
        message = "stratum 2: 1 rows have z outside the domain [0.0, 1.0], the first z = 1.5"
        assert f"smoothdiff: input error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--lambda", "1"]])
    def test_input_error_of_stratum_2_after_stratum_1_warns(self, tmp_path, capsys, flags):
        rc, sizes = self.run(tmp_path, {1: eight_rows(), 2: eight_rows(huge=True)}, *flags)
        assert (rc, sizes) == (2, ["8"])
        assert "smoothdiff: input error: stratum 2: the sum of squared outcomes y'y overflows" in capsys.readouterr().err


@pytest.mark.parametrize("lam", [None, 1.0])
def test_small_sample_warning_names_the_caller_of_select_lambda(tmp_path, lam):
    path = few_rows_csv(tmp_path / "eight.csv", {1: eight_rows(), 2: eight_rows()})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        main(["analyze", "--data", str(path), "--basis-dim", "10", "--domain", "0", "1",
              *([] if lam is None else ["--lambda", str(lam)]), "--out", str(tmp_path / "o")])
        y, z = eight_rows()
        select_lambda([StratumData(y=y, z=z)], make_basis(0.0, 1.0, 10, 3), difference_penalty(10), lam)
    small = [w.filename for w in caught if "does not exceed basis dimension" in str(w.message)]
    assert small == [cli.__file__, cli.__file__, __file__]


def counting_selected_inverses(monkeypatch):
    """Record the stack size of every `fitting.selected_inverse_band` call."""
    calls = []
    real = fitting.selected_inverse_band

    def counting(factors):
        calls.append(factors.shape[0])
        return real(factors)

    monkeypatch.setattr(fitting, "selected_inverse_band", counting)
    return calls


@pytest.mark.parametrize("flags, stack", [([], 80), (["--lambda", "1"], 2)], ids=["gcv", "lambda"])
@pytest.mark.parametrize("family", ["gaussian", "binomial"])
def test_one_selected_inverse_per_analyze(tmp_path, monkeypatch, family, flags, stack):
    scn, data1, data2 = make_pair(seed=5, family=family)
    path = tmp_path / "pair.csv"
    write_stratum_csv(path, data1, data2)
    calls = counting_selected_inverses(monkeypatch)
    argv = ["analyze", "--data", str(path), "--basis-dim", "20", "--degree", "2", "--domain", "0", "1",
            "--family", family, *flags, "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    # one call for both strata's 40-point grids, or their given lambda, and none for the window blocks
    assert calls == [stack]


def test_diagnose_model_runs_no_selected_inverse(tmp_path, monkeypatch):
    _, data1, data2 = make_pair(seed=5)
    analyze_to(tmp_path / "out", data1, data2)
    calls = counting_selected_inverses(monkeypatch)
    for max_lag in ("0", "6", "1000"):
        argv = ["diagnose", "--model", str(tmp_path / "out" / "fits.json"), "--max-lag", max_lag, "--out", str(tmp_path / "d")]
        assert main(argv) == 0
    # the correlation table's block comes from one banded solve per fit
    assert calls == []


@pytest.mark.parametrize("family", ["gaussian", "binomial"])
def test_one_selected_inverse_per_replicate(monkeypatch, family):
    scenario = SimScenario(n_nonzero=4, m=20, n_per_stratum=600, family=family, alphas=(0.1,), n_replicates=1)
    calls = counting_selected_inverses(monkeypatch)
    assert not run_replicate(scenario, 0).failed
    assert len(calls) == 1 and calls[0] <= 80
