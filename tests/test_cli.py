import importlib.util
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    band_form,
    dense_covariance,
    dense_design,
    per_pair_correlation,
    pointwise_variance,
    read_stratum_csv_by_float,
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
from smoothdiff.fitting import StratumData, covariance_bands, select_lambda
from smoothdiff.simulate import (
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
        fits = [select_lambda(d, spec, pen) for d in (data1, data2)]
        series = window_statistics(fits[0], fits[1], spec)
        report = threshold_regions(series, 0.1, (0.9, 0.7, 0.5))

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
            assert [tuple(iv) for iv in rec["intervals"]] == list(ours.intervals)
        windows_csv = (out / "windows.csv").read_text().strip().splitlines()
        assert windows_csv[0] == "k,region_lo,region_hi,T,p"
        assert len(windows_csv) == 1 + series.n_windows
        row0 = windows_csv[1].split(",")
        assert float(row0[3]) == series.T[0]
        assert float(row0[4]) == series.p[0]

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
        fit = select_lambda(data1, spec, pen)
        got = band_pointwise_variance(dm, covariance_bands([fit], degree)[0])
        np.testing.assert_allclose(got, pointwise_variance(dense_design(dm), dense_covariance(fit)), rtol=1e-12)

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
    end = "\n"
    if case == "crlf":
        end = "\r\n"
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


class TestCsvReader:
    """read_stratum_csv parses data rows with numpy; the csv + float() reader is its oracle."""

    @pytest.mark.parametrize(
        "case",
        ["plain", "no_stratum", "x_columns", "crlf", "quoted", "spaced", "extra_columns",
         "stratum_first", "word_labels", "blank_lines"],
    )
    def test_columns_bitwise_equal_to_float_reader(self, tmp_path, case):
        content, col = csv_case(case, np.random.default_rng(len(case)))
        path = tmp_path / "d.csv"
        path.write_bytes(content)
        assert_same_columns(read_stratum_csv(str(path), col), read_stratum_csv_by_float(path, col))

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
            ("alphas =", [], None, "alphas must list at least one value"),
            ("thresholds =", [], None, "thresholds must list at least one value"),
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


def scenario_with(setting):
    """`TINY_SCENARIO` with the line of `setting`'s key replaced by it, or `setting` added after."""
    key = setting.split("=", 1)[0].strip()
    lines = TINY_SCENARIO.splitlines()
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


def check_model_file(path) -> int:
    """scripts/check_model_file.py's exit code on `path`."""
    return load_script("check_model_file").main([str(path)])


def assert_covariance_bands_bitwise_equal(loaded, direct, m):
    # from the fit's own band up to the full width, as diagnose widens them
    for width in range(m):
        assert np.array_equal(covariance_bands([loaded], width)[0], covariance_bands([direct], width)[0]), width


def write_format_1(model, fits, path):
    """`model` (a fits.json dict) rewritten as a format-1 file holding each fit's dense cov; its path."""
    model = json.loads(json.dumps(model))
    del model["format"]
    for entry, fit in zip(model["strata"], fits):
        del entry["precision_band"], entry["border"]
        entry["cov"] = [[float(v) for v in row] for row in dense_covariance(fit)]
    path.write_text(json.dumps(model, sort_keys=True, indent=1))
    return path


def per_lag_correlation_table(model_path, max_lag) -> bytes:
    """correlation_table.csv from one widening per fit and the per-pair oracle's correlation per lag."""
    spec, fits = load_model(str(model_path))
    max_lag = min(max_lag, spec.n_regions - 1)
    anchor = spec.n_regions // 2 - max_lag // 2
    reach = max_lag + spec.degree
    v_band = sum(covariance_bands([fit], reach)[0] for fit in fits)
    lines = ["lag,correlation"]
    for lag in range(max_lag + 1):
        lines.append(f"{lag},{float(per_pair_correlation(v_band, spec, anchor, anchor + lag))!r}")
    return ("\n".join(lines) + "\n").encode()


class TestModelFile:
    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_loaded_cov_is_bitwise_the_fit_cov(self, tmp_path, family):
        scn, data1, data2 = make_pair(seed=7, family=family)
        model = analyze_to(tmp_path / "out", data1, data2, family=family)
        spec, loaded = load_model(str(tmp_path / "out" / "fits.json"))
        # the same fits as a format-2 file, which has no border key
        model["format"] = 2
        for entry in model["strata"]:
            del entry["border"]
        (tmp_path / "format2.json").write_text(json.dumps(model))
        _, loaded2 = load_model(str(tmp_path / "format2.json"))
        pen = difference_penalty(scn.m, scn.penalty_order)
        for data, fit, fit2 in zip((data1, data2), loaded, loaded2):
            direct = select_lambda(data, spec, pen)
            assert_covariance_bands_bitwise_equal(fit, direct, spec.m)
            assert_covariance_bands_bitwise_equal(fit2, direct, spec.m)
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

    def test_dense_format_1_file_exits_2(self, tmp_path, capsys):
        # a format-1 file has no "format" key and stores every stratum's dense
        # cov, which no longer loads: the message names the file and the stratum
        _, data1, data2 = make_pair(seed=13, n=800)
        model = analyze_to(tmp_path / "out", data1, data2)
        path = write_format_1(model, load_model(str(tmp_path / "out" / "fits.json"))[1], tmp_path / "dense.json")
        assert main(["diagnose", "--model", str(path), "--out", str(tmp_path / "diag")]) == 2
        err = capsys.readouterr().err
        assert "dense.json: strata[0] holds a dense 'cov'" in err
        assert "re-run `smoothdiff analyze`" in err and "Traceback" not in err
        assert not (tmp_path / "diag" / "correlation_table.csv").exists()

    def test_format_2_fixed_effect_stratum_with_dense_cov_exits_2(self, tmp_path, capsys):
        # format 2 stored a fixed-effect stratum's dense cov; stratum 0 stays a
        # band here, so the message must name stratum 1
        model, _ = analyze_fixed_effect_to(tmp_path / "out")
        _, fits = load_model(str(tmp_path / "out" / "fits.json"))
        model["format"] = 2
        entry = model["strata"][1]
        del entry["precision_band"], entry["border"]
        entry["cov"] = [[float(v) for v in row] for row in dense_covariance(fits[1])]
        path = tmp_path / "format2.json"
        path.write_text(json.dumps(model))
        assert main(["diagnose", "--model", str(path), "--out", str(tmp_path / "diag")]) == 2
        err = capsys.readouterr().err
        assert "format2.json: strata[1] holds a dense 'cov'" in err
        assert "re-run `smoothdiff analyze`" in err and "Traceback" not in err

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
            direct = select_lambda(data, spec, pen)
            assert np.array_equal(fit.border, direct.border)
            assert_covariance_bands_bitwise_equal(fit, direct, spec.m)
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
        table, _ = diagnose_files(path, tmp_path / "diag")
        assert table == per_lag_correlation_table(path, 6)

    def test_check_model_file_script(self, tmp_path, capsys):
        _, data1, data2 = make_pair(seed=7)
        analyze_to(tmp_path / "plain", data1, data2)
        assert check_model_file(tmp_path / "plain" / "fits.json") == 0
        model, _ = analyze_fixed_effect_to(tmp_path / "fixed")
        assert check_model_file(tmp_path / "fixed" / "fits.json") == 0
        # the format-2 form of a fixed-effect stratum: its dense covariance
        _, fits = load_model(str(tmp_path / "fixed" / "fits.json"))
        model["format"] = 2
        for entry, fit in zip(model["strata"], fits):
            del entry["precision_band"], entry["border"]
            entry["cov"] = [[float(v) for v in row] for row in dense_covariance(fit)]
        path = tmp_path / "format2.json"
        path.write_text(json.dumps(model))
        assert check_model_file(path) == 1
        assert "format 2" in capsys.readouterr().err
        assert main(["diagnose", "--model", str(path), "--out", str(tmp_path / "diag")]) == 2

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
            # a hand-edited format-2 band stratum with fixed effects: no border
            # would drop BB' from the covariance; with neither band nor dense
            # cov the missing band is named, not the retired cov
            model["format"] = 2
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
            ("format", 4, "unknown model format 4"),
            ("format", 1, "unknown model format 1 (expected 2 or 3)"),
            ("format", None, "unknown model format None (expected 2 or 3)"),
            ("dispersion", float("nan"), "strata[1].'dispersion' = nan"),
            ("dispersion", -1.0, "strata[1].'dispersion' = -1.0"),
        ],
    )
    def test_bad_model_field_exits_2(self, tmp_path, capsys, key, value, problem):
        _, data1, data2 = make_pair(seed=13, n=800)
        model = analyze_to(tmp_path / "out", data1, data2)
        (model if key == "format" else model["strata"][1])[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(model))
        assert main(["diagnose", "--model", str(path), "--out", str(tmp_path / "diag")]) == 2
        err = capsys.readouterr().err
        assert "bad.json" in err and problem in err


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
