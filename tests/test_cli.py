import json
import os

import numpy as np
import pytest
from oracles import dense_design, pointwise_variance

from smoothdiff import simulate
from smoothdiff.basis import design_matrix, difference_penalty, make_basis
from smoothdiff.cli import CURVE_GRID_POINTS, band_pointwise_variance, load_model, main, write_stratum_csv
from smoothdiff.fitting import select_lambda
from smoothdiff.simulate import SimScenario, gen_coefficients, gen_stratum, replicate_rng
from smoothdiff.tdp import threshold_regions
from smoothdiff.windows import window_statistics


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
        covs = [fit.cov for fit in fits]
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
        got = band_pointwise_variance(dm, fit.covariance_band(degree))
        np.testing.assert_allclose(got, pointwise_variance(dense_design(dm), fit.cov), rtol=1e-12)

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
            ("m_delta = nan", [], None, "m_delta = nan must be finite"),
            ("sigma_b2 = nan", [], None, "sigma_b2 = nan must be finite"),
        ],
    )
    def test_bad_scenario_field_exits_2(self, tmp_path, capsys, monkeypatch, setting, flags, env, problem):
        scenario = tmp_path / "bad.scn"
        scenario.write_text(TINY_SCENARIO.replace("seed = 5", setting))
        if env is not None:
            monkeypatch.setenv("SMOOTHDIFF_SEED", env)
        out = tmp_path / "sim"
        argv = ["simulate", "--scenario", str(scenario), "--threads", "1", "--out", str(out)]
        assert main(argv + flags) == 2
        assert problem in capsys.readouterr().err
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
                index=index,
                m_delta=rec.m_delta,
                true_indices=rec.true_indices,
                p_values=(),
                regions=(),
                truth_region_tdp={},
                failed=True,
                message=messages[index],
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


def diagnose_files(model_path, out):
    """correlation_table.csv and diagnostics.json bytes of diagnose --model."""
    assert main(["diagnose", "--model", str(model_path), "--max-lag", "6", "--out", str(out)]) == 0
    return [(out / name).read_bytes() for name in ("correlation_table.csv", "diagnostics.json")]


class TestModelFile:
    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_loaded_cov_is_bitwise_the_fit_cov(self, tmp_path, family):
        scn, data1, data2 = make_pair(seed=7, family=family)
        analyze_to(tmp_path / "out", data1, data2, family=family)
        spec, loaded = load_model(str(tmp_path / "out" / "fits.json"))
        pen = difference_penalty(scn.m, scn.penalty_order)
        for data, fit in zip((data1, data2), loaded):
            direct = select_lambda(data, spec, pen)
            assert np.array_equal(fit.cov, direct.cov)
            assert np.array_equal(fit.precision_band, direct.precision_band)
            assert np.array_equal(fit.coef, direct.coef)

    def test_band_file_holds_o_m_numbers_and_no_cov(self, tmp_path):
        _, data1, data2 = make_pair(seed=7)
        m = 60
        model = analyze_to(tmp_path / "out", data1, data2, basis_dim=m)
        assert model["format"] == 2
        for entry in model["strata"]:
            assert "cov" not in entry
            band = np.asarray(entry["precision_band"])
            assert band.shape == (3, m)  # bandwidth max(degree 2, penalty order 2)
            numbers = sum(np.size(v) for v in entry.values() if not isinstance(v, str))
            assert numbers <= 5 * m

    def test_dense_format_1_file_gives_identical_diagnostics(self, tmp_path):
        _, data1, data2 = make_pair(seed=13, n=800)
        model = analyze_to(tmp_path / "out", data1, data2)
        path2 = tmp_path / "out" / "fits.json"
        _, fits = load_model(str(path2))
        del model["format"]
        for entry, fit in zip(model["strata"], fits):
            del entry["precision_band"]
            entry["cov"] = [[float(v) for v in row] for row in fit.cov]
        path1 = tmp_path / "dense.json"
        path1.write_text(json.dumps(model, sort_keys=True, indent=1))
        assert diagnose_files(path1, tmp_path / "d1") == diagnose_files(path2, tmp_path / "d2")

    def test_fixed_effect_strata_keep_dense_cov(self, tmp_path):
        _, data1, data2 = make_pair(seed=13, n=800)
        rng = np.random.default_rng(4)
        path = tmp_path / "x.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("y,z,stratum,x_age\n")
            for label, data in (("1", data1), ("2", data2)):
                x = rng.normal(size=data.n)
                for yi, zi, xi in zip(data.y + 0.3 * x, data.z, x):
                    fh.write(f"{float(yi)!r},{float(zi)!r},{label},{float(xi)!r}\n")
        out = tmp_path / "out"
        rc = main(["analyze", "--data", str(path), "--basis-dim", "20", "--degree", "2",
                   "--domain", "0", "1", "--out", str(out)])
        assert rc == 0
        model = json.loads((out / "fits.json").read_text())
        for entry in model["strata"]:
            assert "precision_band" not in entry
            assert np.asarray(entry["cov"]).shape == (20, 20)
            assert len(entry["beta"]) == 1
        diag = tmp_path / "diag"
        assert main(["diagnose", "--model", str(out / "fits.json"), "--out", str(diag)]) == 0
        assert (diag / "correlation_table.csv").exists()

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
        "corrupt, problem",
        [
            (lambda band: [row[:-1] for row in band], "has shape (3, 19)"),
            (lambda band: [], "has shape (0,)"),
            (lambda band: [band[0][:-1]] + band[1:], "is not a numeric matrix"),
            (lambda band: [band[0], band[1], band[2][:5] + [float("nan")] + band[2][6:]], "non-finite"),
            (lambda band: [band[0], band[1], [float("inf")] * len(band[2])], "non-finite"),
            (lambda band: [band[0], band[1], [-abs(v) for v in band[2]]], "not positive definite"),
        ],
        ids=["columns", "no_rows", "ragged", "nan", "inf", "not_pd"],
    )
    def test_bad_precision_band_exits_2(self, tmp_path, capsys, corrupt, problem):
        _, data1, data2 = make_pair(seed=13, n=800)
        model = analyze_to(tmp_path / "out", data1, data2)
        entry = model["strata"][0]
        entry["precision_band"] = corrupt(entry["precision_band"])
        path = tmp_path / "bad_band.json"
        path.write_text(json.dumps(model))
        assert main(["diagnose", "--model", str(path), "--out", str(tmp_path / "diag")]) == 2
        err = capsys.readouterr().err
        assert "bad_band.json" in err and "strata[0].'precision_band'" in err and problem in err

    @pytest.mark.parametrize(
        "key, value, problem",
        [
            ("format", 3, "unknown model format 3"),
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
