import numpy as np
import pytest

from hybridctl import load_policy
from hybridctl.cli import _parse_factors, main
from hybridctl.config import (
    ConfigError,
    build_run_config,
    load_run_config,
    parse_config_text,
)


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("HYBRIDCTL_OUT", str(tmp_path))
    return tmp_path


def write_config(tmp_path, extra=""):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "env.name = pendulum\n"
        "out_dir = exp\n"
        "seed = 3\n"
        "policy.n_centers = 8\n"
        "train.population = 4\n"
        "train.iterations = 2\n"
        "train.horizon = 30\n"
        "train.episodes = 2\n"
        + extra,
        encoding="utf-8")
    return str(cfg)


class TestConfigParsing:
    def test_key_value_lines(self):
        pairs = parse_config_text("a.b = 1\n# comment\n\nc = two # trailing\n")
        assert pairs == {"a.b": "1", "c": "two"}

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config({"env.colour": "blue"})
        with pytest.raises(ConfigError):
            build_run_config({"bogus": "1"})

    def test_effective_values(self, tmp_path):
        path = write_config(tmp_path, "lqr.Q = 450 20\nlqr.R = 0.1\n")
        cfg = load_run_config(path)
        assert cfg.env_name == "pendulum"
        assert cfg.seed == 3
        assert cfg.train.population == 4
        assert cfg.train.seed == 3  # follows the global seed
        assert cfg.lqr_Q == [450.0, 20.0]

    def test_hash_stable_and_sensitive(self, tmp_path):
        path = write_config(tmp_path)
        h1 = load_run_config(path).config_hash()
        h2 = load_run_config(path).config_hash()
        h3 = load_run_config(path, {"seed": "4"}).config_hash()
        assert h1 == h2
        assert h1 != h3

    def test_file_errors_name_the_line(self, outdir, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("env.name = pendulum\ntrain.iterations = abc\n", encoding="utf-8")
        assert main(["synthesize", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: line 2: train.iterations: invalid literal")
        bad.write_text("# comment\n\nbogus = 1\n", encoding="utf-8")
        assert main(["synthesize", "--config", str(bad)]) == 1
        assert capsys.readouterr().err == "error: line 3: unknown config key 'bogus'\n"

    def test_range_errors_name_the_key_and_line(self, outdir, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("env.name = pendulum\ntrain.population = 2\n", encoding="utf-8")
        assert main(["synthesize", "--config", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "error: line 2: train.population: population must be at least 4\n")
        bad.write_text("env.name = pendulum\nenv.m = -1\n", encoding="utf-8")
        assert main(["synthesize", "--config", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "error: line 2: env.m: EnvParams.m must be positive\n")

    @pytest.mark.parametrize("line,message", [
        ("policy.n_centers = 0", "number of RBF centers must be at least 1"),
        ("policy.lambda = -1", "all relevance weights lambda must be positive"),
        ("policy.lambda = 1 0 1", "all relevance weights lambda must be positive"),
        ("robust.horizon = 0", "robustness horizon must be at least 1"),
        ("robust.jitter = -0.01", "robustness jitter must be nonnegative"),
        ("robust.seeds = 0", "need at least one seed"),
        ("robust.factors = 1 0.7", "scale factors must be strictly increasing"),
        ("robust.factors = 0.5 9", "scale factors must lie within [0.5, 5.0]"),
        ("respond.horizon = 0", "response horizon must be at least 1"),
        ("respond.horizon = -3", "response horizon must be at least 1"),
    ])
    def test_run_range_errors_name_the_key_and_line(self, outdir, tmp_path, capsys,
                                                    line, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"env.name = pendulum\n{line}\n", encoding="utf-8")
        assert main(["synthesize", "--config", str(bad)]) == 1
        key = line.split(" = ")[0]
        assert capsys.readouterr().err == f"error: line 2: {key}: {message}\n"
        assert not (outdir / "runs").exists()

    @pytest.mark.parametrize("line,message", [
        ("train.init_std = nan", "init_std must be finite"),
        ("train.init_std = inf", "init_std must be finite"),
        ("robust.factors = 1.0, nan", "scale factors must be finite"),
        ("robust.jitter = inf", "robustness jitter must be finite"),
        ("env.dt = inf", "EnvParams.dt must be finite"),
        ("env.g = nan", "EnvParams.g must be finite"),
        ("cost.a = inf 0 0", "target a must be finite"),
        ("cost.K = nan, 1, 0.1", "state weights K must be finite"),
        ("cost.K = -1, 1, 0.1", "state weights K must be nonnegative"),
        ("cost.k = nan", "control weight k must be finite"),
        ("cost.k = -0.5", "control weight k must be nonnegative"),
        ("lqr.Q = nan 20", "state weights Q must be finite"),
        ("lqr.Q = 450 -1", "state weights Q must be nonnegative"),
        ("lqr.R = 0", "control weight R must be positive"),
        ("lqr.R = nan", "control weight R must be finite"),
        ("lqr.R = -inf", "control weight R must be finite"),
        ("lqr.b_scale = inf", "input scale b_scale must be finite"),
        ("policy.lambda = inf", "relevance weights lambda must be finite"),
        ("policy.lambda = 1 nan 1", "relevance weights lambda must be finite"),
        ("respond.magnitude = nan", "disturbance magnitude must be finite"),
        ("respond.magnitude = -inf", "disturbance magnitude must be finite"),
    ])
    @pytest.mark.parametrize("command", ["synthesize", "train"])
    def test_non_finite_and_design_values_name_the_key_and_line(
            self, outdir, tmp_path, capsys, line, message, command):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"env.name = pendulum\n{line}\n", encoding="utf-8")
        assert main([command, "--config", str(bad)]) == 1
        key = line.split(" = ")[0]
        assert capsys.readouterr().err == f"error: line 2: {key}: {message}\n"
        assert not (outdir / "runs").exists()

    def test_override_errors_keep_plain_message(self, tmp_path):
        path = write_config(tmp_path)  # sets train.iterations on line 6
        with pytest.raises(ConfigError, match=r"^train\.iterations: invalid literal"):
            load_run_config(path, {"train.iterations": "abc"})

    def test_env_override_recomputes_inertia(self):
        cfg = build_run_config({"env.name": "pendulum", "env.m": "2.0"})
        env = cfg.make_env()
        assert env.params.m == 2.0
        assert env.params.I == pytest.approx(2.0 / 3.0)


class TestParseFactors:
    def test_log_spaced_range(self):
        factors = _parse_factors("0.5:5.0:10")
        assert len(factors) == 10
        assert factors[0] == pytest.approx(0.5)
        assert factors[-1] == pytest.approx(5.0)
        ratios = np.diff(np.log(factors))
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)

    def test_comma_list(self):
        assert _parse_factors("0.5,1,2") == [0.5, 1.0, 2.0]

    def test_bad_range(self):
        with pytest.raises(ValueError):
            _parse_factors("0.5:5.0")


class TestSynthesize:
    def test_writes_artifacts(self, outdir, tmp_path, capsys):
        rc = main(["synthesize", "--config", write_config(tmp_path)])
        assert rc == 0
        out = outdir / "exp"
        for name in ("gain.csv", "riccati.csv", "linear_policy.txt",
                     "synthesis_report.txt"):
            assert (out / name).exists()
        report = (out / "synthesis_report.txt").read_text()
        assert "PASS" in report and "FAIL" not in report
        assert "config_hash=" in report
        pol = load_policy(out / "linear_policy.txt")
        assert pol.env_name == "pendulum"

    def test_unstabilizable_override_exits_one(self, outdir, tmp_path, capsys):
        rc = main(["synthesize", "--config",
                   write_config(tmp_path, "lqr.b_scale = 0.0\n")])
        assert rc == 1
        assert "stabilizable" in capsys.readouterr().err

    def test_reproducible_bytes(self, outdir, tmp_path):
        cfg = write_config(tmp_path)
        main(["synthesize", "--config", cfg])
        first = (outdir / "exp" / "gain.csv").read_bytes()
        main(["synthesize", "--config", cfg])
        assert (outdir / "exp" / "gain.csv").read_bytes() == first


class TestTrain:
    def test_hybrid_then_artifacts(self, outdir, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["synthesize", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--mode", "hybrid"]) == 0
        out = outdir / "exp"
        assert (out / "train_report.csv").exists()
        assert (out / "policy_hybrid_seed3.txt").exists()
        status = (out / "train_status.txt").read_text()
        # the tiny budget cannot reach swing-up; the run still exits 0 and
        # reports the outcome as a status field
        assert "status=target_not_reached" in status
        report = [l for l in (out / "train_report.csv").read_text().splitlines()
                  if not l.startswith("#")]
        assert report[0] == "iter,best_return,mean_return,sim_time_s"
        assert len(report) == 1 + 2  # header, one row per iteration

    def test_hybrid_report_bytes_reproducible(self, outdir, tmp_path):
        cfg = write_config(tmp_path)
        main(["synthesize", "--config", cfg])
        main(["train", "--config", cfg, "--mode", "hybrid"])
        first = (outdir / "exp" / "train_report.csv").read_bytes()
        main(["train", "--config", cfg, "--mode", "hybrid"])
        assert (outdir / "exp" / "train_report.csv").read_bytes() == first

    def test_baseline_needs_no_linear_file(self, outdir, tmp_path):
        rc = main(["train", "--config", write_config(tmp_path),
                   "--mode", "baseline"])
        assert rc == 0
        pol = load_policy(outdir / "exp" / "policy_baseline_seed3.txt")
        assert np.all(pol.linear.W == 0.0)

    def test_missing_linear_file_exits_one(self, outdir, tmp_path, capsys):
        rc = main(["train", "--config", write_config(tmp_path), "--mode", "hybrid",
                   "--linear", str(tmp_path / "missing.txt")])
        assert rc == 1


class TestRespond:
    @pytest.fixture()
    def linear_policy_file(self, outdir, tmp_path):
        cfg = write_config(tmp_path, "respond.horizon = 120\n")
        main(["synthesize", "--config", cfg])
        return cfg, str(outdir / "exp" / "linear_policy.txt")

    def test_impulse_artifacts(self, outdir, linear_policy_file, capsys):
        cfg, policy = linear_policy_file
        rc = main(["respond", "--config", cfg, "--policy", policy,
                   "--kind", "impulse"])
        assert rc == 0
        out = outdir / "exp"
        assert (out / "impulse_trajectory.csv").exists()
        assert (out / "impulse_metrics.csv").exists()
        assert (out / "impulse_response.svg").exists()
        assert "sse=" in capsys.readouterr().out
        header = (out / "impulse_metrics.csv").read_text().splitlines()
        assert any("magnitude=" in line for line in header if line.startswith("#"))

    def test_step_reproducible_bytes(self, outdir, linear_policy_file):
        cfg, policy = linear_policy_file
        main(["respond", "--config", cfg, "--policy", policy, "--kind", "step"])
        first = (outdir / "exp" / "step_trajectory.csv").read_bytes()
        main(["respond", "--config", cfg, "--policy", policy, "--kind", "step"])
        assert (outdir / "exp" / "step_trajectory.csv").read_bytes() == first

    def test_unknown_kind_is_usage_error(self, linear_policy_file):
        cfg, policy = linear_policy_file
        with pytest.raises(SystemExit) as err:
            main(["respond", "--config", cfg, "--policy", policy,
                  "--kind", "ramp"])
        assert err.value.code == 2

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_empty_horizon_flag_exits_one(self, outdir, linear_policy_file, capsys,
                                          horizon):
        cfg, policy = linear_policy_file
        capsys.readouterr()
        rc = main(["respond", "--config", cfg, "--policy", policy,
                   "--kind", "impulse", "--horizon", horizon, "--out", "fresh"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --horizon: response horizon must be at least 1\n")
        assert not (outdir / "fresh").exists()

    @pytest.mark.parametrize("magnitude", ["nan", "inf", "-inf"])
    def test_non_finite_magnitude_exits_one(self, outdir, tmp_path, linear_policy_file,
                                            capsys, magnitude):
        cfg, policy = linear_policy_file
        capsys.readouterr()
        rc = main(["respond", "--config", cfg, "--policy", policy,
                   "--kind", "impulse", f"--magnitude={magnitude}", "--out", "fresh"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --magnitude: disturbance magnitude must be finite\n")
        assert not (outdir / "fresh").exists()
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"env.name = pendulum\nrespond.magnitude = {magnitude}\n",
                       encoding="utf-8")
        rc = main(["respond", "--config", str(bad), "--policy", policy, "--kind", "step"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: line 2: respond.magnitude: disturbance magnitude must be finite\n")
        assert not (outdir / "runs").exists()

    def test_missing_policy_file_exits_one(self, outdir, tmp_path):
        rc = main(["respond", "--config", write_config(tmp_path),
                   "--policy", str(tmp_path / "nope.txt"), "--kind", "impulse"])
        assert rc == 1


class TestRobust:
    def test_sweep_artifacts_and_bytes(self, outdir, tmp_path):
        cfg = write_config(tmp_path, "robust.horizon = 40\nrobust.seeds = 2\n")
        main(["synthesize", "--config", cfg])
        policy = str(outdir / "exp" / "linear_policy.txt")
        rc = main(["robust", "--config", cfg, "--policy", policy,
                   "--param", "mass", "--factors", "0.5,1,2"])
        assert rc == 0
        out = outdir / "exp"
        assert (out / "robust_mass.csv").exists()
        assert (out / "robust_mass.svg").exists()
        first = (out / "robust_mass.csv").read_bytes()
        main(["robust", "--config", cfg, "--policy", policy,
              "--param", "mass", "--factors", "0.5,1,2"])
        assert (out / "robust_mass.csv").read_bytes() == first
        lines = first.decode().splitlines()
        assert lines[-4] == "factor,mean_reward,std_reward"
        assert len(lines[-3:]) == 3

    def test_factor_out_of_range_fails(self, outdir, tmp_path, capsys):
        cfg = write_config(tmp_path, "robust.seeds = 2\n")
        main(["synthesize", "--config", cfg])
        policy = str(outdir / "exp" / "linear_policy.txt")
        rc = main(["robust", "--config", cfg, "--policy", policy,
                   "--param", "g", "--factors", "1,9"])
        assert rc == 1

    @pytest.mark.parametrize("line,message", [
        ("robust.horizon = 0", "horizon must be at least 1"),
        ("robust.jitter = -0.01", "jitter must be nonnegative"),
    ])
    def test_invalid_robust_values_fail(self, outdir, tmp_path, capsys, line, message):
        cfg = write_config(tmp_path, f"robust.seeds = 2\n{line}\n")
        main(["synthesize", "--config", cfg])
        policy = str(outdir / "exp" / "linear_policy.txt")
        capsys.readouterr()
        rc = main(["robust", "--config", cfg, "--policy", policy, "--param", "g"])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (outdir / "exp" / "robust_g.csv").exists()

    def test_bad_param_is_usage_error(self, outdir, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["robust", "--config", cfg, "--policy", "x", "--param", "length"])
        assert err.value.code == 2


class TestVerify:
    def test_fresh_policy_passes(self, outdir, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["synthesize", "--config", cfg])
        rc = main(["verify", "--policy",
                   str(outdir / "exp" / "linear_policy.txt")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS pi_at_a_equals_linear" in out
        assert "FAIL" not in out

    def test_nonpositive_lambda_fails_before_checks(self, tmp_path, outdir, capsys):
        cfg = write_config(tmp_path)
        main(["synthesize", "--config", cfg])
        path = outdir / "exp" / "linear_policy.txt"
        text = path.read_text()
        lines = text.splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("lambda "))
        lines[idx + 1] = "-1.0 1.0 1.0"
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines), encoding="utf-8")
        rc = main(["verify", "--policy", str(bad)])
        assert rc == 1
        assert "positive" in capsys.readouterr().err

    def test_corrupted_weight_fails(self, tmp_path, outdir, capsys):
        cfg = write_config(tmp_path)
        main(["synthesize", "--config", cfg])
        path = outdir / "exp" / "linear_policy.txt"
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("W "))
        lines[idx + 1] = "nan 1.0 1.0"
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines), encoding="utf-8")
        assert main(["verify", "--policy", str(bad)]) == 1

    def test_truncated_file_fails(self, tmp_path, outdir, capsys):
        cfg = write_config(tmp_path)
        main(["synthesize", "--config", cfg])
        text = (outdir / "exp" / "linear_policy.txt").read_text()
        bad = tmp_path / "cut.txt"
        bad.write_text("\n".join(text.splitlines()[:6]), encoding="utf-8")
        assert main(["verify", "--policy", str(bad)]) == 1
        assert "line" in capsys.readouterr().err

    def test_version_mismatch_fails(self, tmp_path, outdir, capsys):
        cfg = write_config(tmp_path)
        main(["synthesize", "--config", cfg])
        text = (outdir / "exp" / "linear_policy.txt").read_text()
        bad = tmp_path / "vers.txt"
        bad.write_text(text.replace("hybrid-policy-v1", "hybrid-policy-v2", 1),
                       encoding="utf-8")
        assert main(["verify", "--policy", str(bad)]) == 1
        assert "version" in capsys.readouterr().err


class TestUsage:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestAllEnvironments:
    @pytest.mark.parametrize("env_name", ["pendulum", "cartpole", "mountaincar"])
    def test_synthesize_and_verify_each_env(self, outdir, tmp_path, env_name):
        cfg = tmp_path / f"{env_name}.cfg"
        cfg.write_text(f"env.name = {env_name}\nout_dir = {env_name}\nseed = 0\n",
                       encoding="utf-8")
        assert main(["synthesize", "--config", str(cfg)]) == 0
        report = (outdir / env_name / "synthesis_report.txt").read_text()
        assert "FAIL" not in report
        policy = str(outdir / env_name / "linear_policy.txt")
        assert main(["verify", "--policy", policy]) == 0
        assert load_policy(policy).env_name == env_name

    @pytest.mark.parametrize("env_name", ["cartpole", "mountaincar"])
    def test_respond_other_envs(self, outdir, tmp_path, env_name):
        cfg = tmp_path / f"{env_name}.cfg"
        cfg.write_text(f"env.name = {env_name}\nout_dir = {env_name}\nseed = 0\n"
                       "respond.horizon = 200\n", encoding="utf-8")
        main(["synthesize", "--config", str(cfg)])
        rc = main(["respond", "--config", str(cfg),
                   "--policy", str(outdir / env_name / "linear_policy.txt"),
                   "--kind", "impulse"])
        assert rc == 0
        assert (outdir / env_name / "impulse_metrics.csv").exists()
