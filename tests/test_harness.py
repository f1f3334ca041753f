import copy
import hashlib
import inspect
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from cellpower import agent as ag
from cellpower import baselines, harness
from cellpower.agent import METHODS, AgentConfig
from cellpower.baselines import DIAGNOSTICS, GAConfig, ga_optimize, max_power_baseline, wmmse
from cellpower.cli import main as cli_main
from cellpower.env import PowerControlEnv
from cellpower.harness import (
    CONFIG_KEYS,
    ExperimentSpec,
    build_env,
    config_hash,
    csv_text,
    load_network,
    network_sizes,
    normalized_throughput,
    parse_kv_file,
    results_csv,
    run_experiment,
    scenario_preset,
    spec_from_file,
    spec_from_values,
)
from cellpower.netmodel import ConfigError, ScenarioConfig
from cellpower.qnet import MLP, load_checkpoint, save_checkpoint

from conftest import agent_optimizer, tiny_config


def record(dql=1.0, ga=1.0, wm=1.0, mx=1.0, rnd=1.0, seed=0):
    """One sample of a test phase: its seed, action, throughputs and solver
    diagnostics."""
    return {"channel_seed": seed, "dql_action": (0,),
            **{f"{m}_bps": v for m, v in zip(ag.METHODS, (dql, ga, wm, mx, rnd))},
            **dict(zip(DIAGNOSTICS, (3, 17, True)))}


def phase(*records):
    """The records as the per-sample columns that agent.test returns."""
    return {key: [r[key] for r in records] for key in record()}


def csv_columns(text):
    """A CSV as its header's columns, each the list of its field strings."""
    header, *rows = (line.split(",") for line in text.splitlines())
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def read_results(out_dir):
    """The columns of the results.csv in `out_dir`."""
    with open(os.path.join(out_dir, "results.csv")) as f:
        return csv_columns(f.read())


def small_spec(out_dir, train_steps=0, n_samples=3, seed=5) -> ExperimentSpec:
    return ExperimentSpec(
        scenario="custom",
        config=tiny_config(users_per_cell=2),
        agent=AgentConfig(train_steps=train_steps, batch_size=8, train_start=8,
                          target_update_steps=50, epsilon_anneal_steps=100),
        ga=GAConfig(population_size=10, generations=8),
        n_test_samples=n_samples,
        master_seed=seed,
        output_dir=str(out_dir),
    )


class TestNormalizedThroughput:
    def test_identical_to_ga_gives_mean_one(self):
        _, report = normalized_throughput(phase(*(record(dql=5.0, ga=5.0, seed=i)
                                                  for i in range(4))))
        assert report.mean["dql"] == pytest.approx(1.0)
        assert report.mean["ga"] == 1.0

    def test_two_record_arithmetic(self):
        _, report = normalized_throughput(phase(record(dql=0.9, ga=1.0, seed=0),
                                                record(dql=1.1, ga=1.0, seed=1)))
        assert report.mean["dql"] == pytest.approx(1.0)

    def test_zero_ga_record_excluded_with_warning(self):
        with pytest.warns(UserWarning, match="channel seed 1 "):
            records = phase(record(seed=0), record(ga=0.0, seed=1))
            ratios, report = normalized_throughput(records)
        assert report.excluded == 1
        norm = csv_columns(results_csv(records, ratios))["dql_norm"]
        assert [v for v in norm if v != "nan"] == ["1.0"]

    def test_empty_records_give_empty_report(self):
        ratios, report = normalized_throughput(phase())
        assert ratios == {m: [] for m in METHODS}
        assert len(results_csv(phase(), ratios).splitlines()) == 1
        assert all(np.isnan(report.mean[m]) for m in METHODS)
        assert report.excluded == 0

    def test_results_csv_columns(self):
        records = phase(record(dql=2.0, ga=4.0, wm=3.0, mx=1.0, rnd=1.0, seed=9))
        text = results_csv(records, normalized_throughput(records)[0])
        assert text.split("\n") == [
            "sample,channel_seed,dql_action,dql_bps,ga_bps,wmmse_bps,maxpower_bps,"
            "random_bps,dql_norm,wmmse_norm,maxpower_norm,random_norm,"
            "ga_best_generation,wmmse_iterations,wmmse_converged",
            "0,9,0,2.0,4.0,3.0,1.0,1.0,0.5,0.75,0.25,0.25,3,17,True", ""]

    def test_csv_text_needs_equal_length_columns(self):
        assert csv_text({"a": [], "b": []}) == "a,b\n"
        with pytest.raises(ValueError):
            csv_text({"a": [1, 2], "b": [3]})
        short = phase(record(seed=1), record(seed=2))
        ratios, _ = normalized_throughput(short)
        short["channel_seed"].pop()
        with pytest.raises(ValueError):
            results_csv(short, ratios)


class TestPresets:
    def test_preset_cell_counts(self):
        assert scenario_preset("scenario1").num_cells == 5
        assert scenario_preset("scenario2").num_cells == 10
        assert scenario_preset("scenario3").num_cells == 15

    def test_preset_shares_reference_constants(self):
        cfg = scenario_preset("scenario2")
        assert cfg.users_per_cell == 5
        assert cfg.num_subbands == 3
        assert cfg.power_levels == (6.4, 9.6, 12.8, 16.0, 19.2)
        assert cfg.max_power == 40.0
        assert cfg.subband_bandwidth_hz == 2.88e6
        assert cfg.cell_radius == 500.0
        assert cfg.noise_density == -174.0

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            scenario_preset("scenario9")


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# reduced build\n"
            "scenario = custom\n"
            "num_cells = 3\n"
            "users_per_cell = 3\n"
            "num_subbands = 2\n"
            "power_levels = 6.4, 12.8, 19.2\n"
            "max_power = 40.0\n"
            "train_steps = 1234\n"
            "learning_rate = 0.001\n"
            "ga_population_size = 33\n"
            "n_test_samples = 7\n"
            "master_seed = 99\n")
        spec = spec_from_file(path)
        assert spec.config.num_cells == 3
        assert spec.config.power_levels == (6.4, 12.8, 19.2)
        assert spec.agent.train_steps == 1234
        assert spec.agent.learning_rate == 0.001
        assert spec.ga.population_size == 33
        assert spec.n_test_samples == 7
        assert spec.master_seed == 99

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("frobnicate = 3\n")
        with pytest.raises(ConfigError):
            spec_from_file(path)

    def test_rng_seed_is_not_a_key(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("scenario = scenario1\nrng_seed = 5\n")
        with pytest.raises(ConfigError, match="unknown config key 'rng_seed'"):
            spec_from_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigError):
            parse_kv_file(path)

    def test_single_power_level(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "scenario = custom\n"
            "num_cells = 2\nusers_per_cell = 2\nnum_subbands = 2\n"
            "power_levels = 12.8\nmax_power = 40.0\n")    # 2 x 12.8 W fits
        spec = spec_from_file(path)
        assert spec.config.power_levels == (12.8,)
        assert len(PowerControlEnv(spec.config).actions) == 1

    def test_zero_max_episode_steps_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("scenario = scenario1\nmax_episode_steps = 0\n")
        with pytest.raises(ConfigError, match="max_episode_steps"):
            spec_from_file(path)

    def test_missing_scenario_key_means_scenario1(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("num_cells = 3\n")
        spec = spec_from_file(path)
        assert spec.scenario == ExperimentSpec().scenario == "scenario1"
        assert spec.config.num_cells == 3

    def test_cli_override_beats_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("scenario = scenario1\nmaster_seed = 1\n")
        spec = spec_from_file(path, master_seed=42)
        assert spec.master_seed == 42


class TestConfigHash:
    def test_hash_changes_with_any_field(self, tmp_path):
        spec = small_spec(tmp_path)
        h0 = config_hash(spec)
        other = copy.deepcopy(spec)
        other.agent.learning_rate *= 2
        assert config_hash(other) != h0
        other = copy.deepcopy(spec)
        other.master_seed += 1
        assert config_hash(other) != h0
        assert config_hash(copy.deepcopy(spec)) == h0

    def test_checkpoint_run_hashes_the_network_not_ignored_keys(self, tmp_path):
        # a checkpoint run evaluates the file's network and never trains, so
        # its hash follows the checkpoint's bytes and not train_steps or
        # checkpoint_interval
        paths = []
        for steps in (40, 80):
            trained = small_spec(tmp_path / f"train{steps}", train_steps=steps,
                                 n_samples=0)
            run_experiment(trained)
            paths.append(os.path.join(trained.output_dir, "qnet.ckpt"))

        def hashed(path, train_steps, interval=None):
            spec = small_spec(tmp_path / "eval", train_steps=train_steps)
            spec.checkpoint, spec.checkpoint_interval = path, interval
            return config_hash(spec)

        assert hashed(paths[0], 100) != hashed(paths[1], 100)
        assert hashed(paths[0], 100) == hashed(paths[0], 200) == hashed(paths[0], 100, 50)
        # a training run still hashes both keys
        spec = small_spec(tmp_path / "train", train_steps=100)
        h0 = config_hash(spec)
        spec.agent.train_steps = 200
        assert config_hash(spec) != h0
        spec.checkpoint_interval = 50
        assert config_hash(spec) not in {h0, hashed(paths[0], 200)}

    def test_checkpoint_run_hashes_no_agent_key_but_hidden_size(self, tmp_path):
        # the optimizer constants come from the checkpoint and the run never
        # trains; load_network checks hidden_size against the file
        path = tmp_path / "net.ckpt"
        path.write_bytes(b"any network")
        spec = small_spec(tmp_path / "eval")
        spec.checkpoint = str(path)
        h0 = config_hash(spec)
        for key, value in (("learning_rate", 2 * spec.agent.learning_rate),
                           ("epsilon_end", 0.3)):
            other = copy.deepcopy(spec)
            setattr(other.agent, key, value)
            assert config_hash(other) == h0, key
        other = copy.deepcopy(spec)
        other.agent.hidden_size = 7
        assert config_hash(other) != h0


    def test_checkpoint_hashed_without_hashlib_file_digest(self, tmp_path, monkeypatch):
        # Python 3.10 has no hashlib.file_digest: a checkpoint run hashes
        # the file as before without it, and reads every block of a file
        # larger than one
        trained = small_spec(tmp_path / "train", train_steps=40, n_samples=0)
        run_experiment(trained)
        spec = small_spec(tmp_path / "eval", n_samples=2)
        spec.checkpoint = os.path.join(trained.output_dir, "qnet.ckpt")
        h0 = config_hash(spec)
        monkeypatch.delattr(hashlib, "file_digest", raising=False)
        assert config_hash(spec) == h0
        run_experiment(spec)
        with open(os.path.join(spec.output_dir, "report.json")) as f:
            assert json.load(f)["metadata"]["config_hash"] == h0
        big = bytearray(3 * 2 ** 20 + 7)
        spec.checkpoint = str(tmp_path / "big.ckpt")
        (tmp_path / "big.ckpt").write_bytes(big)
        h1 = config_hash(spec)
        big[-1] = 1
        (tmp_path / "big.ckpt").write_bytes(big)
        assert config_hash(spec) != h1


class TestRunExperiment:
    def test_artifacts_and_metadata(self, tmp_path):
        spec = small_spec(tmp_path / "run")
        report = run_experiment(spec)
        for name in ("results.csv", "report.json", "qnet.ckpt", "actions.csv"):
            assert os.path.exists(os.path.join(spec.output_dir, name))
        assert report.metadata["actions_per_cell"] == 9
        assert len(read_results(spec.output_dir)["dql_norm"]) == 3
        on_disk = json.loads(
            Path(spec.output_dir, "report.json").read_text())
        assert on_disk["mean"]["ga"] == 1.0

    def test_policy_margins_recomputed_from_per_sample(self, tmp_path):
        spec = small_spec(tmp_path / "run", train_steps=40)
        run_experiment(spec)
        report = json.loads(
            Path(spec.output_dir, "report.json").read_text())
        columns, meta = read_results(spec.output_dir), report["metadata"]
        dql = np.mean([float(v) for v in columns["dql_norm"]])
        for other in ("random", "maxpower"):
            assert meta[f"dql_margin_over_{other}"] == pytest.approx(
                dql / np.mean([float(v) for v in columns[f"{other}_norm"]]) - 1.0,
                rel=1e-12)
        assert "margin" not in (tmp_path / "run" / "results.csv").read_text()

    def test_report_json_summarizes_results_csv(self, tmp_path, monkeypatch):
        # each per-sample value is stored once, in results.csv; report.json's
        # means and margins are those of its ratio columns over the samples
        # with positive GA throughput
        calls, ga_optimize_ = [], baselines.ga_optimize

        def second_sample_zero(*args, **kwargs):
            calls.append(1)
            power, util, generation = ga_optimize_(*args, **kwargs)
            return power, 0.0 if len(calls) == 2 else util, generation

        monkeypatch.setattr(baselines, "ga_optimize", second_sample_zero)
        spec = small_spec(tmp_path / "run", train_steps=40, n_samples=4)
        with pytest.warns(UserWarning, match="non-positive GA"):
            run_experiment(spec)
        report = json.loads(
            Path(spec.output_dir, "report.json").read_text())
        assert "per_sample" not in report
        assert not set(DIAGNOSTICS) & (set(report) | set(report["metadata"]))
        columns = read_results(spec.output_dir)
        kept = [float(g) > 0.0 for g in columns["ga_bps"]]
        assert kept == [True, False, True, True]
        assert report["excluded"] == 1
        assert all(columns[f"{m}_norm"][1] == "nan" for m in METHODS if m != "ga")
        mean = {m: np.mean([float(v) for v, keep in zip(columns[f"{m}_norm"], kept) if keep])
                for m in METHODS if m != "ga"}
        assert report["mean"] == pytest.approx({**mean, "ga": 1.0}, rel=1e-12)
        for other in ("random", "maxpower"):
            assert report["metadata"][f"dql_margin_over_{other}"] == pytest.approx(
                mean["dql"] / mean[other] - 1.0, rel=1e-12)

    def test_policy_margins_nan_without_samples(self, tmp_path):
        report = run_experiment(small_spec(tmp_path / "run", n_samples=0))
        assert np.isnan(report.metadata["dql_margin_over_random"])
        assert np.isnan(report.metadata["dql_margin_over_maxpower"])

    def test_report_json_is_strict_without_samples(self, tmp_path):
        # the non-finite means and margins of a run without test samples
        # are written as null, which every JSON parser accepts
        spec = small_spec(tmp_path / "run", train_steps=40, n_samples=0)
        report = run_experiment(spec)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = Path(spec.output_dir, "report.json").read_text()
        on_disk = json.loads(text, parse_constant=reject)
        assert all(np.isnan(v) for v in report.mean.values())
        assert on_disk["mean"] == {m: None for m in report.mean}
        for name in ("dql_margin_over_random", "dql_margin_over_maxpower"):
            assert on_disk["metadata"][name] is None
        assert on_disk["metadata"]["gradient_steps"] == 33

    def test_empty_phase_writes_header_and_empty_diagnostics(self, tmp_path):
        # the test phase of every `cellpower train` run
        spec = small_spec(tmp_path / "run", train_steps=40, n_samples=0)
        run_experiment(spec)
        assert Path(spec.output_dir, "results.csv").read_text() == (
            "sample,channel_seed,dql_action,dql_bps,ga_bps,wmmse_bps,maxpower_bps,"
            "random_bps,dql_norm,wmmse_norm,maxpower_norm,random_norm,"
            "ga_best_generation,wmmse_iterations,wmmse_converged\n")
        meta = json.loads(
            Path(spec.output_dir, "report.json").read_text())["metadata"]
        for name in ("ga_best_generation", "wmmse_iterations", "wmmse_converged"):
            assert name not in meta

    def test_failed_test_phase_keeps_the_trained_network(self, tmp_path, monkeypatch):
        done = small_spec(tmp_path / "done", train_steps=120, n_samples=0)
        run_experiment(done)
        expected, _ = load_checkpoint(os.path.join(done.output_dir, "qnet.ckpt"))

        def fail(*args, **kwargs):
            raise RuntimeError("solver failed")

        monkeypatch.setattr(baselines, "score", fail)
        spec = small_spec(tmp_path / "run", train_steps=120)
        with pytest.raises(RuntimeError, match="solver failed"):
            run_experiment(spec)
        assert os.path.exists(os.path.join(spec.output_dir, "training_log.csv"))
        kept, _ = load_checkpoint(os.path.join(spec.output_dir, "qnet.ckpt"))
        assert np.array_equal(kept.flat, expected.flat)
        initial = MLP.init(kept.layer_sizes, np.random.default_rng([spec.master_seed, 10]))
        assert not np.array_equal(kept.flat, initial.flat)

    def test_checkpoint_replaced_atomically(self, tmp_path, monkeypatch):
        # a checkpoint run into its own checkpoint's directory rewrites the
        # file it read; a save that fails midway leaves the old bytes
        done = small_spec(tmp_path / "run", train_steps=40, n_samples=0)
        run_experiment(done)
        path = Path(done.output_dir, "qnet.ckpt")
        trained = path.read_bytes()
        spec = small_spec(tmp_path / "run", n_samples=1)
        spec.checkpoint = str(path)

        def fail_midway(target, mlp, opt):
            with open(target, "wb") as f:
                f.write(trained[:8])
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(harness, "save_checkpoint", fail_midway)
            with pytest.raises(OSError, match="disk full"):
                run_experiment(spec)
        assert path.read_bytes() == trained
        assert not list(Path(spec.output_dir).glob("*.tmp"))
        run_experiment(spec)
        assert path.read_bytes() == trained

    def test_every_checkpoint_written_through_a_temporary_file(self, tmp_path, monkeypatch):
        saved = []

        def recorded(target, mlp, opt):
            saved.append(os.path.basename(target))
            save_checkpoint(target, mlp, opt)

        monkeypatch.setattr(harness, "save_checkpoint", recorded)
        spec = small_spec(tmp_path / "run", train_steps=40, n_samples=0)
        spec.checkpoint_interval = 20
        run_experiment(spec)
        names = ["qnet_step20.ckpt", "qnet_step40.ckpt", "qnet.ckpt"]
        assert saved == [f"{name}.tmp" for name in names]
        assert sorted(p.name for p in Path(spec.output_dir).glob("*.ckpt*")) == sorted(names)

    def test_target_rows_evaluated_in_metadata_only(self, tmp_path):
        spec = small_spec(tmp_path / "run", train_steps=120, n_samples=0)
        report = run_experiment(spec)
        rows = report.metadata["target_rows_evaluated"]
        # the cache is hit: fewer rows than the batches drew, but some
        assert 0 < rows < report.metadata["gradient_steps"] * spec.agent.batch_size
        on_disk = json.loads(
            Path(spec.output_dir, "report.json").read_text())
        assert on_disk["metadata"]["target_rows_evaluated"] == rows
        for name in ("results.csv", "training_log.csv"):
            assert "target" not in Path(spec.output_dir, name).read_text()

    def test_wmmse_diagnostics_per_sample(self, tmp_path):
        spec = small_spec(tmp_path / "run")
        run_experiment(spec)
        columns = read_results(spec.output_dir)
        env = PowerControlEnv(spec.config)
        assert all(len(columns[name]) == 3 for name in DIAGNOSTICS)
        for i, seed in enumerate(int(s) for s in columns["channel_seed"]):
            ctx, _ = env.reset(np.random.default_rng([seed, 0]))
            res = wmmse(ctx.channel, spec.config.max_power)
            assert int(columns["wmmse_iterations"][i]) == res.iterations
            assert type(res.converged) is bool
            assert columns["wmmse_converged"][i] == str(res.converged)
            _, _, generation = ga_optimize(ctx.channel, spec.config, spec.ga,
                                           np.random.default_rng([seed, 1]))
            assert int(columns["ga_best_generation"][i]) == generation

    def test_reference_scenario_dimensions_in_metadata(self, tmp_path):
        spec = small_spec(tmp_path / "run", n_samples=1)
        spec.scenario = "scenario1"
        spec.config = scenario_preset("scenario1")
        report = run_experiment(spec)
        assert report.metadata["state_size"] == 100
        assert report.metadata["num_actions"] == 360
        assert report.metadata["hidden_size"] == 720
        assert report.metadata["actions_per_cell"] == 72

    def test_byte_identical_reruns(self, tmp_path):
        spec_a = small_spec(tmp_path / "a", train_steps=300)
        spec_b = small_spec(tmp_path / "b", train_steps=300)
        report_a = run_experiment(spec_a)
        report_b = run_experiment(spec_b)
        assert (report_a.metadata["target_rows_evaluated"]
                == report_b.metadata["target_rows_evaluated"] > 0)
        for name in ("results.csv", "training_log.csv", "qnet.ckpt"):
            a = Path(spec_a.output_dir, name).read_bytes()
            b = Path(spec_b.output_dir, name).read_bytes()
            assert a == b, name

    def test_training_writes_log(self, tmp_path):
        spec = small_spec(tmp_path / "run", train_steps=120)
        run_experiment(spec)
        log = Path(spec.output_dir, "training_log.csv").read_text()
        header, *rows = log.strip().split("\n")
        assert header == ("step,episode,epsilon,loss,length,throughput_bps,"
                          "q_mean,q_max,gradient_steps,buffer_fill")
        assert rows
        assert int(rows[-1].split(",")[0]) == 120

    def test_network_trains_and_is_saved_in_float32(self, tmp_path):
        spec = small_spec(tmp_path / "run", train_steps=120, n_samples=0)
        run_experiment(spec)
        path = os.path.join(spec.output_dir, "qnet.ckpt")
        assert Path(path).read_bytes()[:8] == b"CPQNET2\n"
        mlp, opt = load_checkpoint(path)
        assert mlp.flat.dtype == opt.acc.dtype == np.float32
        assert np.any(opt.acc > 0.0)

    def test_training_log_columns_match_report(self, tmp_path, monkeypatch):
        returned, train = [], ag.train

        def recorded(*args, **kwargs):
            returned.append(train(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(ag, "train", recorded)
        spec = small_spec(tmp_path / "run", train_steps=120, n_samples=0)
        run_experiment(spec)
        [(log, _)] = returned
        episodes = len(log["episode"])
        assert list(log) == list(ag.TRAINING_LOG)
        assert all(len(log[name]) == episodes for name in ag.TRAINING_LOG)
        meta = json.loads(
            Path(spec.output_dir, "report.json").read_text())["metadata"]
        assert meta["gradient_steps"] == log["gradient_steps"][-1]
        assert meta["episodes"] == episodes
        # the columns that perfbench/checks.py reads from training_log.csv
        assert {"step", "episode", "loss", "length"} <= set(ag.TRAINING_LOG)

    def test_interval_checkpoints_written(self, tmp_path):
        spec = small_spec(tmp_path / "run", train_steps=100)
        spec.checkpoint_interval = 50
        run_experiment(spec)
        sizes = network_sizes(spec, build_env(spec))
        for step in (50, 100):
            path = os.path.join(spec.output_dir, f"qnet_step{step}.ckpt")
            assert os.path.exists(path)
            loaded, _ = load_network(path, sizes)
            assert loaded.layer_sizes[0] == 2 * 2 * 3

    def test_untrained_matches_random_policy_protocol(self, tmp_path):
        # with a zero training budget the greedy policy is arbitrary, so its
        # episodic protocol should score like a random policy's
        spec = small_spec(tmp_path / "run", n_samples=25, seed=202)
        report = run_experiment(spec)
        env = PowerControlEnv(spec.config)

        def random_rollout(rng):
            from cellpower.netmodel import network_utility
            ctx, _ = env.reset(rng)
            best = network_utility(ctx.current_power, ctx.channel)
            while not ctx.terminal:
                action = rng.integers(0, len(env.actions), size=2)
                _, _, terminal, thr = env.step(ctx, action)
                if not terminal:
                    best = thr
            return ctx, best

        seeds = np.random.default_rng(77).integers(0, 2 ** 63 - 1, size=25)
        ratios = []
        for s in (int(v) for v in seeds):
            ctx, best = random_rollout(np.random.default_rng([s, 0]))
            _, ga_util, _ = ga_optimize(ctx.channel, spec.config, spec.ga,
                                        np.random.default_rng([s, 1]))
            ratios.append(best / ga_util)
        assert abs(report.mean["dql"] - float(np.mean(ratios))) < 0.05


class TestPerSampleFairness:
    def test_every_method_saw_the_recorded_channel(self, tmp_path):
        """The channel seed in each record reproduces the realization each
        baseline was scored on."""
        from cellpower.baselines import random_power_baseline
        from cellpower.netmodel import build_topology, draw_channel, network_utility

        spec = small_spec(tmp_path / "run")
        env = PowerControlEnv(spec.config)
        mlp = MLP.init((env.state_size, 8, env.num_actions),
                       np.random.default_rng(0))
        test_phase = ag.test(env, mlp, 4, seed=55, ga_config=spec.ga,
                             max_power_level=spec.max_power_level)
        assert len(test_phase["channel_seed"]) == 4
        for seed, maxpower_bps, random_bps in zip(test_phase["channel_seed"],
                                                  test_phase["maxpower_bps"],
                                                  test_phase["random_bps"], strict=True):
            rng = np.random.default_rng([seed, 0])
            dist = build_topology(spec.config, rng)
            channel = draw_channel(dist, spec.config, rng)
            maxp = max_power_baseline(spec.config, spec.max_power_level)
            assert maxpower_bps == pytest.approx(
                network_utility(maxp, channel), rel=1e-12)
            rand = random_power_baseline(env.actions, 2,
                                         np.random.default_rng([seed, 2]))
            assert random_bps == pytest.approx(
                network_utility(rand, channel), rel=1e-12)

    def test_report_means_are_arithmetic_means(self):
        records = phase(record(dql=0.5, seed=0), record(dql=0.7, seed=1),
                        record(dql=1.2, seed=2))
        ratios, report = normalized_throughput(records)
        norm = csv_columns(results_csv(records, ratios))["dql_norm"]
        assert report.mean["dql"] == pytest.approx(sum(float(v) for v in norm) / 3)


class TestCheckpointing:
    def test_size_mismatch_rejected(self, tmp_path, rng):
        mlp = MLP.init((200, 1440, 720), rng)     # scenario-2 shaped network
        path = tmp_path / "s2.ckpt"
        save_checkpoint(path, mlp, agent_optimizer(mlp, AgentConfig()))
        with pytest.raises(ConfigError):
            load_network(path, expected_sizes=(100, 720, 360))
        loaded, _ = load_network(path, expected_sizes=(200, 1440, 720))
        assert loaded.layer_sizes == (200, 1440, 720)


TINY_CFG = ("scenario = custom\n"
            "num_cells = 2\nusers_per_cell = 2\nnum_subbands = 2\n"
            "power_levels = 6.4, 12.8, 19.2\nmax_power = 40.0\n"
            "train_steps = 0\nn_test_samples = 3\n"
            "ga_population_size = 8\nga_generations = 5\n")


def tiny_cfg_with(text):
    """TINY_CFG with the lines of `text` in place of its own lines for the
    same keys, so that no key is set twice unless `text` sets it twice."""
    keys = {line.partition("=")[0].strip() for line in text.splitlines()}
    kept = [line for line in TINY_CFG.splitlines()
            if line.partition("=")[0].strip() not in keys]
    return "\n".join(kept + text.splitlines()) + "\n"


class TestNegativeSizes:
    def test_negative_samples_rejected_by_spec(self):
        with pytest.raises(ConfigError, match="n_test_samples"):
            ExperimentSpec(n_test_samples=-1)

    def test_negative_samples_in_config_file_rejected(self, tmp_path):
        cfg_file = tmp_path / "neg.cfg"
        cfg_file.write_text(TINY_CFG.replace("n_test_samples = 3",
                                             "n_test_samples = -3"))
        with pytest.raises(ConfigError, match="n_test_samples"):
            spec_from_file(cfg_file)

    @pytest.mark.parametrize("argv, key", [
        (["compare", "--samples", "-1"], "n_test_samples"),
        (["compare", "--steps", "-5"], "train_steps"),
        (["train", "--steps", "-5"], "train_steps"),
        (["train", "--samples", "-1"], "n_test_samples"),
        (["baseline", "maxpower", "--samples", "-1"], "n_test_samples"),
        (["train", "--steps", "5"], "train_start"),     # below the default 1000
    ])
    def test_cli_names_the_key(self, capsys, tmp_path, argv, key):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(TINY_CFG)
        writes = argv[0] != "baseline"     # baseline takes no --out
        out = ["--out", str(tmp_path / "out")] if writes else []
        code = cli_main(argv + ["--config", str(cfg_file)] + out)
        assert code == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, key", [
        ("hidden_size = 0", "hidden_size"),
        ("hidden_size = -4", "hidden_size"),
        ("max_power_level = 25.0", "max_power_level"),   # 2 x 25 W > 40 W
        ("num_cells = 2.5", "num_cells"),
        ("batch_size = abc", "batch_size"),
        ("power_levels = abc", "power_levels"),
        ("power_levels = 6.4, abc", "power_levels"),
        ("n_test_samples = 2.5", "n_test_samples"),
        ("hidden_size = 2.5", "hidden_size"),
        ("learning_rate = -1", "learning_rate"),
        ("rmsprop_decay = 1.5", "rmsprop_decay"),
        ("ga_generations = -1", "ga_generations"),
        ("subband_bandwidth_hz = 0", "subband_bandwidth_hz"),
        ("shadowing_sigma = -1", "shadowing_sigma"),
        ("train_every = 0", "train_every"),
        ("rmsprop_epsilon = 0", "rmsprop_epsilon"),
        ("rmsprop_epsilon = -1", "rmsprop_epsilon"),
        ("epsilon_anneal_steps = -5", "epsilon_anneal_steps"),
        ("checkpoint_interval = -100", "checkpoint_interval"),
        ("checkpoint_interval = 0", "checkpoint_interval"),
        ("max_power_level = nan", "max_power_level"),
        ("max_power_level = -6.4", "max_power_level"),
        ("max_power_level = 0", "max_power_level"),
        ("master_seed = -3", "master_seed"),
        ("noise_density = nan", "noise_density"),
        ("cell_radius = inf", "cell_radius"),
        ("train_start = -5", "train_start"),
        ("learning_rate = inf", "learning_rate"),
        ("terminal_reward = nan", "terminal_reward"),
        ("power_levels = -1, 2", "power_levels"),
        # the bound is ga_population_size, but the fault is ga_elite_count's
        ("ga_elite_count = -1", "ga_elite_count must be in [0, 8)"),
        ("num_cells = 3\nnum_cells = 4", "exp.cfg:11: num_cells already set on line 10"),
    ])
    def test_config_file_key_named_before_any_output(self, capsys, tmp_path,
                                                      line, key):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(tiny_cfg_with(line))
        code = cli_main(["compare", "--config", str(cfg_file),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", [key for key, (_, _, annotation) in CONFIG_KEYS.items()
                                     if annotation in (float, tuple[float, ...])])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected(self, tmp_path, key, value):
        # a float key added without an interval fails here
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(tiny_cfg_with(f"{key} = {value}"))
        with pytest.raises(ConfigError, match=f"^{key} "):
            spec_from_file(cfg_file)

    @pytest.mark.parametrize("key, value", [
        ("discount", 1), ("rmsprop_decay", 0), ("epsilon_end", 0),
        ("shadowing_sigma", 0), ("ga_elite_count", 0), ("train_start", 0)])
    def test_closed_interval_end_accepted(self, key, value):
        spec_from_values({key: value})

    @pytest.mark.parametrize("key, value, interval", [
        ("discount", 0, "(0, 1]"), ("rmsprop_decay", 1, "[0, 1)"),
        ("target_ber", 0.2, "(0, 0.2)"),
        ("min_user_distance", ScenarioConfig.cell_radius, "(0, 500.0)")])
    def test_open_interval_end_rejected(self, key, value, interval):
        with pytest.raises(ConfigError,
                           match=re.escape(f"{key} must be in {interval}, got {value!r}")):
            spec_from_values({key: value})

    def test_typed_values_and_none_accepted(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(tiny_cfg_with(
            "max_power = 40\nhidden_size = none\n"
            "checkpoint = none\npower_levels = 12.8\n"
            "epsilon_anneal_steps = none\ncheckpoint_interval = none\n"))
        spec = spec_from_file(cfg_file)
        assert spec.config.max_power == 40
        assert spec.agent.hidden_size is None and spec.checkpoint is None
        assert spec.agent.epsilon_anneal_steps is None
        assert spec.checkpoint_interval is None
        assert spec.config.power_levels == (12.8,)

    def test_max_power_level_checked_only_with_test_samples(self):
        # the fixed-power baseline runs only in the test phase
        with pytest.raises(ConfigError, match="max_power_level 25.0 W"):
            ExperimentSpec(config=tiny_config(), max_power_level=25.0)
        spec = ExperimentSpec(config=tiny_config(), max_power_level=25.0,
                              n_test_samples=0)
        assert spec.max_power_level == 25.0


class TestCli:
    def test_callers_pass_the_spec_values(self):
        # ExperimentSpec holds the only default of each; the callers pass them
        for fn, names in ((ag.train, ("opt",)),
                          (ag.test, ("ga_config", "max_power_level")),
                          (max_power_baseline, ("level",))):
            params = inspect.signature(fn).parameters
            for name in names:
                assert params[name].default is inspect.Parameter.empty, name

    def test_dump_actions(self, capsys):
        assert cli_main(["dump-actions", "--scenario", "scenario1"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("action,")
        assert len(lines) == 73     # header + 72 feasible actions

    def test_baseline_maxpower(self, capsys, tmp_path):
        code = cli_main(["baseline", "maxpower", "--scenario", "scenario1",
                         "--samples", "2", "--seed", "4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        assert all(p["throughput_bps"] > 0 for p in payload)

    def test_baseline_wmmse_reports_convergence(self, capsys):
        code = cli_main(["baseline", "wmmse", "--scenario", "scenario1",
                         "--samples", "2", "--seed", "4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        for p in payload:
            assert p["throughput_bps"] > 0
            assert 1 <= p["iterations"] <= 500
            assert p["converged"] in (True, False)

    def test_compare_with_config_file(self, capsys, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "scenario = custom\n"
            "num_cells = 2\nusers_per_cell = 2\nnum_subbands = 2\n"
            "power_levels = 6.4, 12.8, 19.2\nmax_power = 40.0\n"
            "train_steps = 0\nn_test_samples = 2\nmaster_seed = 8\n"
            "ga_population_size = 8\nga_generations = 5\n"
            f"output_dir = {tmp_path / 'out'}\n")
        assert cli_main(["compare", "--config", str(cfg_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mean"]["ga"] == 1.0
        assert os.path.exists(tmp_path / "out" / "results.csv")

    def test_train_then_test_round_trip(self, capsys, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "scenario = custom\n"
            "num_cells = 2\nusers_per_cell = 2\nnum_subbands = 2\n"
            "power_levels = 6.4, 12.8, 19.2\nmax_power = 40.0\n"
            "train_steps = 150\ntrain_start = 16\nbatch_size = 8\n"
            "n_test_samples = 2\nmaster_seed = 12\n"
            "ga_population_size = 8\nga_generations = 5\n")
        out = tmp_path / "trained"
        assert cli_main(["train", "--config", str(cfg_file),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        ckpt = out / "qnet.ckpt"
        assert ckpt.exists()
        assert cli_main(["test", "--config", str(cfg_file),
                         "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "eval"), "--samples", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["metadata"]["train_steps"] == 0   # loaded, not retrained

    def test_zero_samples_means_zero(self, capsys, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "scenario = custom\n"
            "num_cells = 2\nusers_per_cell = 2\nnum_subbands = 2\n"
            "power_levels = 6.4, 12.8, 19.2\nmax_power = 40.0\n"
            "train_steps = 0\nn_test_samples = 3\n"
            "ga_population_size = 8\nga_generations = 5\n")
        out = tmp_path / "untrained"
        assert cli_main(["train", "--config", str(cfg_file),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli_main(["test", "--config", str(cfg_file),
                         "--checkpoint", str(out / "qnet.ckpt"),
                         "--out", str(tmp_path / "eval"), "--samples", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["metadata"]["n_test_samples"] == 0
        assert cli_main(["baseline", "maxpower", "--config", str(cfg_file),
                         "--samples", "0"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_errors_exit_nonzero(self, capsys):
        assert cli_main(["test", "--checkpoint", "/nonexistent.ckpt"]) == 1
        assert "error:" in capsys.readouterr().err
        assert cli_main(["compare", "--config", "/nonexistent.cfg"]) == 1

    def test_error_is_one_line_without_debug(self, capsys, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(TINY_CFG + "no_such_key = 1\n")
        assert cli_main(["compare", "--config", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert err == "error: unknown config key 'no_such_key'\n"

    def test_debug_prints_the_traceback(self, capsys, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(TINY_CFG + "no_such_key = 1\n")
        assert cli_main(["compare", "--config", str(cfg_file), "--debug"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):")
        assert "spec_from_values" in err
        assert err.endswith("ConfigError: unknown config key 'no_such_key'\n")

    @pytest.mark.parametrize("argv", [
        ["train", "--checkpoint", "x"],
        ["test", "--checkpoint", "x", "--steps", "5"],
        ["test"],
        ["baseline", "maxpower", "--out", "x"],
        ["dump-actions", "--seed", "3"],
    ])
    def test_flags_outside_a_command_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2

    def test_train_defaults_to_zero_test_samples(self, capsys, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(TINY_CFG)
        out = tmp_path / "trained"
        assert cli_main(["train", "--config", str(cfg_file),
                         "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["n_test_samples"] == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metadata"]["n_test_samples"] == 0
        assert (out / "results.csv").read_text().count("\n") == 1   # header only

    def test_baseline_scores_the_test_phase_channels(self, capsys, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(TINY_CFG)
        out = tmp_path / "cmp"
        assert cli_main(["compare", "--config", str(cfg_file), "--seed", "3",
                         "--samples", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        rows = [line.split(",") for line in
                (out / "results.csv").read_text().strip().split("\n")]
        header, rows = rows[0], rows[1:]
        for name in ("ga", "wmmse", "maxpower", "random"):
            assert cli_main(["baseline", name, "--config", str(cfg_file),
                             "--seed", "3", "--samples", "4"]) == 0
            payload = json.loads(capsys.readouterr().out)
            col = header.index(f"{name}_bps")
            assert [(str(p["channel_seed"]), repr(p["throughput_bps"]))
                    for p in payload] == [(r[1], r[col]) for r in rows]
