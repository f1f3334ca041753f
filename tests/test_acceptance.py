"""Acceptance suite: one test per shipping criterion.

Each test prints a [PASS]/[FAIL] line (visible with `pytest -s`). The
desk-scale learning run is the slow one; everything else is seconds.
"""

import functools
import hashlib
import itertools
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

import cellpower as cp
from cellpower import agent as ag
from cellpower.baselines import GAConfig, exhaustive, ga_optimize, wmmse
from cellpower.cli import main as cli_main
from cellpower.env import PowerControlEnv, enumerate_actions
from cellpower.harness import normalized_throughput, scenario_preset
from cellpower.netmodel import ScenarioConfig, network_utility
from cellpower.qnet import MLP
from cellpower.replay import ReplayBuffer

from conftest import (
    agent_optimizer,
    finite_difference_max_error,
    reference_utility,
    tiny_config,
)


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            t0 = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] {label} ({time.time() - t0:.1f}s)")
                raise
            print(f"\n[PASS] {label} ({time.time() - t0:.1f}s)")
        return run
    return wrap


# Reduced scenario for the learning criterion: 3 cells, 3 users/cell,
# 2 subbands, 3 power levels (9 feasible actions per cell).
DESK_CONFIG = ScenarioConfig(num_cells=3, users_per_cell=3, num_subbands=2,
                             power_levels=(6.4, 12.8, 19.2), max_power=40.0)
DESK_TRAIN_STEPS = 150_000
DESK_AGENT = ag.AgentConfig(train_steps=DESK_TRAIN_STEPS, batch_size=64,
                            learning_rate=0.001, discount=0.9,
                            epsilon_end=0.02, target_update_steps=1000,
                            hidden_size=108)
DESK_GA = GAConfig(population_size=50, generations=60)
DESK_SEED = 42
DESK_TEST_SEED = 123


@pytest.fixture(scope="module")
def desk_scale_report():
    env = PowerControlEnv(DESK_CONFIG)
    rng = np.random.default_rng(DESK_SEED)
    # in the precision run_experiment trains at
    mlp = MLP.init((env.state_size, DESK_AGENT.hidden_size, env.num_actions), rng,
                   np.float32)
    ag.train(env, mlp, DESK_AGENT, rng, agent_optimizer(mlp, DESK_AGENT))
    phase = ag.test(env, mlp, 100, seed=DESK_TEST_SEED, ga_config=DESK_GA,
                    max_power_level=12.8)
    return phase, normalized_throughput(phase)[1]


@criterion("1. action space: 72 feasible combinations, brute-force checked, <1s")
def test_criterion_1_action_space_count():
    t0 = time.time()
    levels = (6.4, 9.6, 12.8, 16.0, 19.2)
    actions = enumerate_actions(levels, 3, 40.0)
    exact = [Fraction(str(v)) for v in levels]
    count = sum(1 for combo in itertools.product(exact, repeat=3)
                if sum(combo) <= Fraction("40"))
    assert len(actions) == 72
    assert count == 72
    assert time.time() - t0 < 1.0


@criterion("2. dimensions: {100,360} {200,720} {300,1080} across scenarios")
def test_criterion_2_dimensions():
    expected = {"scenario1": (100, 360), "scenario2": (200, 720),
                "scenario3": (300, 1080)}
    for name, (state, out) in expected.items():
        env = PowerControlEnv(scenario_preset(name))
        assert env.state_size == state
        assert env.num_actions == out


@criterion("3. gradients match finite differences on 20 random nets, <10s")
def test_criterion_3_gradient_oracle():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        n_in = int(rng.integers(3, 11))
        n_hidden = int(rng.integers(4, 21))
        cells = int(rng.integers(1, 4))
        block = int(rng.integers(2, 5))
        mlp = MLP.init((n_in, n_hidden, cells * block), rng)
        n = int(rng.integers(2, 7))
        states = rng.normal(size=(n, n_in))
        actions = rng.integers(0, block, size=(n, cells))
        targets = rng.normal(size=(n, cells))
        worst = max(worst, finite_difference_max_error(
            mlp, states, actions, targets, block))
    assert worst < 1e-4
    assert time.time() - t0 < 10.0


@criterion("4. GA reaches the exhaustive optimum on >=95% of 50 instances, <1min")
def test_criterion_4_ga_vs_exhaustive():
    t0 = time.time()
    cfg = tiny_config()     # 2 cells, 2 subbands, 3 levels -> joint space <= 81
    actions = enumerate_actions(cfg.power_levels, cfg.num_subbands, cfg.max_power)
    ga_cfg = GAConfig(population_size=60, generations=80)
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng([1000, seed])
        dist = cp.build_topology(cfg, rng)
        channel = cp.draw_channel(dist, cfg, rng)
        _, best = exhaustive(channel, actions)
        _, got, _ = ga_optimize(channel, cfg, ga_cfg,
                                np.random.default_rng([2000, seed]))
        assert got <= best + 1e-6 * best
        if abs(got - best) <= 1e-9 * best:
            hits += 1
        else:
            assert got >= 0.99 * best
    assert hits >= 48    # 95% of 50, rounded up
    assert time.time() - t0 < 60.0


@criterion("5. WMMSE monotone objective and budget on 50 scenario-1 instances, <1min")
def test_criterion_5_wmmse_monotonicity():
    t0 = time.time()
    cfg = scenario_preset("scenario1")
    for seed in range(50):
        rng = np.random.default_rng([3000, seed])
        dist = cp.build_topology(cfg, rng)
        channel = cp.draw_channel(dist, cfg, rng)
        res = wmmse(channel, cfg.max_power)
        hist = res.objective_history
        for a, b in zip(hist, hist[1:]):
            assert b >= a - 1e-9 * max(1.0, abs(a))
        assert np.all(res.power.sum(axis=1) <= cfg.max_power * (1 + 1e-9))
    assert time.time() - t0 < 60.0


@pytest.mark.slow
@criterion("6. desk-scale learning: DQL >= 0.95 GA, > random, >= max-power")
def test_criterion_6_desk_scale_learning(desk_scale_report):
    assert DESK_TRAIN_STEPS <= 200_000
    phase, report = desk_scale_report
    mean = report.mean
    print(f"\n      normalized means: dql={mean['dql']:.4f} "
          f"random={mean['random']:.4f} maxpower={mean['maxpower']:.4f} "
          f"wmmse={mean['wmmse']:.4f}")
    assert len(phase["dql_bps"]) == 100
    assert report.excluded == 0
    assert mean["dql"] >= 0.95          # (a)
    assert mean["dql"] > mean["random"]     # (b)
    assert mean["dql"] >= mean["maxpower"]  # (c)


@criterion("7. normalized ratios agree between log2 and ln utilities, 1e-12")
def test_criterion_7_base_invariance():
    rng = np.random.default_rng(11)
    for seed in range(20):
        cfg = tiny_config()
        drop_rng = np.random.default_rng([4000, seed])
        dist = cp.build_topology(cfg, drop_rng)
        channel = cp.draw_channel(dist, cfg, drop_rng)
        alpha = cp.snr_gap(cfg.target_ber)
        p1 = rng.uniform(0.0, 20.0, size=(2, 2))
        p2 = rng.uniform(1.0, 20.0, size=(2, 2))
        ratio_log2 = (network_utility(p1, channel)
                      / network_utility(p2, channel))
        ratio_ln = (reference_utility(p1, channel, alpha, log=math.log)
                    / reference_utility(p2, channel, alpha, log=math.log))
        assert abs(ratio_log2 - ratio_ln) < 1e-12


@criterion("8. compare twice with one seed -> byte-identical per-sample CSV")
def test_criterion_8_determinism(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "scenario = custom\n"
        "num_cells = 2\nusers_per_cell = 2\nnum_subbands = 2\n"
        "power_levels = 6.4, 12.8, 19.2\nmax_power = 40.0\n"
        "train_steps = 400\ntrain_start = 64\nn_test_samples = 5\n"
        "master_seed = 31\nga_population_size = 15\nga_generations = 10\n")
    outs = []
    for run in ("one", "two"):
        out_dir = tmp_path / run
        code = cli_main(["compare", "--config", str(cfg_file),
                         "--out", str(out_dir)])
        assert code == 0
        outs.append((out_dir / "results.csv").read_bytes())
    assert outs[0] == outs[1]


@criterion("9. 1000 episodes: strictly increasing throughput, then a drop")
def test_criterion_9_episode_semantics():
    env = PowerControlEnv(tiny_config())
    rng = np.random.default_rng(13)
    for _ in range(1000):
        ctx, _ = env.reset(rng)
        history = []
        while not ctx.terminal:
            action = rng.integers(0, len(env.actions), size=2)
            _, _, _, thr = env.step(ctx, action)
            history.append(thr)
        assert 1 <= len(history) <= 10_000
        for a, b in zip(history[:-2], history[1:-1]):
            assert b > a
        if len(history) >= 2:
            assert history[-1] <= history[-2]


@criterion("10. replay model-equivalence (1e5 ops) and stable target hashes (1e4 steps)")
def test_criterion_10_replay_and_target():
    # replay: mirror a naive list model through 1e5 mixed push/sample ops;
    # push number i is written into the action and reward of its row, and
    # its state and next state code i and i + 1 as base-16 digits
    scale = np.array([15.0, 1.0])       # a CQI column and a cell-edge column

    def codes(ids):
        return (np.asarray(ids)[..., None] // 16 ** np.arange(2) % 16).astype(np.uint8)

    def push_numbers(rows):
        states, actions, rewards, next_states, terminals = rows
        assert np.array_equal(states, codes(rewards.astype(int)) / scale)
        assert np.array_equal(actions[:, 0], rewards)
        assert np.array_equal(next_states, codes(rewards.astype(int) + 1) / scale)
        assert np.array_equal(terminals, rewards % 2 == 1)
        return [int(r) for r in rewards]

    def stored(buf):
        rows = np.arange(len(buf))
        return sorted(push_numbers((buf.states(rows, offset=0), buf.action[rows],
                                    buf.reward[rows], buf.states(rows, offset=1),
                                    buf.terminal[rows])))

    rng = np.random.default_rng(17)
    buf = ReplayBuffer(37, scale, 2 ** 17)      # push i stores action i
    mirror = []
    counter = 0
    for _ in range(100_000):
        if len(buf) == 0 or rng.random() < 0.6:
            buf.push(codes(counter), (counter,), float(counter),
                     codes(counter + 1), counter % 2 == 1)
            mirror.append(counter)
            counter += 1
        else:
            states, actions, rows = buf.sample(
                int(rng.integers(1, min(len(buf), 8) + 1)), rng)
            recent = set(mirror[-37:])
            assert all(item in recent for item in push_numbers(
                (states, actions, buf.reward[rows], buf.states(rows, offset=1),
                 buf.terminal[rows])))
        if counter % 997 == 0:
            assert stored(buf) == mirror[-37:]
    assert stored(buf) == mirror[-37:]

    # target network: hash constant between clone instants over 1e4 steps
    env = PowerControlEnv(tiny_config(num_cells=1, users_per_cell=1,
                                      num_subbands=1, power_levels=(1.0, 8.0),
                                      max_power=10.0))
    period = 100
    cfg = ag.AgentConfig(train_steps=10_000, batch_size=16, train_start=64,
                         target_update_steps=period, epsilon_anneal_steps=1000,
                         replay_capacity=20_000)
    rng = np.random.default_rng(19)
    mlp = MLP.init((env.state_size, 8, env.num_actions), rng)

    def digest(net):
        return hashlib.sha256(net.flat.tobytes()).hexdigest()

    trace = []
    ag.train(env, mlp, cfg, rng, agent_optimizer(mlp, cfg),
             on_step=lambda step, gs, net, target: trace.append(
                 (gs, digest(target))))
    assert trace[-1][0] >= 9000
    changes = 0
    for (g0, h0), (g1, h1) in zip(trace, trace[1:]):
        if g0 // period == g1 // period:
            assert h0 == h1
        if h0 != h1:
            changes += 1
            assert g1 // period > g0 // period
    assert changes >= trace[-1][0] // period - 1
