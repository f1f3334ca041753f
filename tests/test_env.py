import itertools
from fractions import Fraction

import numpy as np
import pytest

from cellpower import env as env_module
from cellpower import netmodel
from cellpower.env import (
    EpisodeContext,
    PowerControlEnv,
    enumerate_actions,
    level_grid,
)
from cellpower.harness import actions_to_csv
from cellpower.netmodel import (
    ConfigError,
    ScenarioConfig,
    cqi_quantize_array,
    network_utility,
    serving_sinr,
    snr_gap,
)

from conftest import reference_utility, synthetic_channel, synthetic_topology, tiny_config


def count_feasible_exact(levels, num_subbands, max_power):
    """Independent counter in exact decimal arithmetic."""
    fr = [Fraction(str(v)) for v in levels]
    cap = Fraction(str(max_power))
    return sum(1 for combo in itertools.product(fr, repeat=num_subbands)
               if sum(combo) <= cap)


class TestEnumerateActions:
    def test_reference_scenario_has_72_actions(self):
        actions = enumerate_actions((6.4, 9.6, 12.8, 16.0, 19.2), 3, 40.0)
        assert actions.shape == (72, 3)

    def test_single_level_single_subband(self):
        assert len(enumerate_actions((5.0,), 1, 10.0)) == 1

    def test_tight_budget_keeps_only_minimum(self):
        actions = enumerate_actions((1.0, 2.0), 2, 2.0)
        assert len(actions) == 1
        assert np.array_equal(actions, [[1.0, 1.0]])

    def test_no_feasible_action_rejected(self):
        with pytest.raises(ConfigError):
            enumerate_actions((3.0,), 2, 2.0)

    def test_lexicographic_and_unique(self):
        actions = enumerate_actions((6.4, 9.6, 12.8, 16.0, 19.2), 3, 40.0)
        # levels increase, so power rows sort as their level indices do
        rows = [tuple(r) for r in actions]
        assert rows == sorted(rows)
        assert len(set(rows)) == len(rows)

    def test_rows_are_the_feasible_product_tuples_in_order(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            levels = np.sort(rng.choice(np.arange(1.0, 9.0), size=n, replace=False))
            f = int(rng.integers(1, 4))
            max_power = float(levels[0]) * f + float(rng.integers(0, 12))
            expected = [combo for combo in itertools.product(levels, repeat=f)
                        if sum(combo) <= max_power]
            assert np.array_equal(enumerate_actions(levels, f, max_power),
                                  np.array(expected).reshape(-1, f))

    def test_level_grid_is_the_lexicographic_product(self):
        for n, f in [(1, 1), (3, 1), (2, 3), (5, 3)]:
            grid = level_grid(n, f)
            assert grid.shape == (n ** f, f)
            expected = list(itertools.product(range(n), repeat=f))
            assert [tuple(r) for r in grid] == expected

    def test_count_matches_exact_counter(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 5))
            levels = np.round(np.sort(rng.uniform(0.5, 8.0, size=n)) * 10) / 10
            levels = tuple(dict.fromkeys(float(v) for v in levels))
            f = int(rng.integers(1, 4))
            max_power = float(levels[0]) * f + float(rng.integers(0, 15))
            expected = count_feasible_exact(levels, f, max_power)
            assert len(enumerate_actions(levels, f, max_power)) == expected

    def test_joint_power_decode(self):
        actions = enumerate_actions((1.0, 2.0), 2, 4.0)
        power = actions[[0, len(actions) - 1]]
        assert power.shape == (2, 2)
        assert np.array_equal(power[0], actions[0])
        assert np.array_equal(power[1], actions[-1])

    def test_csv_dump(self):
        actions = enumerate_actions((1.0, 2.0), 2, 4.0)
        text = actions_to_csv(actions)
        lines = text.strip().split("\n")
        assert lines[0] == "action,p0_w,p1_w,total_w"
        assert len(lines) == len(actions) + 1
        assert lines[1] == "0,1.0,1.0,2.0"


class TestReset:
    def test_state_length_contract(self, rng):
        env = PowerControlEnv(tiny_config())
        _, state = env.reset(rng)
        assert state.shape == (2 * 3 * 3,)

    def test_reference_scenario_state_length_100(self, rng):
        env = PowerControlEnv(ScenarioConfig())
        _, state = env.reset(rng)
        assert state.shape == (100,)
        assert env.num_actions == 360

    def test_same_seed_identical(self):
        env = PowerControlEnv(tiny_config())
        ctx1, s1 = env.reset(np.random.default_rng(4))
        ctx2, s2 = env.reset(np.random.default_rng(4))
        assert np.array_equal(s1, s2)
        assert np.array_equal(ctx1.current_power, ctx2.current_power)
        assert ctx1.previous_throughput == ctx2.previous_throughput

    def test_baseline_is_min_power_throughput(self, rng):
        env = PowerControlEnv(tiny_config())
        ctx, _ = env.reset(rng)
        min_power = np.full((2, 2), 6.4)
        expected = reference_utility(min_power, ctx.channel,
                                     snr_gap(env.config.target_ber))
        assert ctx.previous_throughput == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("config", [tiny_config(), tiny_config(num_cells=3),
                                        ScenarioConfig()], ids=["tiny", "desk", "scenario1"])
    def test_one_serving_sinr_per_reset(self, config, rng, monkeypatch):
        env = PowerControlEnv(config)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return serving_sinr(*args, **kwargs)

        for _ in range(20):
            # count the calls made directly and through network_utility
            monkeypatch.setattr(env_module, "serving_sinr", counted)
            monkeypatch.setattr(netmodel, "serving_sinr", counted)
            calls.clear()
            ctx, state = env.reset(rng)
            assert len(calls) == 1
            monkeypatch.undo()
            min_power = env.actions[np.zeros(config.num_cells, dtype=int)]
            assert ctx.previous_throughput == network_utility(min_power, ctx.channel)
            assert ctx.start_throughput == network_utility(ctx.current_power, ctx.channel)
            # Python floats, whose repr the CSVs write, not numpy scalars
            assert type(ctx.previous_throughput) is type(ctx.start_throughput) is float
            sinr = serving_sinr(ctx.current_power, ctx.channel)
            assert state.tobytes() == env.encode_state(ctx, sinr).tobytes()

    def test_initial_action_is_feasible(self, rng):
        env = PowerControlEnv(tiny_config())
        ctx, _ = env.reset(rng)
        assert np.all(ctx.current_power.sum(axis=1) <= env.config.max_power + 1e-9)


class TestEncodeState:
    def test_zero_power_floors_cqi(self, rng):
        env = PowerControlEnv(tiny_config())
        ctx, _ = env.reset(rng)
        ctx.current_power = np.zeros((2, 2))
        sinr = serving_sinr(ctx.current_power, ctx.channel)
        state = env.encode_state(ctx, sinr).reshape(6, 3)
        assert np.all(state[:, :2] == 1)

    def test_cell_edge_bit_and_cqi_ceiling(self):
        env = PowerControlEnv(tiny_config(num_cells=1, users_per_cell=1,
                                          num_subbands=1, power_levels=(1.0,),
                                          max_power=10.0))
        dist = synthetic_topology(1, 1, [300.0], cell_radius=500.0)
        channel = synthetic_channel(np.full((1, 1, 1), 1000.0), noise_power=1.0)
        ctx = EpisodeContext(netmodel.location_indicator(dist, 500.0), channel,
                             np.array([[1.0]]), np.array([0]), 0.0, 0.0)
        sinr = serving_sinr(ctx.current_power, ctx.channel)
        assert list(env.encode_state(ctx, sinr)) == [15, 1]

    def test_entries_bounded(self, rng):
        env = PowerControlEnv(tiny_config())
        ctx, state = env.reset(rng)
        for _ in range(50):
            if ctx.terminal:
                ctx, state = env.reset(rng)
            action = rng.integers(0, len(env.actions), size=2)
            state, _, _, _ = env.step(ctx, action)
            decoded = state / env.state_scale       # the network's input
            assert decoded.min() >= 0.0 and decoded.max() <= 1.0

    @pytest.mark.parametrize("config", [tiny_config(), tiny_config(num_cells=3),
                                        ScenarioConfig()], ids=["tiny", "desk", "scenario1"])
    def test_states_are_codes_that_decode_to_the_scaled_cqi(self, config, rng):
        # reset and step states are uint8 codes: CQI indices in 1..15 and an
        # edge bit per user, and dividing by state_scale gives the CQI / 15
        # beside the edge bit, byte for byte
        env = PowerControlEnv(config)
        states = 0
        while states < 40:
            ctx, state = env.reset(rng)
            while True:
                assert state.dtype == np.uint8 and state.shape == (env.state_size,)
                per_user = state.reshape(-1, config.num_subbands + 1)
                assert per_user[:, :-1].min() >= 1 and per_user[:, :-1].max() <= 15
                assert set(per_user[:, -1].tolist()) <= {0, 1}
                sinr = serving_sinr(ctx.current_power, ctx.channel)
                want = np.concatenate([cqi_quantize_array(sinr) / 15.0, ctx.edge[:, None]],
                                      axis=1).reshape(-1)
                assert (state / env.state_scale).tobytes() == want.tobytes()
                states += 1
                if ctx.terminal:
                    break
                action = rng.integers(0, len(env.actions), size=config.num_cells)
                state, _, _, _ = env.step(ctx, action)


class TestStep:
    def test_improving_step_rewards_plus_one(self, rng):
        env = PowerControlEnv(tiny_config(num_cells=1, users_per_cell=1,
                                          num_subbands=1,
                                          power_levels=(1.0, 8.0),
                                          max_power=10.0))
        ctx, _ = env.reset(rng)
        ctx.current_power = np.array([[1.0]])
        ctx.previous_throughput = network_utility(ctx.current_power, ctx.channel)
        # single cell: rate is monotone in power, so the top level improves
        _, reward, terminal, _ = env.step(ctx, [1])
        assert reward == 1.0
        assert not terminal

    def test_repeating_action_terminates(self, rng):
        env = PowerControlEnv(tiny_config())
        ctx, _ = env.reset(rng)
        action = [3, 5]
        _, _, t1, thr1 = env.step(ctx, action)
        if not t1:
            _, reward, t2, thr2 = env.step(ctx, action)
            assert t2
            assert reward == -1.0
            assert thr2 == pytest.approx(thr1)

    def test_step_after_terminal_raises(self, rng):
        env = PowerControlEnv(tiny_config())
        ctx, _ = env.reset(rng)
        while not ctx.terminal:
            env.step(ctx, rng.integers(0, len(env.actions), size=2))
        with pytest.raises(RuntimeError):
            env.step(ctx, [0, 0])

    def test_bad_action_rejected(self, rng):
        env = PowerControlEnv(tiny_config())
        ctx, _ = env.reset(rng)
        with pytest.raises(ValueError):
            env.step(ctx, [0])
        with pytest.raises(ValueError):
            env.step(ctx, [0, len(env.actions)])
        with pytest.raises(ValueError):
            env.step(ctx, [-1, 0])
        # indices of a non-integer type are rejected, not truncated
        with pytest.raises(ValueError, match="integer action indices"):
            env.step(ctx, [1.7, 0.2])
        with pytest.raises(ValueError, match="integer action indices"):
            env.step(ctx, [True, False])
        assert ctx.step_count == 0 and not ctx.terminal

    def test_deterministic_throughput_within_episode(self):
        env = PowerControlEnv(tiny_config())
        ctx1, _ = env.reset(np.random.default_rng(21))
        ctx2, _ = env.reset(np.random.default_rng(21))
        actions = [[1, 2], [4, 0], [7, 7]]
        for a in actions:
            if ctx1.terminal:
                break
            out1 = env.step(ctx1, a)
            out2 = env.step(ctx2, a)
            assert out1[3] == out2[3]

    def test_one_serving_sinr_per_step(self, rng, monkeypatch):
        env = PowerControlEnv(tiny_config())
        ctx, _ = env.reset(rng)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return serving_sinr(*args, **kwargs)

        # count the calls made directly and through network_utility
        monkeypatch.setattr(env_module, "serving_sinr", counted)
        monkeypatch.setattr(netmodel, "serving_sinr", counted)
        state, _, _, throughput = env.step(ctx, [4, 0])
        assert len(calls) == 1
        monkeypatch.undo()
        sinr = serving_sinr(ctx.current_power, ctx.channel)
        assert np.array_equal(state, env.encode_state(ctx, sinr))
        assert throughput == network_utility(ctx.current_power, ctx.channel)

    def test_one_location_indicator_per_episode(self, rng, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return netmodel.location_indicator(*args, **kwargs)

        monkeypatch.setattr(env_module, "location_indicator", counted)
        env = PowerControlEnv(tiny_config(), max_episode_steps=5)
        ctx, state = env.reset(rng)
        edge = state.reshape(-1, 3)[:, -1]
        steps = 0
        while not ctx.terminal:
            state, _, _, _ = env.step(ctx, rng.integers(0, len(env.actions), size=2))
            steps += 1
            assert np.array_equal(state.reshape(-1, 3)[:, -1], edge)
        assert steps >= 1
        assert len(calls) == 1

    def test_step_cap_forces_terminal(self, rng):
        env = PowerControlEnv(tiny_config(), max_episode_steps=1)
        ctx, _ = env.reset(rng)
        _, reward, terminal, _ = env.step(ctx, [0, 0])
        assert terminal


class TestEpisodeSemantics:
    def test_throughput_strictly_increases_then_drops(self, rng):
        env = PowerControlEnv(tiny_config())
        for _ in range(200):
            ctx, _ = env.reset(rng)
            history = []
            while not ctx.terminal:
                action = rng.integers(0, len(env.actions), size=2)
                _, _, terminal, thr = env.step(ctx, action)
                history.append(thr)
            assert len(history) <= env.max_episode_steps
            for a, b in zip(history[:-2], history[1:-1]):
                assert b > a
            if len(history) >= 2:
                assert history[-1] <= history[-2]
