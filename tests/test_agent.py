import hashlib
import re

import numpy as np
import pytest

from cellpower import agent as ag
from cellpower import env as env_module
from cellpower import netmodel
from cellpower.agent import AgentConfig, bellman_targets, select_joint_action
from cellpower.baselines import GAConfig, exhaustive
from cellpower.env import PowerControlEnv
from cellpower.netmodel import network_utility
from cellpower.qnet import MLP
from cellpower.replay import ReplayBuffer

from conftest import agent_optimizer, reference_bellman_targets, reference_select, tiny_config


def single_link_env(**overrides):
    cfg = tiny_config(num_cells=1, users_per_cell=1, num_subbands=1,
                      power_levels=(1.0, 8.0), max_power=10.0, **overrides)
    return PowerControlEnv(cfg)


class TestSelectJointAction:
    def test_block_argmax(self):
        q = np.array([1.0, 5.0, 2.0, 7.0, 0.0, 3.0])
        assert list(select_joint_action(q, 0.0, 2, None)) == [1, 0]

    def test_greedy_is_deterministic(self):
        q = np.arange(12.0)
        first = select_joint_action(q, 0.0, 3, None)
        for _ in range(10):
            assert np.array_equal(select_joint_action(q, 0.0, 3, None), first)

    def test_constant_shift_invariance(self, rng):
        q = rng.normal(size=10)
        shifted = q + 123.456
        assert np.array_equal(select_joint_action(q, 0.0, 2, None),
                              select_joint_action(shifted, 0.0, 2, None))

    @pytest.mark.parametrize("epsilon", [0.0, 0.02, 0.5, 1.0])
    @pytest.mark.parametrize("num_cells, block", [(1, 4), (3, 9), (15, 72)])
    def test_same_actions_and_draws_as_per_cell_loop(self, epsilon, num_cells, block):
        for seed in range(1000):
            # small integer values, so most blocks have tied maxima
            q = np.random.default_rng([seed, 1]).integers(
                0, 4, size=num_cells * block).astype(np.float32)
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = select_joint_action(q, epsilon, num_cells, rng)
            want = reference_select(q, epsilon, num_cells, ref_rng)
            assert np.array_equal(got, want) and got.dtype == want.dtype, seed
            assert rng.bit_generator.state == ref_rng.bit_generator.state, seed
            if epsilon == 0.0:      # each cell's first maximum
                blocks = q.reshape(num_cells, block)
                for k, a in enumerate(got):
                    assert blocks[k, a] == blocks[k].max() > blocks[k, :a].max(initial=-1)

    def test_full_exploration_is_uniform(self, rng):
        q = np.zeros(8)   # 2 cells x 4 actions
        counts = np.zeros((2, 4))
        trials = 100_000
        for _ in range(trials):
            a = select_joint_action(q, 1.0, 2, rng)
            counts[0, a[0]] += 1
            counts[1, a[1]] += 1
        assert np.all(np.abs(counts / trials - 0.25) < 0.02 * 4)


def test_reference_hyperparameter_defaults():
    cfg = AgentConfig()
    assert cfg.batch_size == 64
    assert cfg.replay_capacity == 80_000
    assert cfg.target_update_steps == 1000
    assert cfg.learning_rate == 0.00025
    assert cfg.train_every == 1      # one gradient step per training event
    assert cfg.discount == 0.99


class TestAgentConfigValidation:
    def test_negative_train_steps_rejected(self):
        with pytest.raises(ValueError, match="train_steps"):
            AgentConfig(train_steps=-5)

    @pytest.mark.parametrize("train_start", [100, None])   # None resolves to 1000
    def test_train_steps_below_train_start_rejected(self, train_start):
        # training would end before its first gradient step
        with pytest.raises(ValueError, match=r"train_steps \(5\).*train_start"):
            AgentConfig(train_steps=5, train_start=train_start)
        assert AgentConfig(train_steps=0, train_start=train_start).train_steps == 0
        assert AgentConfig(train_steps=1000, train_start=train_start).train_steps == 1000

    def test_zero_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            AgentConfig(batch_size=0)

    @pytest.mark.parametrize("train_start", [100, None])   # None resolves to 1000
    def test_replay_smaller_than_train_start_rejected(self, train_start):
        with pytest.raises(ValueError, match="replay_capacity"):
            AgentConfig(replay_capacity=50, train_start=train_start)

    def test_replay_equal_to_train_start_accepted(self):
        assert AgentConfig(replay_capacity=100, train_start=100).replay_capacity == 100

    @pytest.mark.parametrize("hidden_size", [0, -4])
    def test_non_positive_hidden_size_rejected(self, hidden_size):
        with pytest.raises(ValueError, match=re.escape(
                f"hidden_size must be in [1, inf), got {hidden_size}")):
            AgentConfig(hidden_size=hidden_size)
        assert AgentConfig(hidden_size=None).hidden_size is None
        assert AgentConfig(hidden_size=1).hidden_size == 1


class TestEpsilonSchedule:
    def test_linear_anneal_then_constant(self):
        cfg = AgentConfig(train_steps=1000, epsilon_start=1.0, epsilon_end=0.1,
                          epsilon_anneal_steps=100)
        assert cfg.epsilon_at(0) == 1.0
        assert cfg.epsilon_at(50) == pytest.approx(0.55)
        assert cfg.epsilon_at(100) == 0.1
        assert cfg.epsilon_at(999) == 0.1

    def test_default_anneal_is_tenth_of_budget(self):
        cfg = AgentConfig(train_steps=1000)
        assert cfg.epsilon_at(99) > cfg.epsilon_end
        assert cfg.epsilon_at(100) == cfg.epsilon_end


def filled_buffer(rng, net, n, terminals=None, exact=False):
    """A replay buffer holding n two-cell transitions with random rewards
    and random uint8 next states for `net` (small integers over scale 1 if
    `exact`, else CQI indices over 15), each push starting from the
    previous push's next state, and about a third of them terminal unless
    `terminals` is given."""
    in_size = net.layer_sizes[0]
    if terminals is None:
        terminals = rng.random(n) < 1 / 3
    scale = np.full(in_size, 1.0 if exact else 15.0)
    buf = ReplayBuffer(n, scale, net.layer_sizes[2] // 2)
    state = np.zeros(in_size, np.uint8)
    for terminal in terminals:
        next_state = (rng.integers(0, 9, size=in_size) if exact
                      else rng.integers(1, 16, size=in_size)).astype(np.uint8)
        buf.push(state, np.zeros(2, dtype=int),
                 rng.choice([-1.0, 1.0]), next_state, terminal)
        state = next_state
    return buf


def uncached_targets(net, buf, rows, discount, num_cells=2):
    return reference_bellman_targets(net, buf.reward[rows], buf.states(rows, offset=1),
                                     buf.terminal[rows], discount, num_cells)


def exact_net(sizes, rng):
    """He-initialised weights rounded to multiples of 2^-10: with
    small-integer states every forward sum is exact in any order, so a
    forward over some rows of a batch equals the whole batch's bit for bit."""
    net = MLP.init(sizes, rng)
    net.flat[:] = np.round(net.flat * 2.0 ** 10) / 2.0 ** 10
    return net


class TestBellmanTargets:
    def test_zero_discount_terminal_batch_equals_rewards(self, rng):
        net = MLP.init((4, 6, 8), rng)
        buf = filled_buffer(rng, net, 6, terminals=[True] * 6)
        y, evaluated = bellman_targets(net, buf, np.arange(6), 0.0, 2)
        for i, r in enumerate(buf.reward):
            assert np.all(y[i] == r)
        assert evaluated == 0       # no next state of a terminal row is needed

    def test_matches_naive_recomputation(self, rng):
        net = MLP.init((4, 6, 8), rng)
        buf = filled_buffer(rng, net, 6, terminals=rng.random(6) < 0.5)
        gamma = 0.97
        y, _ = bellman_targets(net, buf, np.arange(6), gamma, 2)
        for i in range(6):
            q = net.forward(buf.states(i, offset=1))
            for k in range(2):
                expected = buf.reward[i] if buf.terminal[i] else (
                    buf.reward[i] + gamma * max(q[4 * k: 4 * (k + 1)]))
                assert abs(y[i, k] - expected) < 1e-12


class TestTargetCache:
    """bellman_targets against the uncached full-batch forward in conftest,
    over successive batches that hit and miss the buffer's cache."""

    BATCHES = ([2, 2, 5, 2, 0, 5], [0, 1, 2, 3, 4, 5, 6, 7], [7, 7, 7],
               [3, 6, 3, 1])

    def _check_batches(self, net, buf, compare):
        """Targets of each batch of BATCHES (rows repeat within and across
        batches) against the oracle; every non-terminal row is evaluated
        once, at the first batch that holds it."""
        seen = set()
        for batch in self.BATCHES:
            rows = np.array(batch)
            y, evaluated = bellman_targets(net, buf, rows, 0.9, 2)
            compare(y, uncached_targets(net, buf, rows, 0.9))
            new = {r for r in batch if not buf.terminal[r]} - seen
            assert evaluated == len(new)
            seen |= new

    def test_bitwise_equal_on_exact_net(self, rng):
        net = exact_net((6, 10, 8), rng)
        buf = filled_buffer(rng, net, 8, exact=True,
                            terminals=[False, True, False, False, True,
                                       False, True, False])
        self._check_batches(net, buf, np.testing.assert_array_equal)

    def test_close_on_he_net(self, rng):
        net = MLP.init((6, 10, 8), rng)
        buf = filled_buffer(rng, net, 8, terminals=np.arange(8) % 3 == 1)

        def close(y, want):
            np.testing.assert_allclose(y, want, rtol=1e-12, atol=0)

        self._check_batches(net, buf, close)

    def test_row_overwritten_by_ring_wrap_is_evaluated_again(self, rng):
        net = exact_net((6, 10, 8), rng)
        buf = filled_buffer(rng, net, 4, exact=True, terminals=[False] * 4)
        rows = np.arange(4)
        assert bellman_targets(net, buf, rows, 0.9, 2)[1] == 4
        assert bellman_targets(net, buf, rows, 0.9, 2)[1] == 0
        last = buf.states(3, offset=1).astype(np.uint8)     # scale 1: the codes
        buf.push(last, (0, 0), 1.0, np.full(6, 3, np.uint8), False)      # row 0
        y, evaluated = bellman_targets(net, buf, rows, 0.9, 2)
        assert evaluated == 1
        np.testing.assert_array_equal(y, uncached_targets(net, buf, rows, 0.9))

    def test_training_targets_match_oracle_and_clone_evaluates_all(
            self, rng, monkeypatch):
        # a small ring wraps many times and the target is cloned every
        # third gradient step; every call's targets must equal the uncached
        # oracle, and the call right after a clone evaluates every distinct
        # non-terminal row of its batch
        period = 3
        env = PowerControlEnv(tiny_config())
        cfg = AgentConfig(train_steps=150, batch_size=8, train_start=8,
                          replay_capacity=20, target_update_steps=period)
        mlp = MLP.init((env.state_size, 6, env.num_actions), rng)
        calls = []

        def checked(target_net, buffer, rows, discount, num_cells):
            want = uncached_targets(target_net, buffer, rows, discount, num_cells)
            after_clone = len(calls) % period == 0
            distinct = np.unique(rows[~buffer.terminal[rows]]).size
            y, evaluated = bellman_targets(target_net, buffer, rows, discount,
                                           num_cells)
            np.testing.assert_allclose(y, want, rtol=1e-12, atol=0)
            if after_clone:
                assert evaluated == distinct
            calls.append(evaluated)
            return y, evaluated

        monkeypatch.setattr(ag, "bellman_targets", checked)
        log, target_rows = ag.train(env, mlp, cfg, rng, agent_optimizer(mlp, cfg))
        gradient_steps = log["gradient_steps"][-1]
        assert len(calls) == gradient_steps
        assert target_rows == sum(calls)
        # between clones the cache is hit: fewer rows than draws
        assert 0 < sum(calls) < gradient_steps * cfg.batch_size


class TestTraining:
    def test_tiny_scenario_learns_max_power(self):
        # single cell, single user: the higher level is always optimal
        env = single_link_env()
        cfg = AgentConfig(train_steps=2000, batch_size=16, train_start=100,
                          target_update_steps=50, epsilon_anneal_steps=500,
                          learning_rate=0.001, discount=0.5)
        rng = np.random.default_rng(5)
        mlp = MLP.init((env.state_size, 8, env.num_actions), rng)
        ag.train(env, mlp, cfg, rng, agent_optimizer(mlp, cfg))
        for seed in range(5):
            _, state = env.reset(np.random.default_rng(seed))
            action = select_joint_action(mlp.forward(state / env.state_scale), 0.0, 1, None)
            assert action[0] == 1

    def test_one_gradient_step_per_env_step_once_full(self, rng):
        env = single_link_env()
        cfg = AgentConfig(train_steps=50, batch_size=8, train_start=8,
                          target_update_steps=10)
        mlp = MLP.init((env.state_size, 6, env.num_actions), rng)
        log, _ = ag.train(env, mlp, cfg, rng, agent_optimizer(mlp, cfg))
        # the first gradient step comes at the env step that fills the buffer
        # to train_start, and every later env step takes one more
        assert log["gradient_steps"][-1] == cfg.train_steps - cfg.train_start + 1

    def test_target_network_changes_only_at_clone_instants(self, rng):
        env = single_link_env()
        period = 25
        cfg = AgentConfig(train_steps=300, batch_size=8, train_start=8,
                          target_update_steps=period, epsilon_anneal_steps=50)
        mlp = MLP.init((env.state_size, 6, env.num_actions), rng)

        def digest(net):
            return hashlib.sha256(net.flat.tobytes()).hexdigest()

        seen = []
        ag.train(env, mlp, cfg, rng, agent_optimizer(mlp, cfg),
                 on_step=lambda step, gs, net, target: seen.append(
                     (gs, digest(target))))
        for (g0, h0), (g1, h1) in zip(seen, seen[1:]):
            if g0 // period == g1 // period:
                assert h0 == h1      # no clone happened in between
            if h0 != h1:
                assert g1 // period > g0 // period

    def test_clone_every_step_keeps_target_equal_to_online(self, rng):
        env = single_link_env()
        cfg = AgentConfig(train_steps=60, batch_size=8, train_start=8,
                          target_update_steps=1)

        checks = []

        def on_step(step, gs, net, target):
            if gs > 0:
                checks.append(np.array_equal(net.flat, target.flat))

        mlp = MLP.init((env.state_size, 6, env.num_actions), rng)
        ag.train(env, mlp, cfg, rng, agent_optimizer(mlp, cfg), on_step=on_step)
        assert checks and all(checks)

    def test_training_log_shape(self, rng):
        env = single_link_env()
        cfg = AgentConfig(train_steps=200, batch_size=8, train_start=8,
                          target_update_steps=20)
        mlp = MLP.init((env.state_size, 6, env.num_actions), rng)
        log, _ = ag.train(env, mlp, cfg, rng, agent_optimizer(mlp, cfg))
        assert sum(log["length"]) == 200
        assert log["episode"] == list(range(1, len(log["episode"]) + 1))
        assert all(t > 0 for t in log["throughput_bps"])


    def test_training_log_learning_signal(self, rng):
        env = PowerControlEnv(tiny_config())
        cfg = AgentConfig(train_steps=200, batch_size=8, train_start=8,
                          replay_capacity=50, target_update_steps=20)
        mlp = MLP.init((env.state_size, 6, env.num_actions), rng)
        # record the action values of every step's single-state forward pass
        forward, seen = mlp.forward, []
        mlp.forward = lambda state: seen.append(forward(state)) or seen[-1]
        counted = []    # the trainer's own gradient-step count, after each env step
        log, _ = ag.train(env, mlp, cfg, rng, agent_optimizer(mlp, cfg),
                          on_step=lambda step, gs, net, target: counted.append(gs))
        assert log["gradient_steps"][-1] == counted[-1]
        assert len(seen) == log["step"][-1] == cfg.train_steps
        start = 0
        for step, length, q_mean, q_max, buffer_fill in zip(
                log["step"], log["length"], log["q_mean"], log["q_max"],
                log["buffer_fill"], strict=True):
            assert buffer_fill == min(step, cfg.replay_capacity)
            greedy = [q.reshape(2, -1).max(axis=1)
                      for q in seen[start:start + length]]
            assert q_mean == pytest.approx(np.mean(greedy), rel=1e-12)
            assert q_max == np.max(greedy)
            start += length


class TestTestProtocol:
    def test_record_count_and_seeds(self, rng):
        env = single_link_env()
        mlp = MLP.init((env.state_size, 4, env.num_actions), rng)
        phase = ag.test(env, mlp, 7, seed=3,
                        ga_config=GAConfig(population_size=8, generations=5),
                        max_power_level=8.0)
        assert all(len(column) == 7 for column in phase.values())
        assert len(set(phase["channel_seed"])) == 7
        again = ag.test(env, mlp, 7, seed=3,
                        ga_config=GAConfig(population_size=8, generations=5),
                        max_power_level=8.0)
        assert again == phase

    def test_length_one_episode_falls_back_to_initial_allocation(self, rng):
        env = PowerControlEnv(tiny_config())
        # all-equal outputs make the greedy action the all-minimum power
        # vector, whose throughput equals the reset baseline -> immediate stop
        mlp = MLP(np.zeros((4, env.state_size)), np.zeros(4),
                  np.zeros((env.num_actions, 4)), np.zeros(env.num_actions))
        phase = ag.test(env, mlp, 4, seed=9,
                        ga_config=GAConfig(population_size=8, generations=5),
                        max_power_level=12.8)
        assert len(phase["dql_bps"]) == 4
        for seed, dql in zip(phase["channel_seed"], phase["dql_bps"], strict=True):
            ctx, _ = env.reset(np.random.default_rng([seed, 0]))
            expected = network_utility(ctx.current_power, ctx.channel)
            assert dql == pytest.approx(expected, rel=1e-12)

    def test_rollout_scores_each_allocation_with_one_serving_sinr(self, rng, monkeypatch):
        # the start allocation's throughput comes from the reset's SINR
        # pass: n steps make n + 1 serving_sinr calls and no network_utility call
        env = PowerControlEnv(tiny_config())
        mlp = MLP.init((env.state_size, 6, env.num_actions), rng)
        sinr_calls, utility_calls = [], []

        def counted(calls, fn):
            return lambda *args, **kwargs: calls.append(1) or fn(*args, **kwargs)

        sinr = counted(sinr_calls, netmodel.serving_sinr)
        for module in (env_module, netmodel):     # direct and through network_utility
            monkeypatch.setattr(module, "serving_sinr", sinr)
        for module in (ag, netmodel):
            monkeypatch.setattr(module, "network_utility",
                                counted(utility_calls, netmodel.network_utility),
                                raising=False)
        steps = []
        for seed in range(10):
            sinr_calls.clear()
            ctx, _, _ = ag.greedy_rollout(env, mlp, np.random.default_rng([seed, 0]))
            assert len(sinr_calls) == ctx.step_count + 1
            steps.append(ctx.step_count)
        assert utility_calls == [] and max(steps) > 1

    def test_network_input_is_the_decoded_state(self, rng):
        # every single state the network sees, while training and in a
        # greedy rollout, is the env's latest state over state_scale: a
        # missed decode would feed it CQI indices
        env = PowerControlEnv(tiny_config())
        mlp = MLP.init((env.state_size, 6, env.num_actions), rng)
        emitted, inputs = [], []

        def record(fn, index):      # index: where the state is in fn's result
            def run(*args):
                out = fn(*args)
                emitted.append(out[index])
                return out
            return run

        env.reset, env.step = record(env.reset, 1), record(env.step, 0)
        forward = mlp.forward

        def seen(x):
            if x.ndim == 1:
                inputs.append(x)
                assert x.tobytes() == (emitted[-1] / env.state_scale).tobytes()
                assert 0.0 <= x.min() and x.max() <= 1.0
            return forward(x)

        mlp.forward = seen
        cfg = AgentConfig(train_steps=100, batch_size=8, train_start=8,
                          target_update_steps=20)
        ag.train(env, mlp, cfg, rng, agent_optimizer(mlp, cfg))
        assert len(inputs) == cfg.train_steps
        for seed in range(5):
            ag.greedy_rollout(env, mlp, np.random.default_rng([seed, 0]))
        assert len(inputs) >= cfg.train_steps + 5

    def test_trained_single_cell_matches_ga_and_exhaustive(self):
        env = single_link_env()
        cfg = AgentConfig(train_steps=2000, batch_size=16, train_start=100,
                          target_update_steps=50, epsilon_anneal_steps=500,
                          learning_rate=0.001, discount=0.5)
        rng = np.random.default_rng(5)
        mlp = MLP.init((env.state_size, 8, env.num_actions), rng)
        ag.train(env, mlp, cfg, rng, agent_optimizer(mlp, cfg))
        phase = ag.test(env, mlp, 5, seed=31,
                        ga_config=GAConfig(population_size=10, generations=10),
                        max_power_level=8.0)
        assert len(phase["channel_seed"]) == 5
        for seed, dql, ga in zip(phase["channel_seed"], phase["dql_bps"],
                                 phase["ga_bps"], strict=True):
            ctx, _ = env.reset(np.random.default_rng([seed, 0]))
            _, best = exhaustive(ctx.channel, env.actions)
            assert dql == pytest.approx(best, rel=1e-12)
            assert ga == pytest.approx(best, rel=1e-12)

    def test_all_throughputs_non_negative(self, rng):
        env = single_link_env()
        mlp = MLP.init((env.state_size, 4, env.num_actions), rng)
        phase = ag.test(env, mlp, 3, seed=17,
                        ga_config=GAConfig(population_size=8, generations=4),
                        max_power_level=8.0)
        assert [c for c in phase if c.endswith("_bps")] == [f"{m}_bps" for m in ag.METHODS]
        for m in ag.METHODS:
            assert len(phase[f"{m}_bps"]) == 3
            assert all(v >= 0.0 for v in phase[f"{m}_bps"])
