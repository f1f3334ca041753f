import hashlib

import numpy as np
import pytest

from cellpower import agent as ag
from cellpower.agent import AgentConfig, bellman_targets, select_joint_action
from cellpower.baselines import GAConfig, exhaustive
from cellpower.env import PowerControlEnv
from cellpower.netmodel import network_utility
from cellpower.qnet import MLP

from conftest import agent_optimizer, tiny_config


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
        with pytest.raises(ValueError, match=f"hidden_size must be >= 1, got {hidden_size}"):
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


class TestBellmanTargets:
    def _batch(self, rng, net, n=6, terminal_mask=None):
        """(rewards, next_states, terminals) of n random transitions."""
        in_size = net.layer_sizes[0]
        terminals = (np.array(terminal_mask) if terminal_mask is not None
                     else rng.random(n) < 0.5)
        return rng.choice([-1.0, 1.0], size=n), rng.random((n, in_size)), terminals

    def test_zero_discount_terminal_batch_equals_rewards(self, rng):
        net = MLP.init((4, 6, 8), rng)
        rewards, next_states, terminals = self._batch(rng, net,
                                                      terminal_mask=[True] * 6)
        y = bellman_targets(net, rewards, next_states, terminals, 0.0, 2)
        for i, r in enumerate(rewards):
            assert np.all(y[i] == r)

    def test_matches_naive_recomputation(self, rng):
        net = MLP.init((4, 6, 8), rng)
        rewards, next_states, terminals = self._batch(rng, net)
        gamma = 0.97
        y = bellman_targets(net, rewards, next_states, terminals, gamma, 2)
        for i in range(len(rewards)):
            q = net.forward(next_states[i])
            for k in range(2):
                expected = rewards[i] if terminals[i] else (
                    rewards[i] + gamma * max(q[4 * k: 4 * (k + 1)]))
                assert abs(y[i, k] - expected) < 1e-12


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
            action = select_joint_action(mlp.forward(state), 0.0, 1, None)
            assert action[0] == 1

    def test_one_gradient_step_per_env_step_once_full(self, rng):
        env = single_link_env()
        cfg = AgentConfig(train_steps=50, batch_size=8, train_start=8,
                          target_update_steps=10)
        mlp = MLP.init((env.state_size, 6, env.num_actions), rng)
        result = ag.train(env, mlp, cfg, rng, agent_optimizer(mlp, cfg))
        # the first gradient step comes at the env step that fills the buffer
        # to train_start, and every later env step takes one more
        assert result.gradient_steps == cfg.train_steps - cfg.train_start + 1

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
        result = ag.train(env, mlp, cfg, rng, agent_optimizer(mlp, cfg))
        assert sum(e.length for e in result.episodes) == 200
        assert [e.episode for e in result.episodes] == list(
            range(1, len(result.episodes) + 1))
        assert all(e.throughput > 0 for e in result.episodes)


    def test_training_log_learning_signal(self, rng):
        env = PowerControlEnv(tiny_config())
        cfg = AgentConfig(train_steps=200, batch_size=8, train_start=8,
                          replay_capacity=50, target_update_steps=20)
        mlp = MLP.init((env.state_size, 6, env.num_actions), rng)
        # record the action values of every step's single-state forward pass
        forward, seen = mlp.forward, []
        mlp.forward = lambda state: seen.append(forward(state)) or seen[-1]
        result = ag.train(env, mlp, cfg, rng, agent_optimizer(mlp, cfg))
        last = result.episodes[-1]
        assert last.gradient_steps == result.gradient_steps
        assert len(seen) == last.step == cfg.train_steps
        start = 0
        for e in result.episodes:
            assert e.buffer_fill == min(e.step, cfg.replay_capacity)
            greedy = [q.reshape(2, -1).max(axis=1)
                      for q in seen[start:start + e.length]]
            assert e.q_mean == pytest.approx(np.mean(greedy), rel=1e-12)
            assert e.q_max == np.max(greedy)
            start += e.length


class TestTestProtocol:
    def test_record_count_and_seeds(self, rng):
        env = single_link_env()
        mlp = MLP.init((env.state_size, 4, env.num_actions), rng)
        records = ag.test(env, mlp, 7, seed=3,
                          ga_config=GAConfig(population_size=8, generations=5),
                          max_power_level=8.0)
        assert len(records) == 7
        assert len({r.channel_seed for r in records}) == 7
        again = ag.test(env, mlp, 7, seed=3,
                        ga_config=GAConfig(population_size=8, generations=5),
                        max_power_level=8.0)
        assert [r.channel_seed for r in again] == [r.channel_seed for r in records]
        assert [r.throughput for r in again] == [r.throughput for r in records]

    def test_length_one_episode_falls_back_to_initial_allocation(self, rng):
        env = PowerControlEnv(tiny_config())
        # all-equal outputs make the greedy action the all-minimum power
        # vector, whose throughput equals the reset baseline -> immediate stop
        mlp = MLP(np.zeros((4, env.state_size)), np.zeros(4),
                  np.zeros((env.num_actions, 4)), np.zeros(env.num_actions))
        records = ag.test(env, mlp, 4, seed=9,
                          ga_config=GAConfig(population_size=8, generations=5),
                          max_power_level=12.8)
        for rec in records:
            ctx, _ = env.reset(np.random.default_rng([rec.channel_seed, 0]))
            expected = network_utility(ctx.current_power, ctx.channel, env.alpha)
            assert rec.throughput["dql"] == pytest.approx(expected, rel=1e-12)

    def test_trained_single_cell_matches_ga_and_exhaustive(self):
        env = single_link_env()
        cfg = AgentConfig(train_steps=2000, batch_size=16, train_start=100,
                          target_update_steps=50, epsilon_anneal_steps=500,
                          learning_rate=0.001, discount=0.5)
        rng = np.random.default_rng(5)
        mlp = MLP.init((env.state_size, 8, env.num_actions), rng)
        ag.train(env, mlp, cfg, rng, agent_optimizer(mlp, cfg))
        records = ag.test(env, mlp, 5, seed=31,
                          ga_config=GAConfig(population_size=10, generations=10),
                          max_power_level=8.0)
        for rec in records:
            ctx, _ = env.reset(np.random.default_rng([rec.channel_seed, 0]))
            _, best = exhaustive(ctx.channel, env.actions, env.alpha)
            assert rec.throughput["dql"] == pytest.approx(best, rel=1e-12)
            assert rec.throughput["ga"] == pytest.approx(best, rel=1e-12)

    def test_all_throughputs_non_negative(self, rng):
        env = single_link_env()
        mlp = MLP.init((env.state_size, 4, env.num_actions), rng)
        for rec in ag.test(env, mlp, 3, seed=17,
                           ga_config=GAConfig(population_size=8, generations=4),
                           max_power_level=8.0):
            assert list(rec.throughput) == list(ag.METHODS)
            assert all(v >= 0.0 for v in rec.throughput.values())
