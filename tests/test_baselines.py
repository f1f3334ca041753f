import itertools
import math

import numpy as np
import pytest

from cellpower import baselines as baselines_module
from cellpower.agent import greedy_rollout, sample_seeds
from cellpower.baselines import (
    BASELINES,
    DIAGNOSTICS,
    GAConfig,
    SearchSpaceTooLarge,
    _repair_table,
    exhaustive,
    ga_optimize,
    max_power_baseline,
    random_power_baseline,
    score,
    wmmse,
)
from cellpower.env import PowerControlEnv, enumerate_actions
from cellpower.harness import ExperimentSpec, evaluation_seed, scenario_preset
from cellpower.netmodel import (
    ChannelRealization,
    ConfigError,
    ScenarioConfig,
    build_topology,
    draw_channel,
    network_utility,
    snr_gap,
)
from cellpower.qnet import MLP

from conftest import (
    reference_budget_projected,
    reference_repair,
    reference_utility,
    synthetic_channel,
    tiny_config,
    tiny_instance,
)


def brute_force_best(channel, actions):
    best = -math.inf
    best_joint = None
    for joint in itertools.product(range(len(actions)), repeat=channel.gain.shape[1]):
        util = network_utility(actions[list(joint)], channel)
        if util > best:
            best = util
            best_joint = joint
    return best_joint, best


def reference_ga(channel, config, ga_config, rng):
    """GA that scores every individual of every generation: ga_optimize's
    loop before it kept the elites' and unchanged children's fitness."""
    levels = np.asarray(config.power_levels)
    n_levels = len(levels)
    num_cells, num_subbands = config.num_cells, config.num_subbands
    length = num_cells * num_subbands
    pop_size = ga_config.population_size
    n_children = pop_size - ga_config.elite_count
    table = _repair_table(levels, num_subbands, config.max_power)
    radix = n_levels ** np.arange(num_subbands - 1, -1, -1)

    def repair(genes):
        cells = genes.reshape(len(genes), num_cells, num_subbands)
        return table[cells @ radix].reshape(len(genes), length)

    best = [None, -math.inf, 0]

    def evaluate(population, generation):
        fits = network_utility(
            levels[population.reshape(pop_size, num_cells, num_subbands)], channel)
        top = int(np.argmax(fits))
        if fits[top] > best[1]:
            best[:] = population[top].copy(), float(fits[top]), generation
        return fits

    pop = repair(rng.integers(0, n_levels, size=(pop_size, length)))
    fits = evaluate(pop, 0)
    positions = np.arange(length)
    for generation in range(1, ga_config.generations + 1):
        elites = pop[np.argsort(-fits, kind="stable")[:ga_config.elite_count]]
        entrants = rng.integers(0, pop_size, size=(2, n_children, ga_config.tournament_size))
        winners = np.take_along_axis(entrants, fits[entrants].argmax(axis=2)[..., None],
                                     axis=2)[..., 0]
        parents, donors = pop[winners[0]], pop[winners[1]]
        cross = rng.random(n_children) < ga_config.crossover_prob
        cut = rng.integers(1, max(length, 2), size=n_children)
        tail = cross[:, None] & (positions >= cut[:, None])
        children = np.where(tail, donors, parents)
        mutate = rng.random((n_children, length)) < ga_config.mutation_prob
        fresh = rng.integers(0, n_levels, size=(n_children, length))
        pop = np.concatenate([elites, repair(np.where(mutate, fresh, children))])
        fits = evaluate(pop, generation)
    return levels[best[0].reshape(num_cells, num_subbands)], best[1], best[2]


# The test-phase networks and GA settings of perfbench's workloads
GA_WORKLOADS = {
    "desk": (tiny_config(num_cells=3), GAConfig(population_size=50, generations=60)),
    "scenario1": (scenario_preset("scenario1"), GAConfig()),
    "scenario3": (scenario_preset("scenario3"), GAConfig()),
}


class TestGa:
    def test_single_feasible_action(self):
        cfg = tiny_config(power_levels=(1.0,), max_power=3.0)
        _, channel, _ = tiny_instance(seed=1, power_levels=(1.0,),
                                          max_power=3.0)
        power, util, _ = ga_optimize(channel, cfg,
                                     GAConfig(population_size=4, generations=3),
                                     np.random.default_rng(0))
        assert np.array_equal(power, np.ones((2, 2)))
        assert util == pytest.approx(
            network_utility(np.ones((2, 2)), channel), rel=1e-12)

    def test_finds_exhaustive_optimum_on_small_instances(self):
        cfg = tiny_config()
        actions = enumerate_actions(cfg.power_levels, cfg.num_subbands, cfg.max_power)
        hits = 0
        for seed in range(20):
            _, channel, _ = tiny_instance(seed=seed)
            _, best = brute_force_best(channel, actions)
            _, got, _ = ga_optimize(channel, cfg,
                                    GAConfig(population_size=40, generations=40),
                                    np.random.default_rng(seed))
            assert got <= best + 1e-6
            if got == pytest.approx(best, rel=1e-12):
                hits += 1
            else:
                assert got >= 0.99 * best
        assert hits >= 19

    def test_deterministic_given_seed(self):
        cfg = tiny_config()
        _, channel, _ = tiny_instance(seed=3)
        ga_cfg = GAConfig(population_size=20, generations=15)
        p1, u1, _ = ga_optimize(channel, cfg, ga_cfg, np.random.default_rng(7))
        p2, u2, _ = ga_optimize(channel, cfg, ga_cfg, np.random.default_rng(7))
        assert u1 == u2
        assert np.array_equal(p1, p2)

    def test_never_worse_than_its_initial_population(self):
        # generations=0 returns the best of the (identically drawn) initial pop
        cfg = tiny_config()
        _, channel, _ = tiny_instance(seed=4)
        base = GAConfig(population_size=25, generations=0)
        full = GAConfig(population_size=25, generations=30)
        _, u0, _ = ga_optimize(channel, cfg, base, np.random.default_rng(11))
        _, u1, _ = ga_optimize(channel, cfg, full, np.random.default_rng(11))
        assert u1 >= u0

    def test_output_respects_budget_and_levels(self):
        cfg = tiny_config(max_power=26.0)   # forces the repair path
        _, channel, _ = tiny_instance(seed=5, max_power=26.0)
        power, _, _ = ga_optimize(channel, cfg,
                                  GAConfig(population_size=20, generations=10),
                                  np.random.default_rng(2))
        assert np.all(power.sum(axis=1) <= 26.0 + 1e-9)
        assert all(float(p) in cfg.power_levels for p in power.reshape(-1))

    @pytest.mark.parametrize("cfg", [tiny_config(max_power=26.0), ScenarioConfig()],
                             ids=["tiny-26W", "scenario1"])
    def test_repair_table_matches_loop(self, cfg):
        levels = np.asarray(cfg.power_levels)
        table = _repair_table(levels, cfg.num_subbands, cfg.max_power)
        tuples = list(itertools.product(range(len(levels)), repeat=cfg.num_subbands))
        assert table.shape == (len(tuples), cfg.num_subbands)
        repaired = [tuple(row) for row in table]
        assert repaired == [tuple(reference_repair(t, levels, cfg.max_power))
                            for t in tuples]
        assert repaired != tuples      # the budget binds on some tuples

    @pytest.mark.parametrize("max_power", [40.0, 26.0])
    def test_throughput_is_utility_of_returned_power(self, max_power):
        cfg, channel, _ = tiny_instance(seed=9, max_power=max_power)
        power, util, _ = ga_optimize(channel, cfg,
                                     GAConfig(population_size=30, generations=20),
                                     np.random.default_rng(3))
        assert type(util) is float
        assert util == network_utility(power, channel)

    def test_rerun_to_best_generation_returns_the_same_best(self):
        # the first g generations draw the same numbers whatever the budget,
        # so a run cut at the generation that found the best returns it
        cfg = ScenarioConfig()
        ga_cfg = GAConfig(population_size=20, generations=30)
        found_late = 0
        for seed in range(4):
            rng = np.random.default_rng(seed)
            channel = draw_channel(build_topology(cfg, rng), cfg, rng)
            power, util, generation = ga_optimize(channel, cfg, ga_cfg,
                                                  np.random.default_rng(seed))
            again = ga_optimize(channel, cfg,
                                GAConfig(population_size=20, generations=generation),
                                np.random.default_rng(seed))
            assert np.array_equal(again[0], power)
            assert again[1:] == (util, generation)
            found_late += generation > 0
        assert found_late

    @pytest.mark.parametrize("workload", GA_WORKLOADS)
    def test_matches_the_score_everything_reference(self, workload):
        cfg, ga_cfg = GA_WORKLOADS[workload]
        for seed in range(2):
            rng = np.random.default_rng([seed, 0])
            channel = draw_channel(build_topology(cfg, rng), cfg, rng)
            got = ga_optimize(channel, cfg, ga_cfg, np.random.default_rng([seed, 1]))
            want = reference_ga(channel, cfg, ga_cfg, np.random.default_rng([seed, 1]))
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]

    @pytest.mark.parametrize("overrides", [
        {"elite_count": 0}, {"generations": 0}, {"mutation_prob": 0.0},
        {"mutation_prob": 0.0, "crossover_prob": 0.0}])
    def test_edge_configs_match_the_reference(self, overrides):
        # with neither crossover nor mutation no child changes, and a
        # generation scores an empty batch
        cfg = GA_WORKLOADS["desk"][0]
        ga_cfg = GAConfig(**{"population_size": 30, "generations": 25, **overrides})
        for seed in range(3):
            rng = np.random.default_rng([seed, 0])
            channel = draw_channel(build_topology(cfg, rng), cfg, rng)
            got = ga_optimize(channel, cfg, ga_cfg, np.random.default_rng([seed, 1]))
            want = reference_ga(channel, cfg, ga_cfg, np.random.default_rng([seed, 1]))
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]

    def test_scores_only_the_changed_children(self, monkeypatch):
        cfg, ga_cfg = GA_WORKLOADS["desk"]
        rows = []

        def counted(power, channel):
            rows.append(len(power))
            return network_utility(power, channel)

        monkeypatch.setattr(baselines_module, "network_utility", counted)
        ga_optimize(desk_test_channel(0), cfg, ga_cfg, np.random.default_rng(5))
        pop_size, generations = ga_cfg.population_size, ga_cfg.generations
        assert len(rows) == generations + 1         # one call per generation
        assert rows[0] == pop_size
        assert max(rows[1:]) <= pop_size - ga_cfg.elite_count
        assert sum(rows) < pop_size * (generations + 1)

    def test_bad_ga_config_rejected(self):
        with pytest.raises(ConfigError):
            GAConfig(population_size=1)
        with pytest.raises(ConfigError):
            GAConfig(elite_count=10, population_size=10)
        with pytest.raises(ConfigError):
            GAConfig(crossover_prob=1.5)
        with pytest.raises(ConfigError, match="ga_generations"):
            GAConfig(generations=-1)


class TestExhaustive:
    def test_single_cell_is_best_action_scan(self):
        cfg = tiny_config(num_cells=1)
        actions = enumerate_actions(cfg.power_levels, cfg.num_subbands, cfg.max_power)
        _, channel, _ = tiny_instance(seed=6, num_cells=1)
        _, best = exhaustive(channel, actions)
        direct = max(network_utility(actions[[i]], channel)
                     for i in range(len(actions)))
        assert best == pytest.approx(direct, rel=1e-12)

    def test_matches_independent_product_scan(self):
        cfg = tiny_config()
        actions = enumerate_actions(cfg.power_levels, cfg.num_subbands, cfg.max_power)
        assert len(actions) == 9
        _, channel, _ = tiny_instance(seed=7)
        _, best = exhaustive(channel, actions)
        _, expected = brute_force_best(channel, actions)   # 81 scans
        assert best == pytest.approx(expected, rel=1e-12)

    def test_dominates_other_solvers(self):
        cfg = tiny_config()
        actions = enumerate_actions(cfg.power_levels, cfg.num_subbands, cfg.max_power)
        sums = {"exhaustive": 0.0, "ga": 0.0, "random": 0.0}
        for seed in range(10):
            _, channel, _ = tiny_instance(seed=seed)
            _, best = exhaustive(channel, actions)
            _, ga, _ = ga_optimize(channel, cfg,
                                GAConfig(population_size=20, generations=10),
                                np.random.default_rng(seed))
            rand = network_utility(
                random_power_baseline(actions, 2, np.random.default_rng(seed)),
                channel)
            maxp = network_utility(max_power_baseline(cfg, 12.8), channel)
            assert best >= ga - 1e-9
            assert best >= rand - 1e-9
            assert best >= maxp - 1e-9
            sums["exhaustive"] += best
            sums["ga"] += ga
            sums["random"] += rand
        assert sums["exhaustive"] >= sums["ga"] >= sums["random"]

    def test_cap_enforced(self):
        cfg = tiny_config()
        actions = enumerate_actions(cfg.power_levels, cfg.num_subbands, cfg.max_power)
        _, channel, _ = tiny_instance(seed=8)
        with pytest.raises(SearchSpaceTooLarge):
            exhaustive(channel, actions, cap=80)

    def test_tie_break_is_lexicographically_smallest(self):
        # all-zero gains make every joint action score zero
        actions = enumerate_actions((1.0, 2.0), 1, 4.0)
        channel = synthetic_channel(np.zeros((2, 2, 1)), noise_power=1.0, alpha=0.5)
        power, util = exhaustive(channel, actions)
        assert util == 0.0
        assert np.array_equal(power, [[1.0], [1.0]])

    @pytest.mark.parametrize("chunk", [1, 5, 80])
    def test_chunk_boundaries_keep_result_and_tie_break(self, monkeypatch, chunk):
        cfg = tiny_config()
        actions = enumerate_actions(cfg.power_levels, cfg.num_subbands, cfg.max_power)
        _, channel, _ = tiny_instance(seed=7)
        whole = exhaustive(channel, actions)
        tie_actions = enumerate_actions((1.0, 2.0), 1, 4.0)
        tie_channel = synthetic_channel(np.zeros((2, 2, 1)), noise_power=1.0, alpha=0.5)
        monkeypatch.setattr(baselines_module, "EXHAUSTIVE_CHUNK", chunk)
        power, util = exhaustive(channel, actions)
        assert util == whole[1]
        assert np.array_equal(power, whole[0])
        power, _ = exhaustive(tie_channel, tie_actions)
        assert np.array_equal(power, [[1.0], [1.0]])


class TestWmmse:
    def test_single_link_uses_full_budget(self):
        gain = np.full((1, 1, 1), 5.0)
        ch = synthetic_channel(gain, noise_power=1.0, bandwidth_hz=1.0, alpha=0.5)
        res = wmmse(ch, max_power=7.0)
        assert res.converged
        assert res.power[0, 0] == pytest.approx(7.0, rel=1e-6)

    def test_objective_monotone_and_budget_respected(self):
        for seed in range(10):
            cfg, channel, _ = tiny_instance(seed=40 + seed)
            res = wmmse(channel, cfg.max_power)
            hist = res.objective_history
            for a, b in zip(hist, hist[1:]):
                assert b >= a - 1e-9 * max(1.0, abs(a))
            assert np.all(res.power.sum(axis=1)
                          <= cfg.max_power * (1.0 + 1e-9))

    def test_zero_cross_gain_matches_grid_search(self):
        # no interference: each cell solves an independent two-subband split
        rng = np.random.default_rng(15)
        gains = np.zeros((2, 2, 2))
        gains[0, 0] = rng.uniform(0.5, 2.0, size=2)
        gains[1, 1] = rng.uniform(0.5, 2.0, size=2)
        noise, alpha, pmax, bandwidth = 1.0, 0.7, 10.0, 1.0
        ch = synthetic_channel(gains, noise_power=noise, bandwidth_hz=bandwidth,
                               alpha=alpha)
        res = wmmse(ch, pmax)

        def cell_best(g):
            grid = np.linspace(0.0, pmax, 4001)
            rates = (np.log2(1.0 + alpha * g[0] * grid / noise)
                     + np.log2(1.0 + alpha * g[1] * (pmax - grid) / noise))
            return rates.max()

        expected = cell_best(gains[0, 0]) + cell_best(gains[1, 1])
        assert res.throughput == pytest.approx(expected, rel=0.01)

    def test_non_convergence_flag(self):
        cfg, channel, _ = tiny_instance(seed=16)
        res = wmmse(channel, cfg.max_power, max_iters=1)
        assert not res.converged
        assert res.iterations == 1
        assert res.throughput == network_utility(res.power, channel)

    def test_scored_by_network_utility_on_the_real_channel(self):
        for seed in range(10):
            cfg, channel, _ = tiny_instance(seed=60 + seed)
            res = wmmse(channel, cfg.max_power)
            assert res.throughput == network_utility(res.power, channel)
            # the rate-max assignment is at least as good as the frozen one
            assert res.throughput >= max(res.objective_history) * (1.0 - 1e-12)
            # the frozen assignment is the rate-max one at uniform power
            uniform = np.full_like(res.power, cfg.max_power / cfg.num_subbands)
            assert res.objective_history[0] == pytest.approx(
                network_utility(uniform, channel), rel=1e-12)

    def test_budget_solve_matches_per_cell_bisection_on_scenario1(self, monkeypatch):
        # every budget solve of five real scenario1 solves, checked call by call
        cfg = scenario_preset("scenario1")
        solve = baselines_module._solve_budget
        calls = []

        def recorded(num, den, max_power):
            v = solve(num, den, max_power)
            calls.append((num.copy(), den.copy(), max_power, v.copy()))
            return v

        monkeypatch.setattr(baselines_module, "_solve_budget", recorded)
        for seed in range(5):
            rng = np.random.default_rng([seed, 0])
            ch = draw_channel(build_topology(cfg, rng), cfg, rng)
            start = len(calls)
            res = wmmse(ch, cfg.max_power)
            assert len(calls) - start == res.iterations      # one solve per map
            assert np.all(res.power.sum(axis=1) <= cfg.max_power)
            assert res.throughput == network_utility(res.power, ch)
        for num, den, max_power, v in calls:
            ref = np.array([reference_budget_projected(n, d, max_power)
                            for n, d in zip(num, den)])
            np.testing.assert_allclose(v, ref, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("max_iters", range(1, 8))
    def test_map_budget_is_a_bound(self, max_iters):
        for seed in range(5):
            cfg, channel, _ = tiny_instance(seed=70 + seed)
            res = wmmse(channel, cfg.max_power, max_iters=max_iters)
            assert res.iterations <= max_iters
            assert res.converged or res.iterations == max_iters
            hist = res.objective_history
            assert all(b >= a - 1e-9 * max(1.0, abs(a)) for a, b in zip(hist, hist[1:]))
            if max_iters == 1:
                assert not res.converged and res.iterations == 1

    @pytest.mark.parametrize("tol", [1e-4, 1e-8])
    def test_stops_at_the_first_cycle_within_tol(self, tol):
        outcomes = set()
        for index in range(18):
            res = wmmse(desk_test_channel(index), DESK_CONFIG.max_power, tol=tol)
            hist = res.objective_history
            within = [abs(b - a) <= tol * max(1.0, abs(a))
                      for a, b in zip(hist, hist[1:])]
            assert within[-1] == res.converged
            assert not any(within[:-1])
            if res.converged:
                assert res.iterations < 500
            else:
                assert res.iterations == 500
            outcomes.add(res.converged)
        assert outcomes == ({True, False} if tol == 1e-8 else {True})

    @pytest.mark.parametrize("max_iters", [500, 5, 4])
    def test_one_scoring_call_per_cycle(self, max_iters, monkeypatch):
        # one call at the start, one per SQUAREM cycle on the stacked
        # (v2, v3) pair, one per plain map and one on the real channel
        calls = []

        def counted(power, channel):
            calls.append((power.shape, channel))
            return network_utility(power, channel)

        monkeypatch.setattr(baselines_module, "network_utility", counted)
        for index in range(3):
            channel = desk_test_channel(index)
            calls.clear()
            res = wmmse(channel, DESK_CONFIG.max_power, max_iters=max_iters)
            steps = len(res.objective_history) - 1
            cycles = (res.iterations - steps) // 2          # 3 maps against 1
            assert 3 * cycles + (steps - cycles) == res.iterations
            assert len(calls) == 1 + steps + 1
            shapes = [shape for shape, _ in calls]
            assert shapes[1:-1].count((2, 3, 2)) == cycles
            assert shapes.count((3, 2)) == 2 + steps - cycles
            assert calls[-1][1] is channel
            assert all(ch is not channel and ch.users_per_cell == 1
                       for _, ch in calls[:-1])

    @pytest.mark.parametrize("index, cell", [(2, 2), (46, 0)])
    def test_extrapolation_keeps_a_cell_that_plain_wmmse_keeps(self, index, cell):
        # On these channels 500 plain maps end with the cell at 29 and 40 W,
        # while an extrapolation that is only clipped at zero silences it for
        # good: zero is a fixed point of the map.
        res = wmmse(desk_test_channel(index), DESK_CONFIG.max_power)
        assert res.power[cell].sum() > 1.0


DESK_CONFIG = tiny_config(num_cells=3)      # the sample-experiment.cfg network


def desk_test_channel(index):
    """Channel of test sample `index` of a desk run at master seed 0."""
    seed = sample_seeds(evaluation_seed(0), index + 1)[index]
    rng = np.random.default_rng([seed, 0])
    return draw_channel(build_topology(DESK_CONFIG, rng), DESK_CONFIG, rng)


def budget_inputs(rng, num_cells, num_subbands=3, max_power=40.0):
    """Random multiplier-solve inputs: cells within budget, just over, and
    up to 1e8 times over it, with zero num entries (some with den = 0)."""
    den = rng.uniform(0.05, 2.0, size=(num_cells, num_subbands))
    scale = rng.choice([0.5, 1.2, 3.0, 1e3, 1e8], size=num_cells)
    num = (rng.uniform(0.2, 1.0, size=den.shape) * den
           * math.sqrt(max_power / num_subbands) * scale[:, None])
    zero = rng.random(den.shape) < 0.2
    num[zero] = 0.0
    den[zero & (rng.random(den.shape) < 0.5)] = 0.0
    return num, den


class TestBudgetSolve:
    @pytest.mark.parametrize("num_cells", [1, 3, 15])
    def test_matches_per_cell_bisection(self, num_cells):
        rng = np.random.default_rng(num_cells)
        max_power = 40.0
        seen = {"zero": 0, "within": 0, "far_over": 0}
        for _ in range(40):
            num, den = budget_inputs(rng, num_cells, max_power=max_power)
            if num_cells == 15:
                num[3] = 0.0                     # a cell with nothing to send
            v = baselines_module._solve_budget(num, den, max_power)
            ref = np.array([reference_budget_projected(n, d, max_power)
                            for n, d in zip(num, den)])
            np.testing.assert_allclose(v, ref, rtol=1e-12, atol=0.0)
            assert np.all((v ** 2).sum(axis=1) <= max_power)
            assert np.all(v[num == 0.0] == 0.0)
            active = num > 0.0
            unconstrained = np.zeros_like(num)
            unconstrained[active] = num[active] / den[active]
            need = (unconstrained ** 2).sum(axis=1)
            seen["zero"] += int((num == 0.0).sum())
            seen["within"] += int((need <= max_power).sum())
            seen["far_over"] += int((need > 1e6 * max_power).sum())
            # a cell within budget keeps mu = 0
            within = need <= max_power
            assert np.array_equal(v[within], unconstrained[within])
        assert all(count > 0 for count in seen.values())

    def test_single_subband_lands_on_the_budget(self):
        num = np.array([[3.0], [50.0], [0.0]])
        den = np.array([[1.0], [0.5], [0.0]])
        v = baselines_module._solve_budget(num, den, 4.0)
        assert v[0, 0] == pytest.approx(2.0, rel=1e-15)
        assert v[1, 0] == pytest.approx(2.0, rel=1e-15)
        assert v[2, 0] == 0.0
        assert np.all((v ** 2).sum(axis=1) <= 4.0)


class TestMaxPower:
    def test_reference_level_fits_default_budget(self):
        power = max_power_baseline(ScenarioConfig(), ExperimentSpec().max_power_level)
        assert np.all(power == 12.8)
        assert np.all(power.sum(axis=1) == pytest.approx(38.4))

    def test_single_subband(self):
        cfg = tiny_config(num_subbands=1)
        assert np.array_equal(max_power_baseline(cfg, 12.8), [[12.8], [12.8]])

    def test_budget_violation_rejected(self):
        cfg = tiny_config(num_subbands=3, max_power=30.0)
        with pytest.raises(ConfigError):
            max_power_baseline(cfg, 12.8)


class TestRandomPower:
    def test_single_action_is_deterministic(self):
        actions = enumerate_actions((2.0,), 2, 10.0)
        p = random_power_baseline(actions, 3, np.random.default_rng(0))
        assert np.array_equal(p, np.full((3, 2), 2.0))

    def test_uniform_over_actions(self):
        actions = enumerate_actions((1.0, 2.0), 2, 4.0)
        assert len(actions) == 4
        rng = np.random.default_rng(1)
        counts = np.zeros(len(actions))
        trials = 100_000
        rows = [tuple(r) for r in actions]
        for _ in range(trials // 4):
            power = random_power_baseline(actions, 4, rng)
            for cell_row in power:
                counts[rows.index(tuple(cell_row))] += 1
        assert np.all(np.abs(counts / trials - 0.25) < 0.02)

    def test_always_feasible(self, rng):
        cfg = tiny_config()
        actions = enumerate_actions(cfg.power_levels, cfg.num_subbands, cfg.max_power)
        for _ in range(200):
            power = random_power_baseline(actions, 2, rng)
            assert np.all(power.sum(axis=1) <= cfg.max_power + 1e-9)


class TestScore:
    """The per-sample scorer: each solver on the given channel, with GA and
    the random allocation seeded from the sample seed."""

    def setup_method(self):
        self.env = PowerControlEnv(tiny_config())
        self.ctx, _ = self.env.reset(np.random.default_rng([77, 0]))
        self.ga = GAConfig(population_size=8, generations=5)

    def run(self, name):
        return score(name, self.ctx.channel, self.env, 77, self.ga, 12.8)

    def test_seed_layout_and_values(self):
        env, ch = self.env, self.ctx.channel
        _, ga, generation = ga_optimize(ch, env.config, self.ga,
                                        np.random.default_rng([77, 1]))
        assert self.run("ga") == (ga, {"best_generation": generation})
        rand = random_power_baseline(env.actions, 2, np.random.default_rng([77, 2]))
        assert self.run("random") == (network_utility(rand, ch), {})
        mx = max_power_baseline(env.config, 12.8)
        assert self.run("maxpower") == (network_utility(mx, ch), {})
        assert self.run("exhaustive") == (
            exhaustive(ch, env.actions)[1], {})

    def test_wmmse_diagnostics(self):
        res = wmmse(self.ctx.channel, 40.0)
        assert self.run("wmmse") == (res.throughput, {
            "iterations": res.iterations, "converged": res.converged})

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown baseline"):
            self.run("oracle")

    def test_diagnostic_names_are_declared(self):
        # agent.test files each diagnostic under `<solver>_<key>`
        for name in BASELINES:
            _, diagnostics = self.run(name)
            assert [f"{name}_{key}" for key in diagnostics] == [
                d for d in DIAGNOSTICS if d.startswith(f"{name}_")]


class TestScoredAtTheChannelsGap:
    """At target_ber = 1e-3 (SNR gap about 0.283, not the default 0.123),
    every method's throughput is the brute-force objective at the gap the
    test computes from the config, so no scorer can use another gap."""

    def setup_method(self):
        self.env = PowerControlEnv(tiny_config(target_ber=1e-3))
        self.alpha = snr_gap(self.env.config.target_ber)
        self.ctx, _ = self.env.reset(np.random.default_rng([91, 0]))
        self.ga = GAConfig(population_size=8, generations=5)

    def oracle(self, power):
        return reference_utility(power, self.ctx.channel, self.alpha)

    def run(self, name):
        return score(name, self.ctx.channel, self.env, 91, self.ga, 12.8)[0]

    def test_channel_carries_the_configs_gap(self):
        cfg = tiny_config(target_ber=1e-3)
        rng = np.random.default_rng(5)
        channel = draw_channel(build_topology(cfg, rng), cfg, rng)
        assert channel.alpha == snr_gap(1e-3)
        assert self.ctx.channel.alpha == snr_gap(1e-3)

    def test_channel_without_gap_rejected(self):
        with pytest.raises(TypeError):
            ChannelRealization(np.ones((1, 1, 1)), 1.0, 1.0)

    def test_env_reset_and_step(self):
        ctx = self.ctx
        min_power = self.env.actions[np.zeros(2, dtype=int)]
        assert ctx.previous_throughput == pytest.approx(self.oracle(min_power), rel=1e-12)
        rng = np.random.default_rng(3)
        while not ctx.terminal:
            _, _, _, throughput = self.env.step(
                ctx, rng.integers(0, len(self.env.actions), size=2))
            assert throughput == pytest.approx(self.oracle(ctx.current_power), rel=1e-12)

    def test_greedy_rollout(self):
        env = self.env
        mlp = MLP.init((env.state_size, 6, env.num_actions), np.random.default_rng(4))
        for seed in range(5):
            ctx, action, throughput = greedy_rollout(env, mlp,
                                                     np.random.default_rng([seed, 0]))
            assert throughput == pytest.approx(
                reference_utility(env.actions[list(action)], ctx.channel, self.alpha),
                rel=1e-12)

    def test_reference_solvers(self):
        env = self.env
        ga_power, _, _ = ga_optimize(self.ctx.channel, env.config, self.ga,
                                     np.random.default_rng([91, 1]))
        assert self.run("ga") == pytest.approx(self.oracle(ga_power), rel=1e-12)
        assert self.run("maxpower") == pytest.approx(
            self.oracle(max_power_baseline(env.config, 12.8)), rel=1e-12)
        rand = random_power_baseline(env.actions, 2, np.random.default_rng([91, 2]))
        assert self.run("random") == pytest.approx(self.oracle(rand), rel=1e-12)
        optimum = max(self.oracle(env.actions[list(joint)])
                      for joint in itertools.product(range(len(env.actions)), repeat=2))
        assert self.run("exhaustive") == pytest.approx(optimum, rel=1e-12)

    def test_wmmse(self):
        res = wmmse(self.ctx.channel, self.env.config.max_power)
        assert res.throughput == pytest.approx(self.oracle(res.power), rel=1e-12)
        assert self.run("wmmse") == res.throughput
        # the first objective is on the virtual channel, which copies the gap
        cfg = self.env.config
        uniform = np.full_like(res.power, cfg.max_power / cfg.num_subbands)
        assert res.objective_history[0] == pytest.approx(self.oracle(uniform), rel=1e-12)

    def test_wmmse_water_fills_at_the_channels_gap(self):
        # one link on two subbands: the optimum is water-filling on
        # alpha * g_f / noise, which leaves subband 1 silent at the default gap
        gain = np.array([[[1.0, 0.25]]])
        ch = synthetic_channel(gain, noise_power=1.0, alpha=self.alpha)
        floor = 1.0 / (self.alpha * gain[0, 0])             # 3.53 and 14.1
        level = (12.0 + floor.sum()) / 2                     # 14.8, above both floors
        res = wmmse(ch, 12.0)
        assert res.converged
        np.testing.assert_allclose(res.power[0], level - floor, rtol=0.0, atol=1e-3)

