import math

import numpy as np
import pytest

from cellpower.netmodel import (
    ConfigError,
    ScenarioConfig,
    _hex_spiral,
    assign_subbands,
    build_topology,
    cqi_quantize_array,
    db_to_linear,
    dbm_per_hz_to_watts,
    draw_channel,
    location_indicator,
    network_utility,
    serving_sinr,
    snr_gap,
)

from conftest import (
    reference_cqi,
    reference_drop,
    reference_sinr,
    reference_utility,
    synthetic_channel,
    synthetic_topology,
    tiny_config,
    tiny_instance,
)


class TestSnrGap:
    def test_reference_ber(self):
        # -1.5 / ln(5e-6) evaluated independently
        assert snr_gap(1e-6) == pytest.approx(0.12288965038638332, rel=1e-12)

    def test_formula_fixed_point(self):
        ber = math.exp(-1.5) / 5.0     # ln(5 BER) = -1.5
        assert snr_gap(ber) == pytest.approx(1.0, rel=1e-12)

    def test_looser_ber(self):
        assert snr_gap(1e-3) == pytest.approx(0.2831087487266323, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 0.2, 0.5, -1e-3])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ConfigError):
            snr_gap(bad)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = ScenarioConfig()
        assert cfg.num_users == 25

    def test_non_increasing_levels_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(power_levels=(6.4, 6.4, 9.6))

    def test_infeasible_minimum_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(power_levels=(15.0, 20.0), num_subbands=3,
                           max_power=40.0)

    def test_bad_ber_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(target_ber=0.5)

    def test_bad_min_distance_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(min_user_distance=600.0, cell_radius=500.0)


def test_noise_power_reference_value():
    # 10^((-174 + 10 log10(2.88e6) - 30)/10) evaluated independently
    assert dbm_per_hz_to_watts(-174.0, 2.88e6) == pytest.approx(
        1.146548651194076e-14, rel=1e-9)
    assert ScenarioConfig().noise_power == pytest.approx(1.147e-14, rel=1e-3)


PITCH = 2.0 * 500.0 * math.cos(math.pi / 6.0)   # ~866 m at R = 500 m


class TestTopology:
    def test_single_cell_at_origin(self, rng):
        cfg = tiny_config(num_cells=1)
        assert np.allclose(_hex_spiral(1, PITCH)[0], 0.0)
        dist = build_topology(cfg, rng)
        assert dist.shape == (cfg.num_users, 1)
        assert np.all(dist <= cfg.cell_radius)

    def test_hex_grid_spacing(self):
        bs = _hex_spiral(5, PITCH)
        d = np.linalg.norm(bs[:, None] - bs[None, :], axis=2)
        off_diag = d[~np.eye(5, dtype=bool)]
        assert off_diag.min() == pytest.approx(PITCH, rel=1e-9)

    def test_hex_grid_built_once_and_read_only(self):
        bs = _hex_spiral(5, PITCH)
        assert _hex_spiral(5, PITCH) is bs
        with pytest.raises(ValueError):
            bs[0, 0] = 1.0

    def test_user_distance_bounds(self, rng):
        cfg = ScenarioConfig(num_cells=3, users_per_cell=40)
        dist = build_topology(cfg, rng)
        users = np.arange(cfg.num_users)
        serving = dist[users, users // cfg.users_per_cell]
        assert np.all(serving >= cfg.min_user_distance)
        assert np.all(serving <= cfg.cell_radius)

    def test_users_are_cell_major(self):
        # the loop drops user u in the disk of cell u // U; its positions give
        # the distances build_topology returns
        cfg = tiny_config()
        dist = build_topology(cfg, np.random.default_rng(4))
        bs, positions, _ = reference_drop(cfg, np.random.default_rng(4))
        for u in range(cfg.num_users):
            k = u // cfg.users_per_cell
            d = np.linalg.norm(positions[u] - bs[k])
            assert cfg.min_user_distance <= d <= cfg.cell_radius
            assert dist[u, k] == pytest.approx(d, rel=1e-12)

    def test_same_seed_same_drop(self):
        cfg = tiny_config()
        d1 = build_topology(cfg, np.random.default_rng(9))
        d2 = build_topology(cfg, np.random.default_rng(9))
        assert np.array_equal(d1, d2)


class TestDropOracle:
    """build_topology against the per-user loop of conftest.reference_drop."""

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(num_cells=3, users_per_cell=3),              # desk
        ScenarioConfig(num_cells=5),                                # scenario1
        ScenarioConfig(num_cells=10),                               # scenario2
        ScenarioConfig(num_cells=15),                               # scenario3
        ScenarioConfig(num_cells=2, users_per_cell=40),             # many rejections
        ScenarioConfig(num_cells=5, min_user_distance=0.9 * 500.0),  # mostly rejections
        # about 98% of radii redrawn: nearly every user takes several blocks
        ScenarioConfig(num_cells=5, users_per_cell=1, min_user_distance=0.99 * 500.0),
    ], ids=["desk", "scenario1", "scenario2", "scenario3", "u40", "min0.9R", "u1min0.99R"])
    def test_bitwise_equal_to_loop(self, cfg):
        users = np.arange(cfg.num_users)
        cells = users // cfg.users_per_cell
        for seed in range(1000):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            dist = build_topology(cfg, rng)
            ref = reference_drop(cfg, ref_rng)[2]
            assert np.array_equal(dist, ref), seed
            assert rng.bit_generator.state == ref_rng.bit_generator.state, seed
            assert np.array_equal(location_indicator(dist, cfg.cell_radius),
                                  (ref[users, cells] > cfg.cell_radius / 2.0)
                                  .astype(float)), seed


class TestChannel:
    def test_unit_mean_fading_when_pathloss_off(self):
        # PL = 0 dB and no shadowing leave the exponential fading bare
        cfg = ScenarioConfig(num_cells=1, users_per_cell=100, num_subbands=100,
                             power_levels=(0.1,), max_power=100.0,
                             pathloss_ref_db=0.0, pathloss_exp_db_per_decade=0.0,
                             shadowing_sigma=0.0)
        rng = np.random.default_rng(3)
        dist = build_topology(cfg, rng)
        gains = [draw_channel(dist, cfg, rng).gain for _ in range(10)]
        mean = np.mean(gains)     # 1e5 unit-mean exponential draws
        assert abs(mean - 1.0) < 0.02

    def test_gain_dimensions_and_noise(self, rng):
        cfg, channel, _ = tiny_instance()
        assert channel.gain.shape == (6, 2, 2)
        assert (channel.num_cells, channel.users_per_cell,
                channel.num_subbands) == (2, 3, 2)
        assert np.all(channel.gain > 0)
        assert channel.noise_power == pytest.approx(cfg.noise_power)

    def test_identity_of_db_map(self):
        assert db_to_linear(-0.0) == 1.0


class TestSinr:
    def test_single_cell_unit_case(self):
        ch = synthetic_channel(np.ones((1, 1, 1)), noise_power=1.0)
        assert serving_sinr(np.array([[1.0]]), ch)[0, 0] == pytest.approx(1.0)

    def test_hand_arithmetic_with_interferer(self):
        # user 0 is served by cell 0 and hears cell 1; user 1 is cell 1's
        gain = np.zeros((2, 2, 1))
        gain[0, 0, 0] = 0.5
        gain[0, 1, 0] = 0.9
        ch = synthetic_channel(gain, noise_power=0.1)
        power = np.array([[2.0], [1.0]])
        assert serving_sinr(power, ch)[0, 0] == pytest.approx(1.0)

    def test_zero_power_zero_sinr(self):
        ch = synthetic_channel(np.ones((2, 2, 1)), noise_power=1.0)
        power = np.array([[0.0], [5.0]])
        assert serving_sinr(power, ch)[0, 0] == 0.0

    def test_matches_reference_on_random_instance(self, rng):
        cfg, channel, _ = tiny_instance(seed=5)
        power = rng.uniform(0.0, 20.0, size=(2, 2))
        s = serving_sinr(power, channel)
        for u in range(6):
            k = u // 3       # cell-major: 3 users per cell
            for f in range(2):
                assert s[u, f] == pytest.approx(
                    reference_sinr(power, channel, u, k, f), rel=1e-12)

    def test_vectorized_serving_sinr_matches_scalar(self, rng):
        # a batch of allocations gives the SINRs of each one alone
        cfg, channel, _ = tiny_instance(seed=6)
        power = rng.uniform(0.0, 20.0, size=(4, 2, 2))
        s = serving_sinr(power, channel)
        assert s.shape == (4, 6, 2)
        for b in range(4):
            assert np.array_equal(s[b], serving_sinr(power[b], channel))

    def test_monotone_in_own_and_interferer_power(self, rng):
        # user 0 is served by cell 0
        cfg, channel, _ = tiny_instance(seed=7)
        power = rng.uniform(1.0, 10.0, size=(2, 2))
        base = serving_sinr(power, channel)[0, 0]
        up = power.copy()
        up[0, 0] *= 1.5
        assert serving_sinr(up, channel)[0, 0] >= base
        worse = power.copy()
        worse[1, 0] *= 1.5
        assert serving_sinr(worse, channel)[0, 0] <= base

    def test_scaling_power_and_noise_together(self, rng):
        cfg, channel, _ = tiny_instance(seed=8)
        power = rng.uniform(1.0, 10.0, size=(2, 2))
        scaled = synthetic_channel(channel.gain, channel.noise_power * 7.0,
                                   channel.bandwidth_hz)
        s1 = serving_sinr(power, channel)
        s2 = serving_sinr(power * 7.0, scaled)
        assert np.allclose(s1, s2, rtol=1e-12)


class TestInterferenceKernel:
    """serving_sinr's per-subband product against the derived gain arrays,
    at scenario3 size (15 cells x 5 users, 3 subbands)."""

    @staticmethod
    def _scenario3_channel(seed):
        cfg = ScenarioConfig(num_cells=15)
        rng = np.random.default_rng(seed)
        return cfg, draw_channel(build_topology(cfg, rng), cfg, rng), rng

    def test_derived_arrays_agree_with_gain(self):
        cfg, channel, _ = self._scenario3_channel(31)
        users = np.arange(cfg.num_users)
        serving = users // cfg.users_per_cell
        assert channel.serving_gain.shape == (75, 3)
        assert np.array_equal(channel.serving_gain, channel.gain[users, serving, :])
        interference = channel.interference_gain
        assert interference.shape == (3, 15, 75)
        assert interference.flags.c_contiguous
        assert np.all(interference[:, serving, users] == 0.0)
        cross = np.ones((75, 15), dtype=bool)
        cross[users, serving] = False
        assert np.array_equal(interference.transpose(2, 1, 0)[cross], channel.gain[cross])

    @pytest.mark.parametrize("shape", [(), (6,)])
    def test_matches_reference_at_scenario3_size(self, shape):
        cfg, channel, rng = self._scenario3_channel(32)
        power = rng.uniform(0.0, 13.0, size=shape + (15, 3))
        got = serving_sinr(power, channel)
        assert got.shape == shape + (75, 3)
        for index in np.ndindex(*shape):
            for u in range(75):
                for f in range(3):
                    assert got[index][u, f] == pytest.approx(
                        reference_sinr(power[index], channel, u, u // 5, f), rel=1e-12)

    @pytest.mark.parametrize("shape", [(100,), (2, 3)])
    def test_batch_equals_single_allocations_exactly(self, shape):
        cfg, channel, rng = self._scenario3_channel(33)
        levels = np.asarray(cfg.power_levels)
        power = levels[rng.integers(0, len(levels), size=shape + (15, 3))]
        got = serving_sinr(power, channel)
        assert got.shape == shape + (75, 3)
        for index in np.ndindex(*shape):
            assert np.array_equal(got[index], serving_sinr(power[index], channel))


class TestAssignment:
    def test_single_user_cells(self, rng):
        cfg, channel, _ = tiny_instance(seed=9, users_per_cell=1)
        power = np.full((2, 2), 10.0)
        a = assign_subbands(power, channel)
        assert np.array_equal(a, [[0, 0], [1, 1]])

    def test_stronger_gain_wins_without_interference(self):
        gain = np.zeros((2, 1, 1))
        gain[0, 0, 0] = 1.0
        gain[1, 0, 0] = 2.0
        ch = synthetic_channel(gain, noise_power=1.0, alpha=1.0)
        a = assign_subbands(np.array([[1.0]]), ch)
        assert a[0, 0] == 1

    def test_matches_per_subband_brute_force(self, rng):
        cfg, channel, alpha = tiny_instance(seed=10)
        power = rng.uniform(0.0, 20.0, size=(2, 2))
        a = assign_subbands(power, channel)
        for k in range(2):
            for f in range(2):
                rates = {u: math.log2(1 + alpha * reference_sinr(power, channel, u, k, f))
                         for u in range(3 * k, 3 * (k + 1))}
                assert rates[a[k, f]] == max(rates.values())

    def test_assigned_user_dominates_cellmates(self, rng):
        cfg, channel, _ = tiny_instance(seed=11, users_per_cell=4)
        power = rng.uniform(0.0, 20.0, size=(2, 2))
        a = assign_subbands(power, channel)
        s = serving_sinr(power, channel)
        for k in range(2):
            for f in range(2):
                for u in range(4 * k, 4 * (k + 1)):
                    assert s[a[k, f], f] >= s[u, f]


class TestNetworkUtility:
    def test_zero_power_zero_utility(self):
        cfg, channel, _ = tiny_instance(seed=12)
        assert network_utility(np.zeros((2, 2)), channel) == 0.0

    def test_unit_log_argument_gives_bandwidth(self):
        # alpha * SINR = 1  ->  utility = B * log2(2) = B
        alpha = 0.5
        gain = np.ones((1, 1, 1)) * 2.0
        ch = synthetic_channel(gain, noise_power=1.0, bandwidth_hz=123.0, alpha=alpha)
        assert network_utility(np.array([[1.0]]), ch) == pytest.approx(123.0)

    def test_matches_brute_force(self, rng):
        for seed in range(5):
            cfg, channel, alpha = tiny_instance(seed=seed)
            power = rng.uniform(0.0, 20.0, size=(2, 2))
            expected = reference_utility(power, channel, alpha)
            assert network_utility(power, channel) == pytest.approx(
                expected, rel=1e-12)

    def test_ratio_invariant_to_log_base(self, rng):
        # switching log2 -> ln scales every term by one constant
        for seed in range(20):
            cfg, channel, alpha = tiny_instance(seed=100 + seed)
            p1 = rng.uniform(0.0, 20.0, size=(2, 2))
            p2 = rng.uniform(0.0, 20.0, size=(2, 2))
            r_log2 = (reference_utility(p1, channel, alpha, log=math.log2)
                      / reference_utility(p2, channel, alpha, log=math.log2))
            r_ln = (reference_utility(p1, channel, alpha, log=math.log)
                    / reference_utility(p2, channel, alpha, log=math.log))
            assert abs(r_log2 - r_ln) < 1e-12

    @pytest.mark.parametrize("num_cells", [5, 15])    # scenario1, scenario3 size
    @pytest.mark.parametrize("batch", [1, 7, 100])
    def test_batch_equals_per_allocation_loop(self, num_cells, batch):
        cfg = ScenarioConfig(num_cells=num_cells)
        rng = np.random.default_rng([num_cells, batch])
        channel = draw_channel(build_topology(cfg, rng), cfg, rng)
        levels = np.asarray(cfg.power_levels)
        power = levels[rng.integers(0, len(levels), size=(batch, num_cells, cfg.num_subbands))]
        got = network_utility(power, channel)
        assert got.shape == (batch,)
        loop = [network_utility(p, channel) for p in power]
        assert all(type(u) is float for u in loop)
        assert got.tolist() == loop

    def test_empty_batch_gives_an_empty_result(self):
        cfg, channel, _ = tiny_instance(seed=14, num_cells=3)
        assert network_utility(np.empty((0, 3, 2)), channel).shape == (0,)
        assert network_utility(np.empty((2, 0, 3, 2)), channel).shape == (2, 0)

    def test_invariant_to_user_relabeling_within_cell(self, rng):
        cfg, channel, alpha = tiny_instance(seed=13)
        power = rng.uniform(1.0, 20.0, size=(2, 2))
        # swap two users of cell 0 in the gain table
        perm = np.array([1, 0, 2, 3, 4, 5])
        ch2 = synthetic_channel(channel.gain[perm], channel.noise_power,
                                channel.bandwidth_hz, alpha)
        assert network_utility(power, ch2) == pytest.approx(
            network_utility(power, channel), rel=1e-12)


class TestBestUserKernel:
    """network_utility's best user per (cell, subband) against the
    brute-force reference, and batch against single allocations."""

    @staticmethod
    def _check(power, channel, alpha):
        batch = network_utility(power, channel)
        assert batch.shape == power.shape[:-2]
        for index in np.ndindex(*power.shape[:-2]):
            single = network_utility(power[index], channel)
            assert np.array_equal(batch[index], single)
            assert single == pytest.approx(
                reference_utility(power[index], channel, alpha), rel=1e-12)

    def test_one_user_per_cell(self, rng):
        # the shape of WMMSE's virtual channel: no maximum to take
        cfg, channel, alpha = tiny_instance(seed=21, num_cells=3, users_per_cell=1)
        assert channel.users_per_cell == 1
        self._check(rng.uniform(0.0, 20.0, size=(8, 3, 2)), channel, alpha)
        # WMMSE scores its two candidate amplitudes as one squared pair
        pair = rng.uniform(0.0, 4.5, size=(2, 3, 2))
        self._check(pair * pair, channel, alpha)

    def test_tied_users_at_scenario3_size(self, rng):
        cfg = ScenarioConfig(num_cells=15)
        channel = draw_channel(build_topology(cfg, rng), cfg, rng)
        gain = channel.gain.copy()
        gain[6] = gain[5]                 # users 0 and 1 of cell 1 tie
        alpha = snr_gap(cfg.target_ber)
        tied = synthetic_channel(gain, channel.noise_power, channel.bandwidth_hz, alpha)
        assert np.array_equal(serving_sinr(np.ones((15, 3)), tied)[5],
                              serving_sinr(np.ones((15, 3)), tied)[6])
        levels = np.asarray(cfg.power_levels)
        power = levels[rng.integers(0, len(levels), size=(20, 15, 3))]
        self._check(power, tied, alpha)

    def test_subband_with_zero_power(self, rng):
        cfg, channel, alpha = tiny_instance(seed=22, users_per_cell=4)
        power = rng.uniform(1.0, 20.0, size=(6, 2, 2))
        power[:, :, 1] = 0.0
        self._check(power, channel, alpha)
        # the silent subband adds nothing to the first one's rates
        first = synthetic_channel(channel.gain[:, :, :1], channel.noise_power,
                                  channel.bandwidth_hz, alpha)
        assert network_utility(power, channel) == pytest.approx(
            network_utility(power[:, :, :1], first), rel=1e-15)


class TestCqi:
    def test_clamps(self):
        assert list(cqi_quantize_array([0.0, 1e3, 1e9])) == [1, 15, 15]

    def test_clamps_at_the_sinr_floor(self):
        # -10 dB is 10^(-1); one ulp below it is floored onto it
        floor = 10.0 ** -1
        sinr = [0.0, floor, np.nextafter(floor, 0.0), 1e9]
        assert cqi_quantize_array(sinr).tolist() == [1, 1, 1, 15]

    def test_ten_db_lands_in_bin_eight(self):
        # (10 dB + 10) / (40/15) = 7.5 -> bin index 8
        assert reference_cqi(10.0) == 8
        assert cqi_quantize_array(10.0) == 8

    def test_monotone(self):
        values = list(cqi_quantize_array([10.0 ** (db / 10.0) for db in range(-15, 36)]))
        assert values == sorted(values)

    def test_array_matches_scalar(self, rng):
        x = 10.0 ** rng.uniform(-3, 4, size=200)
        vec = cqi_quantize_array(x)
        assert list(vec) == [reference_cqi(v) for v in x]


class TestLocationIndicator:
    def test_edge_and_center(self):
        dist = synthetic_topology(1, 3, [300.0, 250.0, 100.0], cell_radius=500.0)
        assert list(location_indicator(dist, 500.0)) == [1.0, 0.0, 0.0]
        # only the serving column counts; every other distance here is R
        dist = synthetic_topology(2, 3, [300.0, 100.0, 100.0, 100.0, 300.0, 100.0],
                                  cell_radius=500.0)
        assert list(location_indicator(dist, 500.0)) == [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]
