"""Multi-cell downlink radio model.

Deterministic network mathematics: hexagonal user drops, path loss +
log-normal shadowing + Rayleigh fading link gains, SINR, CQI quantization,
per-subband user assignment and the total-throughput objective.

All randomness comes in through an explicit numpy Generator; every type is
treated as immutable after construction, so independent channel
realizations can be evaluated concurrently.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


class ConfigError(ValueError):
    """Raised for physically or numerically infeasible configuration."""


def check_intervals(config, intervals: dict, prefix: str = "") -> None:
    """Raise a ConfigError naming the first field of `config` outside its
    interval, written "[lo, hi)" and so on; the config key is `prefix` plus
    the field name. NaN lies in no interval and inf in none that is open at
    that end. A None field, a default worked out later, is skipped."""
    for name, interval in intervals.items():
        value = getattr(config, name)
        if value is None:
            continue
        lo, hi = (float(end) for end in interval[1:-1].split(","))
        if not ((lo <= value if interval[0] == "[" else lo < value)
                and (value <= hi if interval[-1] == "]" else value < hi)):
            raise ConfigError(f"{prefix}{name} must be in {interval}, got {value!r}")


# Slack for power-budget comparisons (watts). Level sums are exact decimals
# in practice; this only absorbs float round-off.
BUDGET_TOL = 1e-9


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def dbm_per_hz_to_watts(density_dbm_hz: float, bandwidth_hz: float) -> float:
    """Noise power in watts over one subband of the given bandwidth."""
    return 10.0 ** ((density_dbm_hz - 30.0) / 10.0) * bandwidth_hz


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical constants of one simulated network.

    Distances in meters, powers in watts, bandwidth in Hz, noise density
    in dBm/Hz. Defaults are the 5-cell evaluation scenario.
    """

    num_cells: int = 5
    users_per_cell: int = 5
    num_subbands: int = 3
    subband_bandwidth_hz: float = 2.88e6
    cell_radius: float = 500.0
    max_power: float = 40.0
    power_levels: tuple[float, ...] = (6.4, 9.6, 12.8, 16.0, 19.2)
    noise_density: float = -174.0
    target_ber: float = 1e-6
    pathloss_ref_db: float = 128.1
    pathloss_exp_db_per_decade: float = 37.6
    shadowing_sigma: float = 8.0
    min_user_distance: float = 35.0

    def __post_init__(self):
        check_intervals(self, {
            "num_cells": "[1, inf)", "users_per_cell": "[1, inf)",
            "num_subbands": "[1, inf)", "subband_bandwidth_hz": "(0, inf)",
            "cell_radius": "(0, inf)", "max_power": "(0, inf)",
            "noise_density": "(-inf, inf)", "target_ber": "(0, 0.2)",
            "pathloss_ref_db": "(-inf, inf)", "pathloss_exp_db_per_decade": "[0, inf)",
            "shadowing_sigma": "[0, inf)",
            "min_user_distance": f"(0, {self.cell_radius!r})"})
        levels = tuple(float(p) for p in np.atleast_1d(self.power_levels))
        object.__setattr__(self, "power_levels", levels)
        if not levels or not all(0.0 < p < math.inf for p in levels):
            raise ConfigError(f"power_levels must be positive and finite, got {levels}")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ConfigError(f"power_levels must be strictly increasing, got {levels}")
        if levels[0] * self.num_subbands > self.max_power + BUDGET_TOL:
            raise ConfigError(
                f"power_levels minimum {levels[0]} W on {self.num_subbands} subbands "
                f"exceeds the {self.max_power} W budget; no feasible action")

    @property
    def num_users(self) -> int:
        return self.num_cells * self.users_per_cell

    @property
    def noise_power(self) -> float:
        """Receiver noise in watts per subband."""
        return dbm_per_hz_to_watts(self.noise_density, self.subband_bandwidth_hz)


def snr_gap(target_ber: float) -> float:
    """SNR gap of M-QAM at the given bit error rate: -1.5 / ln(5 BER)."""
    if not 0.0 < target_ber < 0.2:
        raise ConfigError(f"target_ber {target_ber} outside (0, 0.2)")
    return -1.5 / math.log(5.0 * target_ber)


@lru_cache
def _hex_spiral(count: int, pitch: float) -> np.ndarray:
    """First `count` hexagonal grid centers, spiral order from the origin.

    Built once per (count, pitch) and shared read-only by every drop.
    """
    dirs = [(1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)]
    axial = [(0, 0)]
    ring = 1
    while len(axial) < count:
        q, r = ring * dirs[4][0], ring * dirs[4][1]
        for d in range(6):
            for _ in range(ring):
                if len(axial) < count:
                    axial.append((q, r))
                q, r = q + dirs[d][0], r + dirs[d][1]
        ring += 1
    xy = [(pitch * (q + r / 2.0), pitch * r * math.sqrt(3.0) / 2.0) for q, r in axial]
    grid = np.array(xy[:count], dtype=float)
    grid.flags.writeable = False
    return grid


def build_topology(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Drop BSs on a hex grid (inter-site distance 2 R cos 30 deg) and users
    uniformly in each serving disk; returns the (K*U, K) user-to-BS
    distances in m. Users are cell-major: cell k serves users k*U .. (k+1)*U - 1.

    Each user takes a uniform u for its radius R sqrt(u), redrawn while
    below min_user_distance, then one for its angle. The uniforms come in
    blocks of as many as are still missing, each kept or dropped in turn:
    the values and the generator's end state are those of a per-user loop.
    """
    pitch = 2.0 * config.cell_radius * math.cos(math.pi / 6.0)
    bs = _hex_spiral(config.num_cells, pitch)

    need = 2 * config.num_users
    kept = []                # (radius, angle) uniforms, radii at even positions
    while len(kept) < need:
        for u in rng.uniform(size=need - len(kept)).tolist():
            if len(kept) % 2 or config.cell_radius * math.sqrt(u) >= config.min_user_distance:
                kept.append(u)
    draws = np.array(kept)
    radius = config.cell_radius * np.sqrt(draws[0::2])
    angle = 2.0 * math.pi * draws[1::2]
    x = bs[:, 0].repeat(config.users_per_cell) + radius * np.cos(angle)
    y = bs[:, 1].repeat(config.users_per_cell) + radius * np.sin(angle)
    # np.linalg.norm's arithmetic over the (x, y) offsets, one axis at a time
    dx, dy = x[:, None] - bs[:, 0], y[:, None] - bs[:, 1]
    return np.sqrt(dx * dx + dy * dy)


@dataclass(frozen=True)
class ChannelRealization:
    """Frozen link gains for one user drop.

    gain[u, k, f] is the linear power gain from BS k to user u on subband f;
    noise_power is the per-subband receiver noise in watts; the subband
    width and the M-QAM SNR gap convert SINR to rate. Users are
    cell-major, so the shape fixes the serving map: cell u // U serves
    user u. The last two fields are derived from gain at construction.
    """

    gain: np.ndarray       # (K*U, K, F) linear
    noise_power: float     # W per subband
    bandwidth_hz: float
    alpha: float           # SNR gap: rate = bandwidth_hz * log2(1 + alpha * SINR)
    serving_gain: np.ndarray = field(init=False)       # (K*U, F): gain[u, u // U, f]
    interference_gain: np.ndarray = field(init=False)  # (F, K, K*U): 0 where k serves u

    def __post_init__(self):
        users = np.arange(self.gain.shape[0])
        serving = users // self.users_per_cell
        interference = self.gain.transpose(2, 1, 0).copy()
        interference[:, serving, users] = 0.0
        object.__setattr__(self, "serving_gain", self.gain[users, serving, :])
        object.__setattr__(self, "interference_gain", interference)

    @property
    def num_cells(self) -> int:
        return self.gain.shape[1]

    @property
    def users_per_cell(self) -> int:
        return self.gain.shape[0] // self.gain.shape[1]

    @property
    def num_subbands(self) -> int:
        return self.gain.shape[2]


def draw_channel(distance: np.ndarray, config: ScenarioConfig,
                 rng: np.random.Generator) -> ChannelRealization:
    """Sample one channel realization over the (K*U, K) user-to-BS
    distances of build_topology.

    gain = 10^(-(PL + X)/10) * |H|^2 with
      PL(d) = pathloss_ref_db + pathloss_exp_db_per_decade * log10(d / 1 km),
      X ~ Normal(0, shadowing_sigma^2) dB per (user, BS) link,
      |H|^2 ~ Exponential(mean 1) per (user, BS, subband).
    """
    d_km = distance / 1000.0
    pl_db = config.pathloss_ref_db + config.pathloss_exp_db_per_decade * np.log10(d_km)
    shadow_db = rng.normal(0.0, config.shadowing_sigma, size=pl_db.shape)
    fading = rng.exponential(1.0, size=(*distance.shape, config.num_subbands))
    gain = db_to_linear(-(pl_db + shadow_db))[:, :, None] * fading
    return ChannelRealization(gain, config.noise_power, config.subband_bandwidth_hz,
                              snr_gap(config.target_ber))


def serving_sinr(power: np.ndarray, channel: ChannelRealization) -> np.ndarray:
    """SINR of every user w.r.t. its serving cell.

    `power` is one (K, F) allocation or a batch of shape (..., K, F); the
    result has shape (..., K*U, F). Interference on subband f is
    power[..., :, f] @ interference_gain[f], one vector-matrix product per
    allocation and subband, so a batch gives each allocation's SINRs exactly.
    The SINRs are computed subband-major, as (..., F, K*U), so that each
    elementwise step runs along rows of K*U values rather than of F; the
    result is a transposed view of that array.
    """
    per_subband = np.swapaxes(power, -1, -2)                              # (..., F, K)
    heard = (per_subband[..., None, :] @ channel.interference_gain)[..., 0, :]  # (..., F, K*U)
    signal = channel.serving_gain.T * per_subband.repeat(channel.users_per_cell, axis=-1)
    return (signal / (channel.noise_power + heard)).swapaxes(-1, -2)


def _cell_user_rates(sinr, channel):
    """Achievable rate of each user on each subband, shape (..., K, U, F),
    bits/s, from serving SINRs of shape (..., K*U, F)."""
    rate = channel.bandwidth_hz * np.log2(1.0 + channel.alpha * sinr)
    return rate.reshape(*sinr.shape[:-2], channel.num_cells,
                        channel.users_per_cell, channel.num_subbands)


def assign_subbands(power: np.ndarray, channel: ChannelRealization) -> np.ndarray:
    """Give each (cell, subband) to its own rate-maximizing user.

    Returns global user indices, shape (K, F); ties go to the lowest index.
    """
    rates = _cell_user_rates(serving_sinr(power, channel), channel)
    best = rates.argmax(axis=1)                            # (K, F), first max wins
    offsets = (np.arange(channel.num_cells) * channel.users_per_cell)[:, None]
    return best + offsets


def utility_from_sinr(sinr: np.ndarray, channel: ChannelRealization):
    """Total throughput in bits/s from serving SINRs of shape (..., K*U, F).

    A (K*U, F) input gives a float; a batch gives an array of shape (...).
    """
    rates = _cell_user_rates(sinr, channel)
    # the best user of each (cell, subband) as U - 1 elementwise maxima:
    # numpy's max over the short middle axis is several times slower
    best = rates[..., 0, :]
    for u in range(1, channel.users_per_cell):
        best = np.maximum(best, rates[..., u, :])
    # sum each allocation's K*F best rates as one flat row, so that a batch
    # adds in the same order as a single allocation; the explicit width
    # lets an empty batch through
    flat = best.reshape(*best.shape[:-2], channel.num_cells * channel.num_subbands)
    total = np.add.reduce(flat, axis=-1)
    return float(total) if sinr.ndim == 2 else total


def network_utility(power: np.ndarray, channel: ChannelRealization):
    """Total network throughput in bits/s under the rate-max subband rule.

    A (K, F) allocation gives a float; a batch of shape (..., K, F) gives an
    array of shape (...), equal to the per-allocation values bit for bit.
    """
    return utility_from_sinr(serving_sinr(power, channel), channel)


# CQI reporting: SINR in dB floored at -10 dB, then 15 uniform bins over
# [-10 dB, +30 dB], clamped at both ends.
CQI_MIN_DB = -10.0
CQI_MAX_DB = 30.0
CQI_LEVELS = 15
_CQI_BIN_DB = (CQI_MAX_DB - CQI_MIN_DB) / CQI_LEVELS


def cqi_quantize_array(sinr_values: np.ndarray) -> np.ndarray:
    """Quantize linear SINRs to CQI indices in 1..15."""
    floored = np.maximum(np.asarray(sinr_values, dtype=float),
                         10.0 ** (CQI_MIN_DB / 10.0))
    db = 10.0 * np.log10(floored)
    idx = 1 + np.floor((db - CQI_MIN_DB) / _CQI_BIN_DB).astype(int)
    # the lower clamp keeps CQI >= 1 should the floored dB round below -10
    return np.minimum(np.maximum(idx, 1), CQI_LEVELS)


def location_indicator(distance: np.ndarray, cell_radius: float) -> np.ndarray:
    """1 for cell-edge users, else 0, from the (K*U, K) user-to-BS distances:
    a user is at the edge when its serving distance, to BS u // U, is
    strictly beyond R/2."""
    users = np.arange(distance.shape[0])
    serving = distance[users, users // (distance.shape[0] // distance.shape[1])]
    return (serving > cell_radius / 2.0).astype(float)
