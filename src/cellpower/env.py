"""Episodic decision process over the radio model.

One episode runs on a frozen user drop + channel. Every step maps K per-cell
action indices to discrete power vectors, recomputes the network throughput
and continues only while the throughput strictly increases.
"""

from dataclasses import dataclass

import numpy as np

from .netmodel import (
    BUDGET_TOL,
    CQI_LEVELS,
    ChannelRealization,
    ConfigError,
    ScenarioConfig,
    build_topology,
    cqi_quantize_array,
    draw_channel,
    location_indicator,
    serving_sinr,
    utility_from_sinr,
)


def level_grid(n_levels: int, num_subbands: int) -> np.ndarray:
    """Every tuple of F level indices, shape (n_levels^F, F): row r holds the
    radix-n_levels digits of r, first subband most significant."""
    return np.indices((n_levels,) * num_subbands).reshape(num_subbands, -1).T


def enumerate_actions(power_levels, num_subbands: int, max_power: float) -> np.ndarray:
    """Action table, shape (m, F) W: row i is the per-subband power vector of
    action i. Rows are the budget-feasible level tuples in lexicographic
    order."""
    levels = np.asarray(power_levels, dtype=float)
    powers = levels[level_grid(len(levels), num_subbands)]
    actions = powers[powers.sum(axis=1) <= max_power + BUDGET_TOL]
    if not len(actions):
        raise ConfigError("no feasible power combination under the budget")
    return actions


@dataclass
class EpisodeContext:
    """Mutable per-episode state; channel and cell-edge bits stay frozen."""

    edge: np.ndarray                   # (K*U,) cell-edge bit of each user
    channel: ChannelRealization
    current_power: np.ndarray          # (K, F) W
    current_action: np.ndarray         # (K,) action indices
    previous_throughput: float         # bits/s
    start_throughput: float            # bits/s of the start allocation
    step_count: int = 0
    terminal: bool = False


class PowerControlEnv:
    """Power-allocation episodes with the throughput-must-increase rule.

    Rewards: +1 while the total throughput strictly improves, terminal_reward
    on the step that fails to improve (or hits the step cap).
    """

    def __init__(self, config: ScenarioConfig, terminal_reward: float = -1.0,
                 max_episode_steps: int = 500):
        self.config = config
        self.actions = enumerate_actions(config.power_levels, config.num_subbands,
                                         config.max_power)
        self.terminal_reward = terminal_reward
        self.max_episode_steps = max_episode_steps
        # a state is encode_state's uint8 codes; the network's input is state / state_scale
        per_user = [float(CQI_LEVELS)] * config.num_subbands + [1.0]
        self.state_scale = np.array(per_user * (config.num_cells * config.users_per_cell))

    @property
    def state_size(self) -> int:
        c = self.config
        return c.num_cells * c.users_per_cell * (c.num_subbands + 1)

    @property
    def num_actions(self) -> int:
        """Output width of a Q-network: K blocks of m per-cell actions."""
        return self.config.num_cells * len(self.actions)

    def reset(self, rng: np.random.Generator):
        """Fresh drop + channel, random feasible action per cell.

        The improvement baseline starts at the throughput of the all-minimum
        power action, not at the random allocation's.
        """
        distance = build_topology(self.config, rng)
        channel = draw_channel(distance, self.config, rng)
        joint = rng.integers(0, len(self.actions), size=self.config.num_cells)
        # row 0 is the all-lowest-level combination, feasible by config invariant;
        # one SINR pass over it and the start allocation gives both throughputs and the state
        power = self.actions[[np.zeros_like(joint), joint]]
        sinr = serving_sinr(power, channel)
        baseline, start = utility_from_sinr(sinr, channel).tolist()
        ctx = EpisodeContext(location_indicator(distance, self.config.cell_radius),
                             channel, power[1], joint, baseline, start)
        return ctx, self.encode_state(ctx, sinr[1])

    def encode_state(self, ctx: EpisodeContext, sinr: np.ndarray) -> np.ndarray:
        """The state's uint8 codes, per user: F CQI indices then one cell-edge
        bit; `sinr` is the serving SINR at ctx.current_power."""
        codes = np.concatenate([cqi_quantize_array(sinr), ctx.edge[:, None]], axis=1)
        return codes.astype(np.uint8).reshape(-1)

    def step(self, ctx: EpisodeContext, joint_action):
        """Apply K action indices; returns (next_state, reward, terminal, throughput)."""
        if ctx.terminal:
            raise RuntimeError("episode already terminated; reset first")
        joint = np.asarray(joint_action)
        if (joint.shape != (self.config.num_cells,) or joint.dtype.kind not in "iu"
                or joint.min() < 0 or joint.max() >= len(self.actions)):
            raise ValueError(f"expected {self.config.num_cells} integer action indices "
                             f"in [0, {len(self.actions)}), got {joint_action!r}")

        ctx.current_action = joint
        ctx.current_power = self.actions[joint]
        # one SINR evaluation feeds both the throughput and the CQI state
        sinr = serving_sinr(ctx.current_power, ctx.channel)
        throughput = utility_from_sinr(sinr, ctx.channel)
        ctx.step_count += 1
        terminal = (throughput <= ctx.previous_throughput
                    or ctx.step_count >= self.max_episode_steps)
        reward = self.terminal_reward if terminal else 1.0
        ctx.previous_throughput = throughput
        ctx.terminal = terminal
        return self.encode_state(ctx, sinr), reward, terminal, throughput
