"""Deep-Q controller: per-cell epsilon-greedy selection, replay training
and the greedy evaluation protocol against the reference solvers."""

import math
from dataclasses import dataclass

import numpy as np

from . import baselines
from .env import PowerControlEnv
from .netmodel import ConfigError, check_intervals
from .qnet import MLP, RMSprop, train_batch
from .replay import ReplayBuffer


@dataclass
class AgentConfig:
    discount: float = 0.99
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_anneal_steps: int | None = None   # default: first 10% of train_steps
    batch_size: int = 64
    target_update_steps: int = 1000           # counted in gradient steps
    replay_capacity: int = 80_000
    train_steps: int = 200_000
    train_start: int | None = None            # default: max(1000, batch_size)
    train_every: int = 1
    learning_rate: float = 0.00025
    rmsprop_decay: float = 0.95
    rmsprop_epsilon: float = 1e-6
    hidden_size: int | None = None            # default: 2 x output size

    def __post_init__(self):
        check_intervals(self, {
            "discount": "(0, 1]", "epsilon_start": "[0, 1]", "epsilon_end": "[0, 1]",
            "epsilon_anneal_steps": "[0, inf)", "batch_size": "[1, inf)",
            "target_update_steps": "[1, inf)", "replay_capacity": "[1, inf)",
            "train_steps": "[0, inf)", "train_start": "[0, inf)", "train_every": "[1, inf)",
            "learning_rate": "(0, inf)", "rmsprop_decay": "[0, 1)",
            "rmsprop_epsilon": "(0, inf)", "hidden_size": "[1, inf)"})
        if self.replay_capacity < self.resolved_train_start():
            # the buffer would never hold train_start transitions, so no
            # gradient step would ever be taken
            raise ConfigError(
                f"replay_capacity ({self.replay_capacity}) must be >= the "
                f"resolved train_start ({self.resolved_train_start()})")
        if 0 < self.train_steps < self.resolved_train_start():
            # training would end before its first gradient step
            raise ConfigError(
                f"train_steps ({self.train_steps}) must be 0 (no training) or "
                f">= the resolved train_start ({self.resolved_train_start()})")

    def epsilon_at(self, step: int) -> float:
        anneal = self.epsilon_anneal_steps
        if anneal is None:
            anneal = max(1, self.train_steps // 10)
        if step >= anneal:
            return self.epsilon_end
        frac = step / anneal
        return self.epsilon_start + frac * (self.epsilon_end - self.epsilon_start)

    def resolved_train_start(self) -> int:
        if self.train_start is not None:
            return max(self.train_start, self.batch_size)
        return max(1000, self.batch_size)


def select_joint_action(q_values: np.ndarray, epsilon: float, num_cells: int,
                        rng: np.random.Generator | None) -> np.ndarray:
    """Per-cell index: explore uniformly with probability epsilon, else the
    argmax of that cell's block (ties to the lowest index)."""
    q = np.asarray(q_values).reshape(num_cells, -1)
    choice = q.argmax(axis=1)
    if epsilon > 0.0:
        for k in range(num_cells):
            if rng.random() < epsilon:
                choice[k] = rng.integers(0, q.shape[1])
    return choice


def bellman_targets(target_net: MLP, buffer: ReplayBuffer, rows: np.ndarray,
                    discount: float, num_cells: int) -> tuple[np.ndarray, int]:
    """Per-cell targets y_k = r (terminal) or r + gamma * max over the cell's
    block of target-network values at the next state, for the buffer rows
    `rows`; returns them, (len(rows), num_cells), and the number of next
    states target_net evaluated.

    The block maxima come from the buffer's target cache, which stays valid
    while target_net is frozen. One batch forward fills it for the sorted
    distinct non-terminal rows whose entry is stale; a terminal row's next
    state is never needed.
    """
    bootstrap = ~buffer.terminal[rows]
    # a batch holds a few stale rows at most once training is under way;
    # np.unique would import numpy.ma, and np.sort fault in its own code,
    # about 1.5 MiB of memory together
    stale = sorted(set(rows[bootstrap & ~buffer.fresh[rows]].tolist()))
    if stale:
        q_next = target_net.forward(buffer.states(stale, offset=1))
        buffer.target_max[stale] = q_next.reshape(
            len(stale), num_cells, -1).max(axis=2)
        buffer.fresh[stale] = True
    y = buffer.reward[rows, None].repeat(num_cells, axis=1)
    y[bootstrap] += discount * buffer.target_max[rows[bootstrap]]
    return y, len(stale)


# Columns of the training log, one entry per episode, in the order of
# training_log.csv.
TRAINING_LOG = (
    "step",            # global env step at which the episode ended
    "episode",
    "epsilon",
    "loss",            # mean training loss over the episode (nan before training starts)
    "length",
    "throughput_bps",  # peak throughput reached within the episode
    "q_mean",          # mean over the episode's steps and cells of max_a Q_k(s, a)
    "q_max",           # the largest of those greedy values
    "gradient_steps",  # cumulative, at the episode's end
    "buffer_fill",     # replay transitions held at the episode's end
)


def train(env: PowerControlEnv, mlp: MLP, config: AgentConfig,
          rng: np.random.Generator, opt: RMSprop, on_step=None) -> tuple[dict, int]:
    """Run episodic epsilon-greedy training until config.train_steps env
    steps, replaying from a ring of config.replay_capacity transitions.
    Returns the training log, a dict of the TRAINING_LOG columns, and the
    number of next states the target network evaluated.

    on_step, if given, is called after every environment step as
    on_step(step, grad_steps, mlp, target); used for interval checkpoints
    and diagnostics.
    """
    num_cells = env.config.num_cells
    train_start = config.resolved_train_start()
    buffer = ReplayBuffer(config.replay_capacity, env.state_scale, len(env.actions))
    target = mlp.clone()

    log = {name: [] for name in TRAINING_LOG}
    step = 0
    grad_steps = 0
    target_rows = 0
    episode = 0
    while step < config.train_steps:
        ctx, state = env.reset(rng)
        episode += 1
        ep_losses = []
        ep_len = 0
        ep_peak = -math.inf
        ep_greedy = []     # per step, each cell's greedy value max_a Q_k(s, a)
        while not ctx.terminal and step < config.train_steps:
            eps = config.epsilon_at(step)
            q = mlp.forward(state / env.state_scale)
            ep_greedy.append(q.reshape(num_cells, -1).max(axis=1))
            action = select_joint_action(q, eps, num_cells, rng)
            next_state, reward, terminal, throughput = env.step(ctx, action)
            buffer.push(state, action, reward, next_state, terminal)
            state = next_state
            step += 1
            ep_len += 1
            ep_peak = max(ep_peak, throughput)

            if len(buffer) >= train_start and step % config.train_every == 0:
                states, actions, rows = buffer.sample(config.batch_size, rng)
                targets, evaluated = bellman_targets(target, buffer, rows,
                                                     config.discount, num_cells)
                target_rows += evaluated
                try:
                    loss = train_batch(mlp, opt, states, actions, targets,
                                       len(env.actions))
                except FloatingPointError as exc:
                    raise RuntimeError(
                        f"training diverged at env step {step} "
                        f"(episode {episode})") from exc
                ep_losses.append(loss)
                grad_steps += 1
                if grad_steps % config.target_update_steps == 0:
                    target = mlp.clone()
                    buffer.fresh[:] = False     # every cached maximum is stale
            if on_step is not None:
                on_step(step, grad_steps, mlp, target)

        losses, greedy = np.asarray(ep_losses), np.concatenate(ep_greedy)
        # np.mean's sum and division, without its wrappers
        mean_loss = float(np.add.reduce(losses) / losses.size) if ep_losses else math.nan
        row = (step, episode, config.epsilon_at(step), mean_loss, ep_len, ep_peak,
               float(np.add.reduce(greedy) / greedy.size), float(greedy.max()),
               grad_steps, len(buffer))
        for name, value in zip(TRAINING_LOG, row, strict=True):
            log[name].append(value)
    return log, target_rows


# The compared methods: the greedy policy, then the reference solvers that
# baselines.score runs, in the column order of results.csv.
METHODS = ("dql", "ga", "wmmse", "maxpower", "random")


def greedy_rollout(env: PowerControlEnv, mlp: MLP, rng: np.random.Generator):
    """One greedy episode; returns the last action that raised the throughput,
    a step cut off by max_episode_steps included, and that throughput (the
    initial random allocation's if the first action fails)."""
    ctx, state = env.reset(rng)
    best_action = tuple(int(a) for a in ctx.current_action)
    best_throughput = ctx.start_throughput
    while not ctx.terminal:
        action = select_joint_action(mlp.forward(state / env.state_scale), 0.0,
                                     env.config.num_cells, None)
        previous = ctx.previous_throughput
        state, _, _, throughput = env.step(ctx, action)
        if throughput > previous:
            best_action = tuple(int(a) for a in action)
            best_throughput = throughput
    return ctx, best_action, best_throughput


def sample_seeds(seed: int, n_samples: int) -> list:
    """Per-sample seeds of a test phase; sample s draws its channel from
    the generator seeded [s, 0]."""
    return [int(s) for s in np.random.default_rng(seed).integers(
        0, 2 ** 63 - 1, size=n_samples)]


def test(env: PowerControlEnv, mlp: MLP, n_samples: int, seed: int,
         ga_config: baselines.GAConfig, max_power_level: float) -> dict:
    """Greedy policy vs. GA / WMMSE / max-power / random on shared channels.

    Each sample draws a fresh channel from its own recorded seed; every
    method is evaluated on that same frozen realization. Returns the phase
    as per-sample columns: `channel_seed`, `dql_action`, `<method>_bps` for
    each method in METHODS and each name in `baselines.DIAGNOSTICS`.
    """
    seeds = sample_seeds(seed, n_samples)
    phase = {"channel_seed": seeds, "dql_action": [],
             **{f"{m}_bps": [] for m in METHODS},
             **{name: [] for name in baselines.DIAGNOSTICS}}
    for sample_seed in seeds:
        ctx, dql_action, dql_throughput = greedy_rollout(
            env, mlp, np.random.default_rng([sample_seed, 0]))
        phase["dql_action"].append(dql_action)
        phase["dql_bps"].append(dql_throughput)
        for name in METHODS[1:]:
            throughput, diagnostics = baselines.score(
                name, ctx.channel, env, sample_seed, ga_config, max_power_level)
            phase[f"{name}_bps"].append(throughput)
            for key, value in diagnostics.items():
                phase[f"{name}_{key}"].append(value)
    return phase
