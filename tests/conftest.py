"""Shared builders and independent oracles for the test suite."""

import math

import numpy as np
import pytest

from cellpower.netmodel import (
    BUDGET_TOL,
    ChannelRealization,
    ScenarioConfig,
    _hex_spiral,
    build_topology,
    draw_channel,
    snr_gap,
)
from cellpower.qnet import RMSprop


def tiny_config(**overrides) -> ScenarioConfig:
    defaults = dict(num_cells=2, users_per_cell=3, num_subbands=2,
                    power_levels=(6.4, 12.8, 19.2), max_power=40.0)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def agent_optimizer(mlp, config):
    """The RMSprop a run builds for `mlp` from AgentConfig `config`."""
    return RMSprop(mlp, config.learning_rate, config.rmsprop_decay,
                   config.rmsprop_epsilon)


def tiny_instance(seed=0, **overrides):
    cfg = tiny_config(**overrides)
    rng = np.random.default_rng(seed)
    channel = draw_channel(build_topology(cfg, rng), cfg, rng)
    return cfg, channel, snr_gap(cfg.target_ber)


def reference_sinr(power, channel, user, cell, subband):
    """Textbook SINR, written out independently of the library internals."""
    signal = power[cell][subband] * channel.gain[user][cell][subband]
    interference = sum(power[l][subband] * channel.gain[user][l][subband]
                       for l in range(channel.gain.shape[1]) if l != cell)
    return signal / (channel.noise_power + interference)


def reference_utility(power, channel, alpha, log=math.log2):
    """Brute-force objective: per (cell, subband), the best user's rate.
    Users are cell-major: of the K*U rows of the gain table, cell k serves
    users k*U .. (k+1)*U - 1."""
    num_users, num_cells = channel.gain.shape[:2]
    u = num_users // num_cells
    total = 0.0
    for k in range(num_cells):
        for f in range(channel.num_subbands):
            best = max(
                channel.bandwidth_hz
                * log(1.0 + alpha * reference_sinr(power, channel, user, k, f))
                for user in range(k * u, (k + 1) * u))
            total += best
    return total


def reference_cqi(sinr):
    """CQI index of one linear SINR from the bin definition: 15 equal bins
    over [-10 dB, +30 dB], bin i covering [-10 + (i-1) * 40/15, -10 + i *
    40/15) dB, with everything below the first bin in bin 1 and everything
    above the last in bin 15."""
    if sinr <= 0.0:
        return 1
    db = 10.0 * math.log10(sinr)
    return min(max(1 + math.floor((db + 10.0) / (40.0 / 15.0)), 1), 15)


def reference_repair(genes, levels, max_power):
    """GA budget repair of one cell's level indices, as the per-cell loop
    GA used before its lookup table: decrement the largest gene (first on
    ties) until the cell fits the budget."""
    cell = np.array(genes)
    while levels[cell].sum() > max_power + BUDGET_TOL:
        cell[np.argmax(cell)] -= 1
    return cell


def reference_budget_projected(num, den, max_power):
    """WMMSE's per-cell budget multiplier by bisection, as the solver ran it
    before the vectorized Newton solve: v_f = num_f / (den_f + mu) with the
    smallest mu >= 0 such that sum(v^2) <= max_power."""
    active = num > 0.0       # num > 0 implies den > 0; a zero stays a zero

    def v_at(mu):
        out = np.zeros_like(num)
        out[active] = num[active] / (den[active] + mu)
        return out

    if np.sum(v_at(0.0) ** 2) <= max_power:
        return v_at(0.0)
    lo, hi = 0.0, 1.0
    while np.sum(v_at(hi) ** 2) > max_power:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.sum(v_at(mid) ** 2) > max_power:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * hi:
            break
    return v_at(hi)   # feasible side of the bracket


def synthetic_channel(gain, noise_power=1.0, bandwidth_hz=1.0,
                      alpha=1.0) -> ChannelRealization:
    return ChannelRealization(np.asarray(gain, dtype=float), noise_power,
                              bandwidth_hz, alpha)


def synthetic_topology(num_cells, users_per_cell, serving_distance,
                       cell_radius=500.0) -> np.ndarray:
    """(K*U, K) user-to-BS distances with prescribed serving distances; every
    other distance is cell_radius. Users are cell-major: cell k serves users
    k*U .. (k+1)*U - 1."""
    n = num_cells * users_per_cell
    dist = np.full((n, num_cells), cell_radius, dtype=float)
    users = np.arange(n)
    dist[users, users // users_per_cell] = np.asarray(serving_distance, dtype=float)
    return dist


def reference_drop(config, rng):
    """The user drop as a per-user loop: (BS positions (K, 2), user
    positions (K*U, 2), user-to-BS distances (K*U, K)). Cell by cell, each
    user redraws its radius R sqrt(u) while it is below min_user_distance,
    then draws its angle."""
    pitch = 2.0 * config.cell_radius * math.cos(math.pi / 6.0)
    bs = _hex_spiral(config.num_cells, pitch)
    users = np.empty((config.num_users, 2), dtype=float)
    i = 0
    for k in range(config.num_cells):
        for _ in range(config.users_per_cell):
            while True:
                radius = config.cell_radius * math.sqrt(rng.uniform())
                if radius >= config.min_user_distance:
                    break
            angle = rng.uniform(0.0, 2.0 * math.pi)
            users[i] = bs[k] + radius * np.array([math.cos(angle), math.sin(angle)])
            i += 1
    dist = np.linalg.norm(users[:, None, :] - bs[None, :, :], axis=2)
    return bs, users, dist


def reference_select(q_values, epsilon, num_cells, rng):
    """Per-cell epsilon-greedy selection as a loop over the cells: cell k
    draws one uniform, and when it is below epsilon an index in its block;
    otherwise it takes its block's argmax, ties to the lowest index."""
    q = np.asarray(q_values)
    block = q.shape[0] // num_cells
    choice = np.empty(num_cells, dtype=int)
    for k in range(num_cells):
        if epsilon > 0.0 and rng.random() < epsilon:
            choice[k] = rng.integers(0, block)
        else:
            choice[k] = int(np.argmax(q[k * block:(k + 1) * block]))
    return choice


def selected_unit_loss(mlp, states, actions, targets, block_size):
    """The training loss recomputed from scratch: mean squared error over the
    K selected output units of each sample."""
    q = mlp.forward(states)
    n, num_cells = actions.shape
    total = 0.0
    for i in range(n):
        for k in range(num_cells):
            total += (q[i, k * block_size + actions[i, k]] - targets[i, k]) ** 2
    return total / (n * num_cells)


def split_flat(flat, mlp):
    """Views of a buffer in mlp.flat's layout, shaped like W1, b1, W2, b2."""
    out, start = [], 0
    for param in (mlp.w1, mlp.b1, mlp.w2, mlp.b2):
        out.append(flat[start:start + param.size].reshape(param.shape))
        start += param.size
    return out


def finite_difference_max_error(mlp, states, actions, targets, block_size,
                                h=1e-5):
    """Max relative error of backprop gradients vs central differences,
    over every entry of W1, b1, W2 and b2. backprop returns the W2 and b2
    gradients packed for the live units; they are unpacked here with zeros
    outside the live set, which the central differences must match too."""
    from cellpower.qnet import backprop

    q = mlp.forward(states)
    n, num_cells = actions.shape
    rows = np.repeat(np.arange(n), num_cells)
    cols = (actions + np.arange(num_cells) * block_size).reshape(-1)
    diff = q[rows, cols].reshape(n, num_cells) - targets
    grad_q = np.zeros_like(q)
    np.add.at(grad_q, (rows, cols), (2.0 * diff / diff.size).reshape(-1))
    hidden = np.maximum(states @ mlp.w1.T + mlp.b1, 0.0)
    live = np.unique(cols)
    packed = split_flat(backprop(mlp, states, grad_q[:, live], hidden, mlp.w2[live],
                                 np.full_like(mlp.flat, np.nan)), mlp)
    grads = packed[:2]
    for packed_grad in packed[2:]:
        full = np.zeros_like(packed_grad)
        full[live] = packed_grad[:live.size]
        grads.append(full)

    worst = 0.0
    for param, grad in zip((mlp.w1, mlp.b1, mlp.w2, mlp.b2), grads):
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + h
            up = selected_unit_loss(mlp, states, actions, targets, block_size)
            param[idx] = orig - h
            down = selected_unit_loss(mlp, states, actions, targets, block_size)
            param[idx] = orig
            fd = (up - down) / (2.0 * h)
            err = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-8)
            worst = max(worst, err)
    return worst


def exact_targets(mlp, states, actions, block_size, rng):
    """Targets q_selected - (n*K/2) * m * 2^-10 for small nonzero integers
    m, from mlp's action values. With weights that are multiples of 2^-10
    and small integer states, every forward sum is exact; then
    dL/dq = 2 * diff / (n*K) = m * 2^-10, so every backward sum is exact
    too and no product's blocking can change a gradient bit."""
    q = mlp.forward(states)
    n, num_cells = actions.shape
    selected = q[np.arange(n)[:, None], actions + np.arange(num_cells) * block_size]
    m = rng.integers(1, 5, size=(n, num_cells)) * rng.choice([-1, 1], size=(n, num_cells))
    return selected - (n * num_cells / 2) * m * 2.0 ** -10


def reference_train_batch(params, acc, states, actions, targets, block_size,
                          learning_rate, decay, epsilon):
    """One training step on four separate parameter arrays [W1, b1, W2, b2]
    and their four accumulators, updated in place: the whole-array forward,
    a backprop that recomputes z1, and the per-array RMSprop expression.
    Returns the pre-update loss."""
    w1, b1, w2, b2 = params
    q = np.maximum(states @ w1.T + b1, 0.0) @ w2.T + b2
    n, num_cells = actions.shape
    rows = np.repeat(np.arange(n), num_cells)
    cols = (actions + np.arange(num_cells) * block_size).reshape(-1)
    diff = q[rows, cols].reshape(n, num_cells) - targets
    loss = float(np.mean(diff ** 2))
    grad_q = np.zeros_like(q)
    np.add.at(grad_q, (rows, cols), (2.0 * diff / diff.size).reshape(-1))

    z1 = states @ w1.T + b1
    h = np.maximum(z1, 0.0)
    dz1 = (grad_q @ w2) * (z1 > 0.0)
    grads = [dz1.T @ states, dz1.sum(axis=0), grad_q.T @ h, grad_q.sum(axis=0)]
    for p, a, g in zip(params, acc, grads):
        a *= decay
        a += (1.0 - decay) * g * g
        p -= learning_rate * g / (np.sqrt(a) + epsilon)
    return loss


def reference_bellman_targets(target_net, rewards, next_states, terminals,
                              discount, num_cells):
    """Per-cell Bellman targets without a cache: one forward of the target
    network over every next state of the batch, then y = r for terminal
    rows and r + discount * (the cell's block maximum) for the others."""
    q_next = target_net.forward(next_states)
    block_max = q_next.reshape(len(rewards), num_cells, -1).max(axis=2)
    y = rewards[:, None] + discount * block_max
    y[terminals] = rewards[terminals, None]
    return y


def reference_checkpoint_bytes(params, acc, learning_rate, decay, epsilon,
                               dtype="<f8"):
    """The documented checkpoint format, written field by field, with arrays
    of element type `dtype`: "<f8" under magic CPQNET1, "<f4" under CPQNET2."""
    n_hidden, n_in = params[0].shape
    n_out = params[2].shape[0]
    return ({"<f8": b"CPQNET1\n", "<f4": b"CPQNET2\n"}[dtype]
            + np.array([n_in, n_hidden, n_out], dtype="<i8").tobytes()
            + np.array([learning_rate, decay, epsilon], dtype="<f8").tobytes()
            + b"".join(np.asarray(a, dtype=dtype).tobytes()
                       for a in list(params) + list(acc)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
