"""Reference power-allocation solvers used to benchmark the learned policy.

All solvers are pure given an explicit Generator and work on one frozen
channel realization. GA and exhaustive search operate on the discrete
level grid; WMMSE optimizes continuous per-subband powers.
"""

import math
from dataclasses import dataclass

import numpy as np

from .env import PowerControlEnv, level_grid
from .netmodel import (
    BUDGET_TOL,
    ChannelRealization,
    ConfigError,
    ScenarioConfig,
    assign_subbands,
    check_intervals,
    network_utility,
)


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 100
    generations: int = 200
    crossover_prob: float = 0.9
    mutation_prob: float = 0.05      # per gene
    tournament_size: int = 3
    elite_count: int = 2

    def __post_init__(self):
        check_intervals(self, {
            "population_size": "[2, inf)", "generations": "[0, inf)",
            "crossover_prob": "[0, 1]", "mutation_prob": "[0, 1]",
            "tournament_size": "[1, inf)",
            "elite_count": f"[0, {self.population_size!r})"}, prefix="ga_")


def _repair_table(levels: np.ndarray, num_subbands: int,
                  max_power: float) -> np.ndarray:
    """Budget repair of every per-cell gene tuple, shape (n_levels^F, F).

    Row r repairs row r of `level_grid`: the largest gene of an over-budget
    tuple is decremented, first maximum on ties, until the tuple fits the
    budget.
    """
    genes = level_grid(len(levels), num_subbands).copy()
    while True:
        over = np.flatnonzero(levels[genes].sum(axis=1) > max_power + BUDGET_TOL)
        if over.size == 0:
            return genes
        genes[over, genes[over].argmax(axis=1)] -= 1


def ga_optimize(channel: ChannelRealization, config: ScenarioConfig,
                ga_config: GAConfig, rng: np.random.Generator):
    """Evolve K*F level indices toward the throughput maximum.

    Tournament selection, single-point crossover, per-gene mutation, budget
    repair and elitism, each applied to the whole population at once. The
    elites keep their fitness, and so does each child equal to its first
    parent; the other children are scored with one batched
    `network_utility` call per generation. Returns (power, throughput) of
    the best individual ever evaluated, and the generation in which it was
    first evaluated (0 for the initial population).
    """
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
        # np.take gathers the table's rows several times faster than
        # indexing with the (P, K) array of row numbers
        return np.take(table, cells @ radix, axis=0).reshape(len(genes), length)

    def utilities(genes):
        return network_utility(
            levels[genes.reshape(len(genes), num_cells, num_subbands)], channel)

    best_genes = None
    best_fit = -math.inf
    best_generation = 0

    def keep_best(population, fits, generation):
        nonlocal best_genes, best_fit, best_generation
        top = int(np.argmax(fits))
        if fits[top] > best_fit:
            best_fit = float(fits[top])
            best_genes = population[top].copy()
            best_generation = generation

    pop = repair(rng.integers(0, n_levels, size=(pop_size, length)))
    fits = utilities(pop)
    keep_best(pop, fits, 0)
    positions = np.arange(length)
    # np.take_along_axis builds this index anew in several numpy calls
    pair, child = np.ogrid[:2, :n_children]
    for generation in range(1, ga_config.generations + 1):
        # stable sort keeps ties deterministic
        elites = np.argsort(-fits, kind="stable")[:ga_config.elite_count]
        # the draws come in this fixed order every generation
        entrants = rng.integers(0, pop_size, size=(2, n_children, ga_config.tournament_size))
        winners = entrants[pair, child, fits[entrants].argmax(axis=2)]
        parents, donors = pop[winners[0]], pop[winners[1]]
        cross = rng.random(n_children) < ga_config.crossover_prob
        cut = rng.integers(1, max(length, 2), size=n_children)
        tail = cross[:, None] & (positions >= cut[:, None])
        children = np.where(tail, donors, parents)
        mutate = rng.random((n_children, length)) < ga_config.mutation_prob
        fresh = rng.integers(0, n_levels, size=(n_children, length))
        children = repair(np.where(mutate, fresh, children))
        # network_utility scores a genome alike in any batch, so the elites
        # and each child equal to its first parent keep the fitness they have
        child_fits = fits[winners[0]]
        changed = np.logical_or.reduce(children != parents, axis=1)
        child_fits[changed] = utilities(children[changed])
        pop = np.concatenate([pop[elites], children])
        fits = np.concatenate([fits[elites], child_fits])
        keep_best(pop, fits, generation)

    power = levels[best_genes.reshape(num_cells, num_subbands)]
    return power, best_fit, best_generation


class SearchSpaceTooLarge(RuntimeError):
    pass


# Joint actions scored per network_utility call in exhaustive search. It
# bounds the largest temporary to EXHAUSTIVE_CHUNK * K * U * F float64s.
EXHAUSTIVE_CHUNK = 1024


def exhaustive(channel: ChannelRealization, actions: np.ndarray, cap: int = 10 ** 6):
    """Exact maximizer over all m^K joint discrete actions.

    Joint actions are scored in lexicographic chunks (first cell most
    significant), one batched `network_utility` call per chunk. Ties
    resolve to the lexicographically smallest joint action. Refuses spaces
    larger than `cap`.
    """
    m = len(actions)
    k = channel.num_cells
    total = m ** k
    if total > cap:
        raise SearchSpaceTooLarge(
            f"joint space {m}^{k} = {total} exceeds the {cap} cap")

    best_util = -math.inf
    best_power = None
    for start in range(0, total, EXHAUSTIVE_CHUNK):
        index = np.arange(start, min(start + EXHAUSTIVE_CHUNK, total))
        joint = np.stack(np.unravel_index(index, (m,) * k), axis=1)     # (B, K)
        power = actions[joint]                                          # (B, K, F)
        utils = network_utility(power, channel)
        top = int(np.argmax(utils))      # first maximum within the chunk
        if utils[top] > best_util:       # strict: an earlier chunk keeps a tie
            best_util = utils[top]
            best_power = power[top]
    return best_power, float(best_util)


@dataclass(frozen=True)
class WmmseResult:
    power: np.ndarray        # (K, F) W, continuous
    throughput: float        # bits/s at the returned power
    converged: bool
    iterations: int          # WMMSE map evaluations
    objective_history: tuple  # objective at the start, then one entry per accepted iterate


def wmmse(channel: ChannelRealization, max_power: float, max_iters: int = 500,
          tol: float = 1e-8) -> WmmseResult:
    """Weighted-MMSE power control on the scalar per-subband channel.

    The subband-to-user map is frozen at the uniform-power assignment, which
    leaves one virtual user per cell: on subband f it is the user that cell
    serves there. The WMMSE map maximizes `network_utility` on that virtual
    channel, whose (K, K, F) gain array gives each cell one user, and that
    objective never decreases under it; the per-BS budgets are enforced
    through a multiplier solved for all cells at once.

    The map is accelerated by SQUAREM (Varadhan and Roland 2008): each
    cycle takes two maps v1 = F(v), v2 = F(v1), extrapolates along
    r = v1 - v and d = v2 - 2 v1 + v with the step a = min(-|r| / |d|, -1),
    clips and scales the extrapolate onto the budget, maps it once more, and
    accepts that point only if its objective beats v2's. The step backs off
    toward a = -1, where the extrapolate is v2, while it would zero an
    amplitude that v2 keeps positive: zero is a fixed point of the map, so
    a cell zeroed there would stay silent. The last accepted iterate is the
    best one. The solve converges when one cycle changes the objective by
    at most `tol` relative; `max_iters` bounds the map evaluations, which
    `iterations` counts, and with fewer than three left the maps are plain.
    The reported throughput is `network_utility` of the returned power on
    the real channel, under the rate-max subband rule that scores every
    other method.
    """
    num_cells = channel.num_cells
    num_subbands = channel.num_subbands
    noise = channel.noise_power

    uniform = np.full((num_cells, num_subbands), max_power / num_subbands)
    assignment = assign_subbands(uniform, channel)

    # gain2[j, l, f]: power gain from BS l to the user served on (j, f)
    gain2 = np.empty((num_cells, num_cells, num_subbands))
    for f in range(num_subbands):
        gain2[:, :, f] = channel.gain[assignment[:, f], :, f]
    diag = np.arange(num_cells)
    virtual = ChannelRealization(gain2, noise, channel.bandwidth_hz, channel.alpha)
    # the updates see the SNR gap folded into the direct (j == l) gains
    folded = gain2.copy()
    folded[diag, diag, :] *= channel.alpha
    direct = np.sqrt(folded[diag, diag, :])                       # (K, F)

    def update(v):
        """The WMMSE map on the amplitudes v = sqrt(power)."""
        power_rx = folded * (v * v)                                  # (K, K, F)
        mmse_rx = direct * v / (noise + np.add.reduce(power_rx, axis=1))   # (K, F)
        weight = 1.0 / (1.0 - mmse_rx * direct * v)
        num = weight * mmse_rx * direct
        den = np.einsum("jf,jkf->kf", weight * mmse_rx ** 2, folded)
        return _solve_budget(num, den, max_power)

    def objective(v):
        return network_utility(v * v, virtual)

    v = np.sqrt(uniform)
    obj = objective(v)
    history = [obj]
    converged = False
    iterations = 0
    while iterations < max_iters and not converged:
        prev_obj = obj
        if max_iters - iterations < 3:
            v = update(v)
            obj = objective(v)
            iterations += 1
        else:
            v1 = update(v)
            v2 = update(v1)
            r = v1 - v
            d = v2 - v1 - r
            norm_d = math.sqrt(np.vdot(d, d))
            a = -1.0 if norm_d == 0.0 else min(-math.sqrt(np.vdot(r, r)) / norm_d, -1.0)
            kept = v2 > 0.0
            while a < -1.0:
                x = v - 2.0 * a * r + a * a * d
                if np.logical_and.reduce(x[kept] > 0.0):
                    break
                a = (a - 1.0) / 2.0
            else:
                x = v2                   # the extrapolate at a = -1
            x = np.maximum(x, 0.0)
            total = np.add.reduce(x * x, axis=1)
            over = total > max_power
            if np.logical_or.reduce(over):
                x[over] *= np.sqrt(max_power / total[over])[:, None]
            v3 = update(x)
            iterations += 3
            # v2 and v3 scored in one call, each as if alone
            pair = np.array((v2, v3))
            obj, obj3 = network_utility(pair * pair, virtual).tolist()
            v = v2
            if obj3 > obj:
                v, obj = v3, obj3
        history.append(obj)
        converged = abs(obj - prev_obj) <= tol * max(1.0, abs(prev_obj))

    power = v * v
    return WmmseResult(power, network_utility(power, channel),
                       converged, iterations, tuple(history))


# Guard on the Newton steps of one budget solve. On perfbench's seed-0 test
# channels a solve takes 0 to 7, a median of 3 on desk and 4 on scenario1/3.
BUDGET_NEWTON_STEPS = 50


def _solve_budget(num: np.ndarray, den: np.ndarray, max_power: float) -> np.ndarray:
    """v[k, f] = num / (den + mu_k) with, for every cell k at once, the
    smallest mu_k >= 0 such that sum_f v[k, f]^2 <= max_power.

    A cell within budget at mu = 0 keeps mu = 0. The others run Newton's
    method from mu = 0 on 1 / ||v(mu)|| = 1 / sqrt(max_power), until no
    step exceeds one ulp of its mu. That function is concave and increasing
    in mu (the trust-region secular equation of More and Sorensen), so
    every iterate stays over budget and mu rises monotonically, and a
    single subband is solved in one step. Newton on sum_f v^2 = max_power
    directly is monotone too, but far over budget it gains only a factor
    1.5 per step. Round-off can leave a cell a few ulps over budget at the
    root; such a cell is shrunk onto the feasible side, so every row of the
    result satisfies (v ** 2).sum() <= max_power with no tolerance.
    """
    active = num > 0.0       # num > 0 implies den > 0; a zero stays a zero
    if not np.logical_and.reduce(active, axis=None):
        num = np.where(active, num, 0.0)
        den = np.where(active, den, 1.0)
    mu = np.zeros(len(num))
    shifted = den                                                  # den + mu
    for _ in range(BUDGET_NEWTON_STEPS):
        v = num / shifted
        square = v ** 2
        # the bare ufunc reductions and np.zeros skip the Python wrappers of
        # .sum, .any, .all and np.zeros_like, which dominate on (K, F) rows
        total = np.add.reduce(square, axis=1)
        over = total > max_power
        if not np.logical_or.reduce(over):
            return v
        # d(total)/dmu = -2 * slope; cells within budget take no step
        slope = np.add.reduce(square / shifted, axis=1)
        step = (np.divide(total, slope, out=np.zeros(len(total)), where=over)
                * (np.sqrt(total / max_power) - 1.0))
        mu += step
        shifted = den + mu[:, None]
        if np.logical_and.reduce(step <= np.spacing(mu)):
            break
    v = num / shifted
    while True:
        total = np.add.reduce(v ** 2, axis=1)
        over = total > max_power
        if not np.logical_or.reduce(over):
            return v
        # a factor strictly below 1 shrinks every nonzero entry
        v[over] *= np.nextafter(np.sqrt(max_power / total[over]), 0.0)[:, None]


def max_power_baseline(config: ScenarioConfig, level: float) -> np.ndarray:
    """Fixed per-subband power for every cell; rejects budget violations."""
    if level * config.num_subbands > config.max_power + BUDGET_TOL:
        raise ConfigError(
            f"max_power_level {level} W on {config.num_subbands} subbands "
            f"exceeds the {config.max_power} W budget")
    return np.full((config.num_cells, config.num_subbands), float(level))


def random_power_baseline(actions: np.ndarray, num_cells: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Independently uniform feasible action per cell."""
    return actions[rng.integers(0, len(actions), size=num_cells)]


BASELINES = ("ga", "wmmse", "maxpower", "random", "exhaustive")
# The per-sample diagnostics of a test phase: `<solver>_<key>` for each key
# of the diagnostics that `score` returns for that solver.
DIAGNOSTICS = ("ga_best_generation", "wmmse_iterations", "wmmse_converged")


def score(name: str, channel: ChannelRealization, env: PowerControlEnv,
          sample_seed: int, ga_config: GAConfig,
          max_power_level: float) -> tuple[float, dict]:
    """Throughput in bits/s of reference solver `name` on one frozen
    channel, and its diagnostics: the generation in which GA first
    evaluated its best, WMMSE's iteration count and convergence, nothing
    for the others.

    A test sample with seed s draws its channel from [s, 0]; GA draws from
    [s, 1] and the random allocation from [s, 2]. Each solver is looked up
    in this module when called, so a rebound solver is the one that runs.
    """
    config = env.config
    if name == "ga":
        _, util, generation = ga_optimize(channel, config, ga_config,
                                          np.random.default_rng([sample_seed, 1]))
        return util, {"best_generation": generation}
    if name == "wmmse":
        res = wmmse(channel, config.max_power)
        return res.throughput, {"iterations": res.iterations,
                                "converged": res.converged}
    if name == "exhaustive":
        return exhaustive(channel, env.actions)[1], {}
    if name == "maxpower":
        power = max_power_baseline(config, max_power_level)
    elif name == "random":
        power = random_power_baseline(env.actions, config.num_cells,
                                      np.random.default_rng([sample_seed, 2]))
    else:
        raise ValueError(f"unknown baseline {name!r}; expected one of {BASELINES}")
    return network_utility(power, channel), {}
