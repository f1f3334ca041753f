"""Output checks of one workload run, against the benchmark's own oracle.

The oracle is written out here from the model's definition and shares no
code with cellpower: for every (cell, subband) it takes the best of the
cell's users' rates B*log2(1 + alpha*SINR), with the interference summed
directly over the other cells. Channels and powers come from the solver
calls the run made (captured by wrapping them), never from replaying the
order of random draws.
"""

import csv
import itertools
import math
import os

# Relative tolerance of every throughput comparison.
REL_TOL = 1e-9
# GA is checked against brute force when the joint action space is at most
# this large: 9^3 = 729 joint actions on desk, 72^5 on scenario1.
BRUTE_FORCE_MAX = 10_000


def snr_gap(target_ber):
    return -1.5 / math.log(5.0 * target_ber)


def oracle_utility(power, channel, users_per_cell, alpha):
    """Total throughput in bits/s of the (K, F) allocation `power`."""
    gain = channel.gain.tolist()
    p = [list(map(float, row)) for row in power]
    num_cells, num_subbands = len(p), len(p[0])
    total = 0.0
    for k in range(num_cells):
        for f in range(num_subbands):
            best = -math.inf
            for u in range(k * users_per_cell, (k + 1) * users_per_cell):
                interference = 0.0
                for other in range(num_cells):
                    if other != k:
                        interference += p[other][f] * gain[u][other][f]
                sinr = p[k][f] * gain[u][k][f] / (channel.noise_power + interference)
                best = max(best, channel.bandwidth_hz * math.log2(1.0 + alpha * sinr))
            total += best
    return total


def feasible_actions(levels, num_subbands, max_power):
    """Every per-cell level vector within the budget, as tuples of watts."""
    return [combo for combo in itertools.product(levels, repeat=num_subbands)
            if sum(combo) <= max_power + REL_TOL]


def close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def at_most(a, b):
    return a <= b + REL_TOL * max(abs(a), abs(b))


class Checker:
    def __init__(self):
        self.failures = []

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)
        return ok


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_discrete(chk, what, power, levels, max_power):
    for k, row in enumerate(power):
        chk.expect(all(float(p) in levels for p in row),
                   f"{what}: cell {k} power {list(row)} off the level grid")
        chk.expect(sum(float(p) for p in row) <= max_power + REL_TOL,
                   f"{what}: cell {k} exceeds the {max_power} W budget")


def check_test(chk, out_dir, samples, scenario):
    """results.csv against the oracle for the powers behind each number.

    `samples` holds one dict per test sample with the captured channel and
    the power each solver returned. Where the joint action space is small
    enough, GA is also compared with the optimum over every joint action.
    """
    rows = _read_csv(os.path.join(out_dir, "results.csv"))
    if not chk.expect(len(rows) == len(samples),
                      f"results.csv has {len(rows)} rows, {len(samples)} samples ran"):
        return
    levels = {float(p) for p in scenario.power_levels}
    max_power = scenario.max_power
    upc = scenario.users_per_cell
    alpha = snr_gap(scenario.target_ber)
    table = [tuple(float(row[key]) for key in row if key.startswith("p"))
             for row in _read_csv(os.path.join(out_dir, "actions.csv"))]
    own = feasible_actions(sorted(levels), scenario.num_subbands, max_power)
    chk.expect(sorted(table) == sorted(own),
               "actions.csv differs from the budget-feasible level vectors")
    joint_space = None
    if len(own) ** scenario.num_cells <= BRUTE_FORCE_MAX:
        joint_space = list(itertools.product(own, repeat=scenario.num_cells))

    for i, (row, s) in enumerate(zip(rows, samples)):
        channel = s["channel"]
        dql_power = [table[int(a)] for a in row["dql_action"].split("|")]
        for method, power in (("dql", dql_power), ("ga", s["ga"][0]),
                              ("maxpower", s["maxpower_power"]),
                              ("random", s["random_power"])):
            check_discrete(chk, f"sample {i} {method}", power, levels, max_power)
            reported = float(row[f"{method}_bps"])
            oracle = oracle_utility(power, channel, upc, alpha)
            chk.expect(close(reported, oracle),
                       f"sample {i} {method}: {reported!r} bps != oracle {oracle!r}")
        chk.expect(float(row["ga_bps"]) == s["ga"][1],
                   f"sample {i}: results.csv GA value is not what GA returned")

        if joint_space is not None:
            optimum = max(oracle_utility(joint, channel, upc, alpha) for joint in joint_space)
            chk.expect(at_most(float(row["ga_bps"]), optimum),
                       f"sample {i}: GA {row['ga_bps']} above the brute-force optimum {optimum!r}")

        wm = s["wmmse"]
        chk.expect(bool((wm.power >= 0.0).all()), f"sample {i}: negative WMMSE power")
        chk.expect(all(at_most(float(t), max_power) for t in wm.power.sum(axis=1)),
                   f"sample {i}: WMMSE power exceeds the {max_power} W budget")
        hist = wm.objective_history
        chk.expect(all(b >= a - REL_TOL * max(1.0, abs(a)) for a, b in zip(hist, hist[1:])),
                   f"sample {i}: WMMSE objective history decreases")
        reported = float(row["wmmse_bps"])
        chk.expect(reported == wm.throughput,
                   f"sample {i}: results.csv WMMSE value is not what WMMSE returned")
        oracle = oracle_utility(wm.power, channel, upc, alpha)
        chk.expect(at_most(reported, oracle),
                   f"sample {i}: WMMSE reports {reported!r} bps, above the oracle "
                   f"{oracle!r} for its own power")


def check_training(chk, out_dir, agent_config, gradient_steps):
    """Step accounting and the learning signal of training_log.csv.

    With train_every = 1, training starts at the env step where the buffer
    first holds train_start transitions and runs once per step after it.
    An episode that ends before that step has no loss to log (nan); every
    later one must log a finite loss.
    """
    train_steps = agent_config.train_steps
    train_start = agent_config.resolved_train_start()
    chk.expect(agent_config.train_every == 1 and agent_config.replay_capacity >= train_start,
               "workload config breaks the gradient-step accounting")
    chk.expect(gradient_steps == train_steps - train_start + 1,
               f"gradient_steps {gradient_steps} != {train_steps} - {train_start} + 1")
    episodes = _read_csv(os.path.join(out_dir, "training_log.csv"))
    chk.expect(sum(int(e["length"]) for e in episodes) == train_steps,
               "episode lengths do not sum to train_steps")
    for e in episodes:
        loss = float(e["loss"])
        if int(e["step"]) >= train_start:
            chk.expect(math.isfinite(loss), f"episode {e['episode']}: loss {loss!r}")
        else:
            chk.expect(math.isnan(loss), f"episode {e['episode']}: loss before training")
