"""Command-line entry points: train, test, baseline, compare, dump-actions."""

import argparse
import json
import sys

import numpy as np

from . import baselines, harness
from .env import actions_to_csv
from .netmodel import build_topology, draw_channel, network_utility


def _add_common(p):
    p.add_argument("--scenario", default=None,
                   help="scenario1 | scenario2 | scenario3 | custom")
    p.add_argument("--config", default=None, help="key/value config file")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--out", default=None, help="output directory")


def _build_spec(args, **extra) -> harness.ExperimentSpec:
    overrides = {"scenario": args.scenario, "master_seed": args.seed,
                 "output_dir": args.out}
    overrides.update(extra)
    if args.config:
        return harness.spec_from_file(args.config, **overrides)
    overrides = {k: v for k, v in overrides.items() if v is not None}
    scenario = overrides.pop("scenario", "scenario1")
    return harness.ExperimentSpec(scenario=scenario,
                                  config=harness.scenario_preset(scenario),
                                  **overrides)


def _cmd_train(args):
    spec = _build_spec(args)
    if args.steps is not None:
        spec.agent.train_steps = args.steps
    # train is a pure training run unless an evaluation size is requested
    spec.n_test_samples = args.samples if args.samples is not None else 0
    report = harness.run_experiment(spec)
    print(report.to_json())
    return 0


def _cmd_test(args):
    spec = _build_spec(args, checkpoint=args.checkpoint)
    if args.samples is not None:
        spec.n_test_samples = args.samples
    report = harness.run_experiment(spec)
    print(report.to_json())
    return 0


def _cmd_compare(args):
    spec = _build_spec(args, checkpoint=args.checkpoint)
    if args.steps is not None:
        spec.agent.train_steps = args.steps
    if args.samples is not None:
        spec.n_test_samples = args.samples
    report = harness.run_experiment(spec)
    print(report.to_json())
    return 0


def _cmd_baseline(args):
    spec = _build_spec(args)
    env = harness.build_env(spec)
    seeds = np.random.default_rng(spec.master_seed).integers(
        0, 2 ** 63 - 1, size=10 if args.samples is None else args.samples)
    out = []
    for seed in (int(s) for s in seeds):
        diagnostics = {}
        rng = np.random.default_rng([seed, 0])
        topo = build_topology(spec.config, rng)
        channel = draw_channel(topo, spec.config, rng)
        if args.name == "ga":
            _, util = baselines.ga_optimize(channel, topo, spec.config, spec.ga,
                                            np.random.default_rng([seed, 1]))
        elif args.name == "wmmse":
            res = baselines.wmmse(channel, topo, spec.config.max_power, env.alpha)
            util = res.throughput
            diagnostics = {"iterations": res.iterations, "converged": res.converged}
        elif args.name == "maxpower":
            power = baselines.max_power_baseline(spec.config, spec.max_power_level)
            util = network_utility(power, channel, topo, env.alpha)
        elif args.name == "random":
            power = baselines.random_power_baseline(
                env.actions, spec.config.num_cells, np.random.default_rng([seed, 2]))
            util = network_utility(power, channel, topo, env.alpha)
        elif args.name == "exhaustive":
            _, util = baselines.exhaustive(channel, topo, env.actions, env.alpha)
        else:
            raise ValueError(f"unknown baseline {args.name!r}")
        out.append({"channel_seed": seed, "throughput_bps": util, **diagnostics})
    print(json.dumps(out, indent=2))
    return 0


def _cmd_dump_actions(args):
    spec = _build_spec(args)
    env = harness.build_env(spec)
    sys.stdout.write(actions_to_csv(env.actions))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cellpower",
        description="Deep-Q downlink power allocation for multi-cell networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a Q-network and write artifacts")
    _add_common(p)
    p.add_argument("--steps", type=int, default=None, help="training step budget")
    p.add_argument("--samples", type=int, default=None, help="post-train test samples")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("test", help="evaluate a checkpoint against all baselines")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(fn=_cmd_test)

    p = sub.add_parser("compare", help="train (or load) then benchmark all methods")
    _add_common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("baseline", help="run one reference solver on fresh channels")
    p.add_argument("name", choices=["ga", "wmmse", "maxpower", "random", "exhaustive"])
    _add_common(p)
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(fn=_cmd_baseline)

    p = sub.add_parser("dump-actions", help="print the feasible action table as CSV")
    _add_common(p)
    p.set_defaults(fn=_cmd_dump_actions)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
