"""Command-line entry points: train, test, baseline, compare, dump-actions."""

import argparse
import json
import sys
import traceback

import numpy as np

from . import agent, baselines, harness


def _build_spec(args) -> harness.ExperimentSpec:
    """The config file's values, if any, under the flags that were given."""
    return harness.spec_from_file(
        args.config, scenario=args.scenario, master_seed=args.seed,
        output_dir=args.out, checkpoint=args.checkpoint,
        train_steps=args.steps, n_test_samples=args.samples)


def _cmd_run(args):
    """train, test and compare: one run of harness.run_experiment."""
    report = harness.run_experiment(_build_spec(args))
    print(report.to_json())
    return 0


def _cmd_baseline(args):
    """Score one reference solver on the channels of the test phase."""
    spec = _build_spec(args)
    env = harness.build_env(spec)
    out = []
    for seed in agent.sample_seeds(harness.evaluation_seed(spec.master_seed),
                                   spec.n_test_samples):
        ctx, _ = env.reset(np.random.default_rng([seed, 0]))
        util, diagnostics = baselines.score(args.name, ctx.channel, env, seed,
                                            spec.ga, spec.max_power_level)
        out.append({"channel_seed": seed, "throughput_bps": util, **diagnostics})
    print(json.dumps(out, indent=2))
    return 0


def _cmd_dump_actions(args):
    spec = _build_spec(args)
    env = harness.build_env(spec)
    sys.stdout.write(harness.actions_to_csv(env.actions))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cellpower",
        description="Deep-Q downlink power allocation for multi-cell networks")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flag groups; each command takes only the groups it uses.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", default=None,
                        help="scenario1 | scenario2 | scenario3 | custom")
    common.add_argument("--config", default=None, help="key/value config file")
    common.add_argument("--debug", action="store_true",
                        help="print the full traceback of an error")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="master seed")
    run = argparse.ArgumentParser(add_help=False, parents=[common, seeded])
    run.add_argument("--out", default=None, help="output directory")

    # _build_spec reads seed, out, checkpoint, steps and samples; set_defaults
    # fills in those a command takes no flag for.
    p = sub.add_parser("train", parents=[run],
                       help="train a Q-network and write artifacts")
    p.add_argument("--steps", type=int, default=None, help="training step budget")
    p.add_argument("--samples", type=int, default=0,
                   help="post-train test samples (default 0)")
    p.set_defaults(fn=_cmd_run, checkpoint=None)

    p = sub.add_parser("test", parents=[run],
                       help="evaluate a checkpoint against all baselines")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(fn=_cmd_run, steps=None)

    p = sub.add_parser("compare", parents=[run],
                       help="train (or load) then benchmark all methods")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("baseline", parents=[common, seeded],
                       help="run one reference solver on the test-phase channels")
    p.add_argument("name", choices=baselines.BASELINES)
    p.add_argument("--samples", type=int, default=10)
    p.set_defaults(fn=_cmd_baseline, out=None, checkpoint=None, steps=None)

    p = sub.add_parser("dump-actions", parents=[common],
                       help="print the feasible action table as CSV")
    p.set_defaults(fn=_cmd_dump_actions, seed=None, out=None, checkpoint=None,
                   steps=None, samples=None)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        if args.debug:
            traceback.print_exc()
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
