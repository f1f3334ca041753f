"""One workload run in its own process; started by run.py.

Trains through `harness.run_experiment` (the `cellpower train` path), then
evaluates the checkpoint through `harness.run_experiment` again (the
`cellpower test --checkpoint` path) on test channels drawn from a fixed
seed, checks every output, and writes its measurements as JSON to --result.
Timing and capture hooks wrap a few calls per run (train, test, and one
per test-sample solver call), so they cost nothing measurable; --trace adds
the per-call tracer.
"""

import argparse
import json
import os
import resource
import time

clock = time.monotonic

# Master seed of the evaluation call. The test channels do not depend on
# --seed, so every run has the same WMMSE outcomes; see README.md.
TEST_SEED = 0


class SetupDone(Exception):
    """Raised at the first env step of a --setup-only run."""


# per-layer metric -> (span, statistic, scale); see README.md for meanings
SPAN_METRICS = {
    "netmodel.network_utility.calls": ("netmodel.network_utility", "calls", 1),
    "netmodel.network_utility.us_per_call": ("netmodel.network_utility", "per_call", 1e6),
    "netmodel.serving_sinr.calls": ("netmodel.serving_sinr", "calls", 1),
    "netmodel.serving_sinr.us_per_call": ("netmodel.serving_sinr", "per_call", 1e6),
    "netmodel.build_topology.us_per_call": ("netmodel.build_topology", "per_call", 1e6),
    "netmodel.draw_channel.us_per_call": ("netmodel.draw_channel", "per_call", 1e6),
    "env.reset.us_per_call": ("env.PowerControlEnv.reset", "per_call", 1e6),
    "env.step.us_per_call": ("env.PowerControlEnv.step", "per_call", 1e6),
    "env.encode_state.us_per_call": ("env.PowerControlEnv.encode_state", "per_call", 1e6),
    "qnet.forward_single.us_per_call": ("qnet.MLP.forward_single", "per_call", 1e6),
    "qnet.forward_batch.us_per_call": ("qnet.MLP.forward_batch", "per_call", 1e6),
    "qnet.train_batch.calls": ("qnet.train_batch", "calls", 1),
    "qnet.train_batch.ms_per_call": ("qnet.train_batch", "per_call", 1e3),
    "qnet.backprop.ms_per_call": ("qnet.backprop", "per_call", 1e3),
    "qnet.rmsprop_apply.ms_per_call": ("qnet.RMSprop.apply", "per_call", 1e3),
    "qnet.clone.ms_per_call": ("qnet.MLP.clone", "per_call", 1e3),
    "replay.push.us_per_call": ("replay.ReplayBuffer.push", "per_call", 1e6),
    "replay.sample.us_per_call": ("replay.ReplayBuffer.sample", "per_call", 1e6),
    "agent.select_joint_action.us_per_call": ("agent.select_joint_action", "per_call", 1e6),
    "agent.bellman_targets.us_per_call": ("agent.bellman_targets", "per_call", 1e6),
    "agent.greedy_rollout.ms_per_call": ("agent.greedy_rollout", "per_call", 1e3),
    "agent.train.self_s": ("agent.train", "self", 1),
    "agent.test.self_s": ("agent.test", "self", 1),
    "baselines.ga.s_per_call": ("baselines.ga_optimize", "per_call", 1),
    "baselines.wmmse.s_per_call": ("baselines.wmmse", "per_call", 1),
    "harness.run_experiment.self_s": ("harness.run_experiment", "self", 1),
}
LAYERS = ("netmodel", "env", "qnet", "replay")


def layer_metrics(tracer, samples, ga_generations):
    out = {}
    for metric, (span, stat, scale) in SPAN_METRICS.items():
        value = {"calls": tracer.calls, "per_call": tracer.per_call_s,
                 "self": tracer.self_s}[stat](span)
        out[metric] = value * scale
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.layer_self_s(layer)
    out["baselines.ga.ms_per_generation"] = (
        1e3 * tracer.per_call_s("baselines.ga_optimize") / ga_generations)
    out["baselines.ga.utility_calls"] = (
        sum(s["ga_utility_calls"] for s in samples) / len(samples))
    iterations = sum(s["wmmse"].iterations for s in samples)
    out["baselines.wmmse.iterations"] = iterations / len(samples)
    out["baselines.wmmse.ms_per_iteration"] = (
        1e3 * tracer.inclusive_s("baselines.wmmse") / iterations)
    out["baselines.wmmse.converged_ratio"] = (
        sum(bool(s["wmmse"].converged) for s in samples) / len(samples))
    return out


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--grad-steps", type=int, required=True,
                   help="gradient steps; training runs train_start - 1 env steps more")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() just before this process was started")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    from cellpower import agent, baselines, env, harness, netmodel, qnet, replay

    marks = {}
    sample_starts = []
    samples = []          # per test sample: captured channel and solver outputs

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install([netmodel, env, qnet, replay, agent, baselines, harness])

    def first_step(step):
        def hook(self, *a, **kw):
            marks["first_step"] = clock()
            env.PowerControlEnv.step = step
            if args.setup_only:
                raise SetupDone
            return step(self, *a, **kw)
        return hook

    def timed(key):
        def make(fn):
            def run(*a, **kw):
                start = clock()
                out = fn(*a, **kw)
                marks[key] = (start, clock())
                return out
            return run
        return make

    def rollout(fn):
        def run(*a, **kw):
            sample_starts.append(clock())
            ctx, action, throughput = fn(*a, **kw)
            samples.append({"channel": ctx.channel})
            return ctx, action, throughput
        return run

    def capture(key):
        def make(fn):
            def run(*a, **kw):
                samples[-1][key] = out = fn(*a, **kw)
                return out
            return run
        return make

    def count_utilities(fn):
        def run(*a, **kw):
            before = tracer.calls("netmodel.network_utility")
            out = fn(*a, **kw)
            samples[-1]["ga_utility_calls"] = tracer.calls("netmodel.network_utility") - before
            return out
        return run

    env.PowerControlEnv.step = first_step(env.PowerControlEnv.step)
    agent.train = timed("train")(agent.train)
    agent.test = timed("test")(agent.test)
    agent.greedy_rollout = rollout(agent.greedy_rollout)
    baselines.ga_optimize = capture("ga")(baselines.ga_optimize)
    if tracer is not None:
        baselines.ga_optimize = count_utilities(baselines.ga_optimize)
    baselines.wmmse = capture("wmmse")(baselines.wmmse)
    baselines.max_power_baseline = capture("maxpower_power")(baselines.max_power_baseline)
    baselines.random_power_baseline = capture("random_power")(baselines.random_power_baseline)

    train_dir = os.path.join(args.out, "train")
    test_dir = os.path.join(args.out, "test")
    error = None
    train_spec = train_report = None
    try:
        train_spec = harness.spec_from_file(
            args.config, master_seed=args.seed, output_dir=train_dir, n_test_samples=0)
        train_spec.agent.train_steps = (
            train_spec.agent.resolved_train_start() - 1 + args.grad_steps)
        train_report = harness.run_experiment(train_spec)
        test_spec = harness.spec_from_file(
            args.config, master_seed=TEST_SEED, output_dir=test_dir,
            n_test_samples=args.samples,
            checkpoint=os.path.join(train_dir, "qnet.ckpt"))
        harness.run_experiment(test_spec)
    except SetupDone:
        pass
    except Exception as exc:   # reported as failed operations and a failed check
        error = f"{type(exc).__name__}: {exc}"
    end = clock()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"setup_s": marks["first_step"] - args.t0 if "first_step" in marks else None}
    if not args.setup_only:
        import checks

        completed = [s for s in samples if "wmmse" in s and "random_power" in s]
        converged = sum(bool(s["wmmse"].converged) for s in completed)
        chk = checks.Checker()
        chk.expect(error is None, f"run raised {error}")
        if error is None:
            checks.check_training(chk, train_dir, train_spec.agent,
                                  train_report.metadata["gradient_steps"])
            checks.check_test(chk, test_dir, completed, train_spec.config)
        sample_ends = sample_starts[1:] + ([marks["test"][1]] if "test" in marks else [])
        result.update({
            # one operation per test sample and one per WMMSE solve; a WMMSE
            # solve fails when it returns converged=False
            "attempted": 2 * args.samples,
            "failed": 2 * (args.samples - len(completed)) + len(completed) - converged,
            "check_failures": chk.failures,
            "train_steps": train_spec.agent.train_steps if train_spec else None,
            "train_s": marks["train"][1] - marks["train"][0] if "train" in marks else None,
            "sample_s": [b - a for a, b in zip(sample_starts, sample_ends)],
            "wall_s": end - args.t0,
            "peak_rss_mb": peak_rss_kib / 1024.0,
        })
        if tracer is not None and error is None:
            layers = layer_metrics(tracer, completed, train_spec.ga.generations)
            layers["harness.artifact_bytes"] = sum(
                os.path.getsize(os.path.join(d, name))
                for d in (train_dir, test_dir) for name in os.listdir(d))
            result["layers"] = layers
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
