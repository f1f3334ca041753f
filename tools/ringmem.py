"""Memory of a full replay ring, per preset.

Usage, from the root of a source checkout:
    python3 tools/ringmem.py

For each of desk (sample-experiment.cfg), scenario1, scenario2 and
scenario3, a fresh Python process builds the preset's env and plays
random-action episodes until it holds POOL transitions, the states that
encode_state gives. It then pushes those episodes in turn into a
ReplayBuffer of AgentConfig's default capacity until the ring is full,
as agent.train would. Each preset prints one line: the state width, the
bytes of the ring's arrays whose rows are states (its state storage), the
bytes of its action array, the bytes of all its arrays, and the growth of
ru_maxrss over the fill in MiB. The arrays are made with np.empty, so the
growth counts only pages the pushes wrote (the target cache is never
written here).
"""

import argparse
import os
import resource
import subprocess
import sys

import numpy as np

PRESETS = ("desk", "scenario1", "scenario2", "scenario3")
POOL = 4_000     # distinct transitions, pushed in a cycle of whole episodes


def build_env(preset):
    from cellpower import harness
    if preset == "desk":
        return harness.build_env(harness.spec_from_file("sample-experiment.cfg"))
    return harness.build_env(harness.spec_from_values({"scenario": preset}))


def measure(preset):
    from cellpower.agent import AgentConfig
    from cellpower.replay import ReplayBuffer

    env = build_env(preset)
    rng = np.random.default_rng(0)
    pool = []
    while len(pool) < POOL:
        ctx, state = env.reset(rng)
        while not ctx.terminal:
            action = rng.integers(0, len(env.actions), size=env.config.num_cells)
            next_state, reward, terminal, _ = env.step(ctx, action)
            pool.append((state, action, reward, next_state, terminal))
            state = next_state
    capacity = AgentConfig().replay_capacity
    buf = ReplayBuffer(capacity, env.state_scale, len(env.actions))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(buf) < capacity:
        for transition in pool[:capacity - len(buf)]:
            buf.push(*transition)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    arrays = [a for a in vars(buf).values() if isinstance(a, np.ndarray)]
    state_bytes = sum(a.nbytes for a in arrays if a.shape[-1] == env.state_size)
    print(f"{preset:9s}  width {env.state_size:3d}  rows {len(buf):,}  "
          f"state storage {state_bytes / 2 ** 20:7.1f} MiB  "
          f"actions ({buf.action.dtype}) {buf.action.nbytes / 2 ** 20:5.2f} MiB  "
          f"all arrays {sum(a.nbytes for a in arrays) / 2 ** 20:7.1f} MiB  "
          f"ru_maxrss growth {(after - before) / 1024:7.1f} MiB", flush=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--preset", choices=PRESETS,
                   help="measure this preset in this process (default: each in its own)")
    args = p.parse_args(argv)
    if args.preset:
        measure(args.preset)
        return 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")])))
    for preset in PRESETS:
        subprocess.run([sys.executable, __file__, "--preset", preset], env=env, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
