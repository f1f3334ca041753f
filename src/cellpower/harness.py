"""Experiment orchestration: presets, config files, train/test runs,
normalized-throughput reports and reproducible on-disk artifacts."""

import dataclasses
import hashlib
import json
import math
import os
import time
import types
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import agent as agent_mod
from .agent import METHODS, AgentConfig
from .baselines import DIAGNOSTICS, GAConfig, max_power_baseline
from .env import PowerControlEnv
from .netmodel import ConfigError, ScenarioConfig, check_intervals
from .qnet import MLP, RMSprop, load_checkpoint, save_checkpoint

# The three evaluation presets differ only in cell count.
SCENARIO_CELLS = {"scenario1": 5, "scenario2": 10, "scenario3": 15}


def scenario_preset(name: str, **overrides) -> ScenarioConfig:
    if name in SCENARIO_CELLS:
        overrides.setdefault("num_cells", SCENARIO_CELLS[name])
    elif name != "custom":
        raise ConfigError(f"unknown scenario {name!r}; expected "
                          f"{sorted(SCENARIO_CELLS)} or 'custom'")
    return ScenarioConfig(**overrides)


@dataclass
class ExperimentSpec:
    scenario: str = "scenario1"
    config: ScenarioConfig = field(default_factory=ScenarioConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    ga: GAConfig = field(default_factory=GAConfig)
    n_test_samples: int = 100
    master_seed: int = 0
    output_dir: str = "runs/experiment"
    max_power_level: float = 12.8
    terminal_reward: float = -1.0
    max_episode_steps: int = 500
    # a network to evaluate: a run with a checkpoint never trains, and
    # ignores checkpoint_interval and every agent key but hidden_size
    checkpoint: str | None = None
    checkpoint_interval: int | None = None   # env steps between periodic saves

    def __post_init__(self):
        check_intervals(self, {
            "n_test_samples": "[0, inf)", "master_seed": "[0, inf)",
            "max_power_level": "(0, inf)", "terminal_reward": "(-inf, inf)",
            "max_episode_steps": "[1, inf)", "checkpoint_interval": "[1, inf)"})
        if self.n_test_samples > 0:
            # fail before training rather than at the first test sample
            max_power_baseline(self.config, self.max_power_level)


def _keys(prefix: str, cls) -> dict:
    """Config key -> (class, field name, annotation) of each plain field of
    `cls`; the nested config sections of ExperimentSpec are not keys."""
    return {prefix + f.name: (cls, f.name, f.type) for f in dataclasses.fields(cls)
            if not dataclasses.is_dataclass(f.type)}


# GA keys carry a `ga_` prefix; every other key is its field's name.
CONFIG_KEYS = {**_keys("", ScenarioConfig), **_keys("", AgentConfig),
               **_keys("ga_", GAConfig), **_keys("", ExperimentSpec)}
SPEC_KEYS = set(_keys("", ExperimentSpec))


def parse_kv_file(path) -> dict:
    """Plain-text `key = value` lines; '#' starts a comment. A key set
    twice is a ConfigError."""
    values, lines = {}, {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            if key in lines:
                raise ConfigError(f"{path}:{lineno}: {key} already set on line {lines[key]}")
            lines[key], values[key] = lineno, val.strip()
    return values


def _coerce(value: str):
    """Config-file text as an int, a float or a tuple of comma-separated
    floats; `none` or nothing is None and other text stays text."""
    for cast in (int, float, lambda v: tuple(float(x) for x in v.split(","))):
        try:
            return cast(value)
        except ValueError:
            pass
    return None if value.lower() in ("none", "") else value


# Python types a config value may have, by field annotation.
VALUE_TYPES = {int: {int}, float: {int, float}, str: {str}, type(None): {type(None)},
               tuple[float, ...]: {int, float, tuple}}


def _typed(key: str, value, annotation):
    """`value`, parsed first if it is config-file text, checked against its
    field's annotation; a misfit is a ConfigError that names `key`."""
    kinds = (annotation.__args__ if isinstance(annotation, types.UnionType)
             else (annotation,))
    if isinstance(value, str):
        parsed = _coerce(value)
        value = value if str in kinds and parsed is not None else parsed
    if not any(type(value) in VALUE_TYPES[kind] for kind in kinds):
        name = annotation.__name__ if isinstance(annotation, type) else annotation
        raise ConfigError(f"{key} must be {name}, got {value!r}")
    return value


def spec_from_file(path, **cli_overrides) -> ExperimentSpec:
    """Build an ExperimentSpec from a key/value file, when `path` is given,
    plus CLI overrides; an override of None keeps the file's value."""
    raw = parse_kv_file(path) if path else {}
    raw.update({k: v for k, v in cli_overrides.items() if v is not None})
    return spec_from_values(raw)


def spec_from_values(values: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from flat key/value pairs. A string value is
    parsed as in a config file and every value must fit its field's
    annotation; without a `scenario` key, ExperimentSpec's default applies."""
    sections = {ScenarioConfig: {}, AgentConfig: {}, GAConfig: {}, ExperimentSpec: {}}
    for key, value in values.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        cls, name, annotation = CONFIG_KEYS[key]
        sections[cls][name] = _typed(key, value, annotation)
    spec_kv = sections[ExperimentSpec]
    scenario = spec_kv.pop("scenario", ExperimentSpec.scenario)
    return ExperimentSpec(scenario=scenario,
                          config=scenario_preset(scenario, **sections[ScenarioConfig]),
                          agent=AgentConfig(**sections[AgentConfig]),
                          ga=GAConfig(**sections[GAConfig]),
                          **spec_kv)


def config_hash(spec: ExperimentSpec) -> str:
    ignored, parts = {"output_dir", "checkpoint"}, []
    if spec.checkpoint:
        # its bytes stand in for the keys a checkpoint run ignores: it never
        # trains, and of the agent keys only hidden_size is checked (against
        # the checkpoint, by load_network)
        ignored |= {f"agent.{f.name}" for f in dataclasses.fields(spec.agent)
                    if f.name != "hidden_size"} | {"checkpoint_interval"}
        digest = hashlib.sha256()
        with open(spec.checkpoint, "rb") as f:
            for block in iter(lambda: f.read(1 << 16), b""):
                digest.update(block)
        parts.append(f"checkpoint={digest.hexdigest()}")
    parts += [f"{prefix}.{f.name}={getattr(cfg, f.name)!r}" for prefix, cfg in
              (("scenario", spec.config), ("agent", spec.agent), ("ga", spec.ga))
              for f in dataclasses.fields(cfg) if f"{prefix}.{f.name}" not in ignored]
    parts += [f"{name}={getattr(spec, name)!r}" for name in SPEC_KEYS - ignored]
    return hashlib.sha256("\n".join(sorted(parts)).encode()).hexdigest()


@dataclass
class ComparisonReport:
    """Each method's mean throughput normalized by the GA solution on the
    same channel; results.csv holds the per-sample ratios."""

    mean: dict                       # method -> mean ratio
    excluded: int                    # samples dropped for non-positive GA throughput
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """Strict JSON: a non-finite float (a mean or margin without test
        samples) is written as null."""
        return json.dumps(_finite_or_null(dataclasses.asdict(self)), indent=2,
                          sort_keys=True, allow_nan=False)


def _finite_or_null(value):
    """`value` with every non-finite float inside it replaced by None."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def normalized_throughput(phase: dict) -> tuple[dict, ComparisonReport]:
    """Each method's per-sample throughput over GA's in a test phase, as
    `agent.test` returns it, and the means of those ratios. A sample with
    non-positive GA throughput has NaN ratios and is left out of the means,
    with a warning; without samples, or with every sample left out, each
    mean is NaN."""
    ga = phase["ga_bps"]
    kept = [g > 0.0 for g in ga]
    for seed, keep in zip(phase["channel_seed"], kept):
        if not keep:
            warnings.warn(f"sample with channel seed {seed} "
                          "has non-positive GA throughput; excluded")
    ratios = {m: [t / g if keep else float("nan")
                  for t, g, keep in zip(phase[f"{m}_bps"], ga, kept, strict=True)]
              for m in METHODS}
    mean = {m: float(np.mean(np.compress(kept, r))) if any(kept) else float("nan")
            for m, r in ratios.items()}
    return ratios, ComparisonReport(mean, kept.count(False))


def _write_text(path, text: str) -> None:
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(columns: dict) -> str:
    """A table of equal-length columns as CSV: the keys are the header and
    row i holds entry i of every column; text is written as is and every
    other value as its repr. Columns of different lengths are a ValueError."""
    lines = [",".join(columns)]
    lines += [",".join([v if isinstance(v, str) else repr(v) for v in row])
              for row in zip(*columns.values(), strict=True)]
    return "\n".join(lines) + "\n"


def results_csv(phase: dict, ratios: dict) -> str:
    """The test phase, one row per sample: its seed, the policy's action,
    each method's throughput, every ratio to GA but GA's own, as
    `normalized_throughput` forms them, and the solver diagnostics."""
    return csv_text({
        "sample": range(len(phase["ga_bps"])),
        "channel_seed": phase["channel_seed"],
        "dql_action": ["|".join(str(a) for a in action) for action in phase["dql_action"]],
        **{f"{m}_bps": phase[f"{m}_bps"] for m in METHODS},
        **{f"{m}_norm": ratios[m] for m in METHODS if m != "ga"},
        **{name: phase[name] for name in DIAGNOSTICS},
    })


def actions_to_csv(actions: np.ndarray) -> str:
    """Action table as CSV: index, per-subband powers, per-cell total."""
    return csv_text({"action": range(len(actions)),
                     **{f"p{f}_w": actions[:, f].tolist() for f in range(actions.shape[1])},
                     "total_w": actions.sum(axis=1).tolist()})


def load_network(path, expected_sizes) -> tuple[MLP, RMSprop]:
    mlp, opt = load_checkpoint(path)
    if tuple(mlp.layer_sizes) != tuple(expected_sizes):
        raise ConfigError(
            f"checkpoint layer sizes {mlp.layer_sizes} do not match the "
            f"requested scenario {tuple(expected_sizes)}")
    return mlp, opt


def build_env(spec: ExperimentSpec) -> PowerControlEnv:
    return PowerControlEnv(spec.config, terminal_reward=spec.terminal_reward,
                           max_episode_steps=spec.max_episode_steps)


def network_sizes(spec: ExperimentSpec, env: PowerControlEnv) -> tuple[int, int, int]:
    hidden = spec.agent.hidden_size or 2 * env.num_actions
    return (env.state_size, hidden, env.num_actions)


def evaluation_seed(master_seed: int) -> int:
    """Seed of the test phase of a run; agent.sample_seeds expands it."""
    return int(np.random.default_rng([master_seed, 12]).integers(0, 2 ** 63 - 1))


def run_experiment(spec: ExperimentSpec) -> ComparisonReport:
    """Train (or load), save the checkpoint, evaluate against all baselines
    on shared channels, and write training_log.csv / results.csv /
    report.json / actions.csv.

    Fully reproducible: all randomness derives from spec.master_seed.
    """
    t0 = time.perf_counter()
    os.makedirs(spec.output_dir, exist_ok=True)
    env = build_env(spec)
    sizes = network_sizes(spec, env)

    log, target_rows = {}, 0
    if spec.checkpoint:
        mlp, opt = load_network(spec.checkpoint, sizes)
    else:
        mlp = MLP.init(sizes, np.random.default_rng([spec.master_seed, 10]), np.float32)
        opt = RMSprop(mlp, spec.agent.learning_rate, spec.agent.rmsprop_decay,
                      spec.agent.rmsprop_epsilon)
        if spec.agent.train_steps > 0:
            on_step = None
            if spec.checkpoint_interval:
                def on_step(step, gs, net, target):
                    if step % spec.checkpoint_interval == 0:
                        save_checkpoint(os.path.join(
                            spec.output_dir, f"qnet_step{step}.ckpt"), net, opt)
            log, target_rows = agent_mod.train(
                env, mlp, spec.agent, np.random.default_rng([spec.master_seed, 11]),
                opt=opt, on_step=on_step)
            _write_text(os.path.join(spec.output_dir, "training_log.csv"), csv_text(log))
    # saved before testing, so that a failed test phase keeps the network
    save_checkpoint(os.path.join(spec.output_dir, "qnet.ckpt"), mlp, opt)

    test_seed = evaluation_seed(spec.master_seed)
    phase = agent_mod.test(env, mlp, spec.n_test_samples, test_seed,
                           ga_config=spec.ga, max_power_level=spec.max_power_level)
    ratios, report = normalized_throughput(phase)
    report.metadata = {
        "scenario": spec.scenario,
        "master_seed": spec.master_seed,
        "test_seed": test_seed,
        "config_hash": config_hash(spec),
        "state_size": sizes[0],
        "hidden_size": sizes[1],
        "num_actions": sizes[2],
        "actions_per_cell": len(env.actions),
        "n_test_samples": spec.n_test_samples,
        "train_steps": 0 if spec.checkpoint else spec.agent.train_steps,
        "gradient_steps": log["gradient_steps"][-1] if log else 0,
        "target_rows_evaluated": target_rows,
        "episodes": len(log["episode"]) if log else 0,
        # both nan when no sample ran (null in report.json)
        "dql_margin_over_random": report.mean["dql"] / report.mean["random"] - 1.0,
        "dql_margin_over_maxpower": report.mean["dql"] / report.mean["maxpower"] - 1.0,
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }

    _write_text(os.path.join(spec.output_dir, "results.csv"), results_csv(phase, ratios))
    _write_text(os.path.join(spec.output_dir, "report.json"), report.to_json())
    _write_text(os.path.join(spec.output_dir, "actions.csv"),
                actions_to_csv(env.actions))
    return report
