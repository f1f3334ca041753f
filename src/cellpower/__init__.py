"""Deep Q-learning downlink power allocation for multi-cell networks."""

from .netmodel import (
    ChannelRealization,
    ConfigError,
    ScenarioConfig,
    assign_subbands,
    build_topology,
    draw_channel,
    location_indicator,
    network_utility,
    snr_gap,
)
from .env import PowerControlEnv, enumerate_actions
from .qnet import MLP, RMSprop, load_checkpoint, save_checkpoint, train_batch
from .replay import ReplayBuffer
from .agent import AgentConfig, select_joint_action, test, train
from .baselines import (
    GAConfig,
    WmmseResult,
    exhaustive,
    ga_optimize,
    max_power_baseline,
    random_power_baseline,
    wmmse,
)
from .harness import ExperimentSpec, run_experiment

__version__ = "0.1.0"
