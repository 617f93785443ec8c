"""Federated reinforcement learning via periodic policy distillation.

Heterogeneous black-box agents train locally with REINFORCE and periodically
align through KL distillation against an averaged consensus of their action
distributions on a shared public state set.
"""

from .diagnostics import (
    SmoothnessProbe,
    VarianceReport,
    chebyshev_samples,
    gradient_variance,
    lipschitz_probe,
    variance_report_from_samples,
)
from .env import (
    EnvSpec,
    PublicStateSet,
    discounted_return,
    load_state_set,
    reset,
    save_state_set,
    step,
)
from .errors import ArtifactIOError, ConfigurationError, FedhpdError, NumericError
from .federation import (
    ConsensusRecord,
    FedRunConfig,
    RunResult,
    aggregate,
    distillation_round,
    run,
)
from .nn_core import (
    AdamState,
    LayerSpec,
    MlpNetwork,
    adam_step,
    glorot_init,
    load_network,
)
from .policy import (
    CategoricalPolicy,
    DistributionBatch,
    GaussianPolicy,
    load_policy,
    make_policy,
)
from .presets import PRESET_NAMES, preset_agents
from .public_states import generate_public_states
from .reinforce import (
    Agent,
    AgentConfig,
    Episode,
    collect_trajectories,
    local_update,
    make_agents,
    policy_gradient,
    raise_failures,
    rollout,
    train_round,
)

__version__ = "0.1.0"
