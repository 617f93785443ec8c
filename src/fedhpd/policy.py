"""Policy heads over the MLP substrate and the distillation KL machinery.

Two heads cover the two action-space regimes:

* `CategoricalPolicy` - softmax over network logits, one probability row per
  state. The log-probability gradient seeds the network backward pass with
  `onehot(a) - probs`, which is the exact softmax score function.
* `GaussianPolicy` - the network emits the mean; a learnable state-independent
  log-std vector (clamped to [-5, 2]) supplies the scale. Its flat parameter
  vector is the network parameters followed by the log-std entries.

Each head's `score_grad` is the one place its score function d log pi(a|s)
lives: `log_prob_grad` calls it on one state, REINFORCE on a weighted batch.

The environment's action space decides the head: `make_policy` maps an
`EnvSpec` to one, `snapshot` writes a head and `load_policy` restores it.

`DistributionBatch` is the only payload agents and server ever exchange: a
matrix of probability rows (categorical) or mean/variance matrices (Gaussian)
evaluated on the shared public state set, with a compact binary wire format.

KL divergences between a local batch and the broadcast consensus drive the
knowledge-digestion update; their gradients are derived in closed form and
verified against finite differences in the test suite.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .env import EnvSpec
from .errors import ArtifactIOError, ConfigurationError, NumericError
from .nn_core import MlpNetwork, load_network, network_to_bytes

# Floor applied inside logarithms so a near-zero consensus entry cannot
# produce -inf; softmax outputs themselves are always strictly positive.
PROB_FLOOR = 1e-12

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0

_KIND_TAGS = {"categorical": 0, "gaussian": 1}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}


@dataclass
class DistributionBatch:
    """Per-state action distributions over a public state set.

    kind == "categorical": `probs` is [n_states x n_actions], rows on the
    simplex. kind == "gaussian": `mean` and `var` are [n_states x a_dim],
    variances strictly positive.
    """

    kind: str
    probs: np.ndarray | None = None
    mean: np.ndarray | None = None
    var: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "categorical":
            if self.probs is None or self.probs.ndim != 2:
                raise ConfigurationError("categorical batch needs a 2-D probs matrix")
            _reject_nonfinite_rows(self.probs, "probability")
            if np.any(self.probs < 0.0):
                raise ConfigurationError("negative probability in batch")
            if np.max(np.abs(self.probs.sum(axis=1) - 1.0)) > 1e-9:
                raise ConfigurationError("categorical rows must sum to 1")
        elif self.kind == "gaussian":
            if (self.mean is None or self.var is None or self.mean.ndim != 2
                    or self.mean.shape != self.var.shape):
                raise ConfigurationError("gaussian batch needs matching 2-D mean/var matrices")
            _reject_nonfinite_rows(self.mean, "mean")
            _reject_nonfinite_rows(self.var, "variance")
            if np.any(self.var <= 0.0):
                raise ConfigurationError("gaussian variances must be positive")
        else:
            raise ConfigurationError(f"unknown batch kind {self.kind!r}")

    @property
    def n_states(self) -> int:
        rows = self.probs if self.kind == "categorical" else self.mean
        return rows.shape[0]

    @property
    def dim(self) -> int:
        rows = self.probs if self.kind == "categorical" else self.mean
        return rows.shape[1]

    def to_bytes(self) -> bytes:
        """Wire format: kind tag u8, n_states u32, dim u32, then f64-LE rows."""
        head = struct.pack("<BII", _KIND_TAGS[self.kind], self.n_states, self.dim)
        if self.kind == "categorical":
            body = self.probs.astype("<f8").tobytes()
        else:
            body = self.mean.astype("<f8").tobytes() + self.var.astype("<f8").tobytes()
        return head + body

    @classmethod
    def from_bytes(cls, blob: bytes) -> "DistributionBatch":
        if len(blob) < 9 or (len(blob) - 9) % 8:
            raise ArtifactIOError(f"truncated batch of {len(blob)} bytes")
        tag, n, dim = struct.unpack_from("<BII", blob, 0)
        if tag not in _TAG_KINDS:
            raise ArtifactIOError(f"unknown batch kind tag {tag}")
        kind = _TAG_KINDS[tag]
        rows = np.frombuffer(blob, dtype="<f8", offset=9).astype(np.float64)
        matrices = 1 if kind == "categorical" else 2
        if n == 0 or dim == 0:
            raise ArtifactIOError(f"batch declares {n} states of dimension {dim}")
        if rows.size != matrices * n * dim:
            raise ArtifactIOError("batch payload size mismatch")
        fields = rows.reshape(matrices, n, dim)
        try:
            if kind == "categorical":
                return cls(kind, probs=fields[0])
            return cls(kind, mean=fields[0], var=fields[1])
        except ConfigurationError as exc:
            raise ArtifactIOError(f"invalid batch: {exc}") from exc


def _reject_nonfinite_rows(matrix: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise ConfigurationError(f"non-finite {what} in batch row {bad[0]}")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def kl_categorical(p: np.ndarray, q: np.ndarray) -> float:
    """sum_i p_i ln(p_i / q_i), with 0 ln 0 = 0 and a floor inside the logs.

    For rows that agree to rounding the sum can land a few ulps below zero;
    it is clamped, since a KL divergence is never negative.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ConfigurationError("KL rows must have equal length")
    logs = np.log(np.maximum(p, PROB_FLOOR)) - np.log(np.maximum(q, PROB_FLOOR))
    return max(0.0, float(np.sum(np.where(p > 0.0, p * logs, 0.0))))


def kl_gaussian(mu1, var1, mu2, var2) -> float:
    """Closed-form KL between diagonal Gaussians, summed over dimensions:
    1/2 (var1/var2 + (mu2-mu1)^2/var2 - 1 + ln(var2/var1)) per dimension.
    """
    mu1, var1 = np.asarray(mu1, dtype=np.float64), np.asarray(var1, dtype=np.float64)
    mu2, var2 = np.asarray(mu2, dtype=np.float64), np.asarray(var2, dtype=np.float64)
    if np.any(var1 <= 0.0) or np.any(var2 <= 0.0):
        raise ConfigurationError("gaussian KL needs positive variances")
    terms = var1 / var2 + (mu2 - mu1) ** 2 / var2 - 1.0 + np.log(var2 / var1)
    return float(0.5 * np.sum(terms))


class CategoricalPolicy:
    """Softmax policy for discrete actions: probs(s) = softmax(net(s))."""

    kind = "categorical"

    def __init__(self, net: MlpNetwork):
        if net.output_dim < 2:
            raise ConfigurationError("categorical policy needs at least 2 actions")
        self.net = net
        self.action_count = net.output_dim
        self.num_params = net.num_params

    def get_params(self) -> np.ndarray:
        return self.net.get_params()

    def set_params(self, params: np.ndarray) -> None:
        self.net.set_params(params)

    def snapshot(self) -> bytes:
        return network_to_bytes(self.net)

    def action_distribution(self, state: np.ndarray) -> np.ndarray:
        logits = self.net.output(state)
        if not np.all(np.isfinite(logits)):
            raise NumericError("non-finite policy logits")
        return softmax(logits)

    def sample_action(self, state: np.ndarray, rng: np.random.Generator) -> int:
        probs = self.action_distribution(state)
        # inverse-CDF draw keeps the agent's stream consumption at one uniform
        u = rng.random()
        return int(np.searchsorted(np.cumsum(probs), u, side="right").clip(0, probs.size - 1))

    def score_grad(self, states: np.ndarray, actions,
                   weights: np.ndarray | None = None) -> np.ndarray:
        """d log pi(a|s) from the seed onehot(a) - probs: one state and action,
        or the sum over a batch of rows, each scaled by its weight."""
        logits, cache = self.net.forward(states)
        seed = -softmax(logits)
        if weights is None:
            seed[actions] += 1.0
        else:
            seed[np.arange(seed.shape[0]), actions] += 1.0
            seed *= weights[:, None]
        return self.net.backward(cache, seed)

    def log_prob_grad(self, state: np.ndarray, action: int) -> np.ndarray:
        if not 0 <= action < self.action_count:
            raise ConfigurationError(f"action {action} out of range")
        return self.score_grad(state, action)

    def extract_batch(self, states: np.ndarray) -> DistributionBatch:
        logits, _ = self.net.forward(np.asarray(states, dtype=np.float64))
        if not np.all(np.isfinite(logits)):
            raise NumericError("non-finite policy logits")
        return DistributionBatch("categorical", probs=softmax(logits))

    def kl_batch_loss(
        self, states: np.ndarray, consensus: DistributionBatch
    ) -> tuple[float, np.ndarray]:
        """Mean over states of KL(local row || consensus row), with gradient.

        The consensus is treated as broadcast data: no gradient flows into it.
        Per state the logit-space seed is p * (ln(p/q) - KL), which follows
        from the softmax Jacobian applied to the KL sum.
        """
        states = np.asarray(states, dtype=np.float64)
        if consensus.kind != self.kind:
            raise ConfigurationError("consensus kind does not match policy")
        if consensus.n_states != states.shape[0] or consensus.dim != self.action_count:
            raise ConfigurationError("consensus shape does not match state set")
        logits, cache = self.net.forward(states)
        p = softmax(logits)
        logs = np.log(np.maximum(p, PROB_FLOOR)) - np.log(
            np.maximum(consensus.probs, PROB_FLOOR)
        )
        per_state = (p * logs).sum(axis=1)
        loss = float(per_state.mean())
        seeds = p * (logs - per_state[:, None]) / states.shape[0]
        return loss, self.net.backward(cache, seeds)


class GaussianPolicy:
    """Diagonal Gaussian policy: mean from the network, learnable log-std.

    Flat parameter layout: network parameters, then one log-std per action
    dimension. The log-std is clamped to [-5, 2] on every parameter write.
    """

    kind = "gaussian"

    def __init__(self, net: MlpNetwork, log_std: np.ndarray | None = None):
        self.net = net
        self.action_dim = net.output_dim
        if log_std is None:
            log_std = np.zeros(self.action_dim)
        self.log_std = np.clip(np.asarray(log_std, dtype=np.float64), LOG_STD_MIN, LOG_STD_MAX)
        self.num_params = net.num_params + self.action_dim

    def get_params(self) -> np.ndarray:
        return np.concatenate([self.net.get_params(), self.log_std])

    def set_params(self, params: np.ndarray) -> None:
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.num_params,):
            raise ConfigurationError(
                f"expected {self.num_params} parameters, got shape {params.shape}"
            )
        self.net.set_params(params[: self.net.num_params])
        self.log_std = np.clip(params[self.net.num_params :], LOG_STD_MIN, LOG_STD_MAX)

    def snapshot(self) -> bytes:
        """The network snapshot with the log-std entries as its tail."""
        return network_to_bytes(self.net, self.log_std)

    def action_distribution(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mu = self.net.output(state)
        if not np.all(np.isfinite(mu)):
            raise NumericError("non-finite policy mean")
        return mu, np.exp(2.0 * self.log_std)

    def sample_action(self, state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        mu, var = self.action_distribution(state)
        return mu + np.sqrt(var) * rng.standard_normal(self.action_dim)

    def score_grad(self, states: np.ndarray, actions: np.ndarray,
                   weights: np.ndarray | None = None) -> np.ndarray:
        """d log pi(a|s): (a - mu)/var through the network, then the log-std
        term (a - mu)^2/var - 1. Weights work as in `CategoricalPolicy`."""
        mu, cache = self.net.forward(states)
        var = np.exp(2.0 * self.log_std)
        seed = (actions - mu) / var
        log_std_grad = (actions - mu) ** 2 / var - 1.0
        if weights is not None:
            seed = seed * weights[:, None]
            log_std_grad = (log_std_grad * weights[:, None]).sum(axis=0)
        return np.concatenate([self.net.backward(cache, seed), log_std_grad])

    def log_prob_grad(self, state: np.ndarray, action: np.ndarray) -> np.ndarray:
        return self.score_grad(state, np.asarray(action, dtype=np.float64))

    def extract_batch(self, states: np.ndarray) -> DistributionBatch:
        mu, _ = self.net.forward(np.asarray(states, dtype=np.float64))
        if not np.all(np.isfinite(mu)):
            raise NumericError("non-finite policy mean")
        var = np.broadcast_to(np.exp(2.0 * self.log_std), mu.shape).copy()
        return DistributionBatch("gaussian", mean=mu, var=var)

    def kl_batch_loss(
        self, states: np.ndarray, consensus: DistributionBatch
    ) -> tuple[float, np.ndarray]:
        """Mean over states of the closed-form Gaussian KL, with gradient.

        d/dmu1 = (mu1 - mu2)/var2 chains through the network; the log-std
        gradient is var1/var2 - 1 per dimension, averaged over states.
        """
        states = np.asarray(states, dtype=np.float64)
        if consensus.kind != self.kind:
            raise ConfigurationError("consensus kind does not match policy")
        if consensus.n_states != states.shape[0] or consensus.dim != self.action_dim:
            raise ConfigurationError("consensus shape does not match state set")
        mu, cache = self.net.forward(states)
        var = np.exp(2.0 * self.log_std)
        n = states.shape[0]
        # log computed on the variance ratio so a bit-identical consensus
        # yields an exact zero loss (self-distillation fixed point)
        terms = var / consensus.var + (consensus.mean - mu) ** 2 / consensus.var
        terms = terms - 1.0 + np.log(consensus.var / var)
        loss = float(0.5 * terms.sum() / n)
        seeds = (mu - consensus.mean) / consensus.var / n
        net_grad = self.net.backward(cache, seeds)
        log_std_grad = (var / consensus.var - 1.0).mean(axis=0)
        return loss, np.concatenate([net_grad, log_std_grad])


def make_policy(spec: EnvSpec, net: MlpNetwork, log_std: np.ndarray | None = None):
    """The head `spec`'s action space calls for: categorical on the discrete
    env, Gaussian (log-std zero unless given) on the continuous one."""
    if net.output_dim != spec.action_count:
        raise ConfigurationError(
            f"network output dim {net.output_dim} does not fit {spec.kind}"
        )
    return CategoricalPolicy(net) if spec.discrete else GaussianPolicy(net, log_std)


def load_policy(path, spec: EnvSpec):
    """Restore the head for `spec` from a snapshot file; a Gaussian snapshot
    ends in one log-std entry per action dimension, a categorical one in none."""
    net, tail = load_network(path)
    expected = 0 if spec.discrete else net.output_dim
    if tail.size != expected:
        raise ConfigurationError(
            f"snapshot {path}: log-std tail has {tail.size} entries, "
            f"{spec.kind} needs {expected}"
        )
    return make_policy(spec, net, tail)
