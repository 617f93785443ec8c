"""Policy heads over the MLP substrate and the distillation KL machinery.

Two heads cover the two action-space regimes:

* `CategoricalPolicy` - softmax over network logits, one probability row per
  state. The log-probability gradient seeds the network backward pass with
  `onehot(a) - probs`, which is the exact softmax score function.
* `GaussianPolicy` - the network emits the mean; a learnable state-independent
  log-std vector (clamped to [-5, 2]) supplies the scale. Its flat parameter
  vector is the network parameters followed by the log-std entries.

Each head's `score_seed` is the one place its score function d log pi(a|s)
lives. It and `kl_seed` take the head's log-std and return the network's
seed and the block of the head's own entries (empty for a categorical head),
so no caller tells the heads apart. `log_prob_grad` runs `score_seed`
through the network on one state, `score_square_norms` on single rows, one
squared gradient norm per row and no gradient, and REINFORCE's stacked pass
(`PolicyStack.score_grad`, at every stack size) on weighted blocks of
states, one block per stacked policy.

The environment's action space decides the head: `make_policy` maps an
`EnvSpec` to one, `snapshot` writes a head and `load_policy` restores it.

`DistributionBatch` is the only payload agents and server ever exchange: a
matrix of probability rows (categorical) or mean/variance matrices (Gaussian)
evaluated on the shared public state set, with a compact binary wire format.

KL divergences between a local batch and the broadcast consensus drive the
knowledge-digestion update. Each head's `kl_seed` holds its closed form, and
`kl_batch_loss` runs it through one backward pass of the forward pass its
caller ran, the one its upload was extracted from; the gradients are
verified against finite differences in the test suite.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .env import STATE_DIM, EnvSpec
from .errors import ArtifactIOError, ConfigurationError, NumericError
from .nn_core import MlpNetwork, load_network, network_to_bytes

# Floor applied inside logarithms so a near-zero consensus entry cannot
# produce -inf; softmax outputs themselves are always strictly positive.
PROB_FLOOR = 1e-12

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0

# each batch kind's matrices in wire order, with the word its errors use; a
# kind's wire tag is its place in this table
_FIELDS = {
    "categorical": {"probs": "probability"},
    "gaussian": {"mean": "mean", "var": "variance"},
}
_TAG_KINDS = list(_FIELDS)


@dataclass
class DistributionBatch:
    """Per-state action distributions over a public state set: the matrices
    `_FIELDS` names for `kind`, each [n_states x dim]. Categorical rows lie
    on the simplex, and Gaussian variances are strictly positive."""

    kind: str
    probs: np.ndarray | None = None
    mean: np.ndarray | None = None
    var: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _FIELDS:
            raise ConfigurationError(f"unknown batch kind {self.kind!r}")
        words, fields = _FIELDS[self.kind], self.fields
        if any(m is None or m.ndim != 2 or m.shape != fields[0].shape for m in fields):
            raise ConfigurationError(
                f"{self.kind} batch needs 2-D {'/'.join(words)} matrices of one shape")
        for matrix, word in zip(fields, words.values()):
            bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
            if bad.size:
                raise ConfigurationError(f"non-finite {word} in batch row {bad[0]}")
        if self.kind == "categorical":
            if np.any(self.probs < 0.0):
                raise ConfigurationError("negative probability in batch")
            if np.max(np.abs(self.probs.sum(axis=1) - 1.0)) > 1e-9:
                raise ConfigurationError("categorical rows must sum to 1")
        elif np.any(self.var <= 0.0):
            raise ConfigurationError("gaussian variances must be positive")

    @classmethod
    def from_fields(cls, kind: str, fields) -> "DistributionBatch":
        """The batch of a `_FIELDS` kind whose matrices, in wire order, are `fields`."""
        return cls(kind, **dict(zip(_FIELDS[kind], fields)))

    @property
    def fields(self) -> list[np.ndarray]:
        """The kind's matrices in wire order."""
        return [getattr(self, name) for name in _FIELDS[self.kind]]

    @property
    def n_states(self) -> int:
        return self.fields[0].shape[0]

    @property
    def dim(self) -> int:
        return self.fields[0].shape[1]

    def to_bytes(self) -> bytes:
        """Wire format: kind tag u8, n_states u32, dim u32, then f64-LE rows."""
        head = struct.pack("<BII", _TAG_KINDS.index(self.kind), self.n_states, self.dim)
        return head + b"".join(matrix.astype("<f8").tobytes() for matrix in self.fields)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "DistributionBatch":
        if len(blob) < 9 or (len(blob) - 9) % 8:
            raise ArtifactIOError(f"truncated batch of {len(blob)} bytes")
        tag, n, dim = struct.unpack_from("<BII", blob, 0)
        if tag >= len(_TAG_KINDS):
            raise ArtifactIOError(f"unknown batch kind tag {tag}")
        kind = _TAG_KINDS[tag]
        rows = np.frombuffer(blob, dtype="<f8", offset=9).astype(np.float64)
        if n == 0 or dim == 0:
            raise ArtifactIOError(f"batch declares {n} states of dimension {dim}")
        if rows.size != len(_FIELDS[kind]) * n * dim:
            raise ArtifactIOError("batch payload size mismatch")
        try:
            return cls.from_fields(kind, rows.reshape(-1, n, dim))
        except ConfigurationError as exc:
            raise ArtifactIOError(f"invalid batch: {exc}") from exc


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _draw_categorical(probs: list[float], rng: np.random.Generator) -> int:
    """Inverse-CDF draw from one uniform u: the first action whose cumulative
    probability exceeds u, else the last. With two actions this is u < p0."""
    u = rng.random()
    edge = 0.0
    for action, p in enumerate(probs[:-1]):
        edge += p
        if u < edge:
            return action
    return len(probs) - 1


def draw_categorical_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """`_draw_categorical` for each row of `probs`, row i with uniform u[i]:
    the number of cumulative-probability edges at or below u[i]. The edges
    are the same running sums, and they never decrease, so that count is the
    first action whose edge exceeds u[i], else the last. With two actions
    the one edge is p0, and the action is u >= p0."""
    if probs.shape[1] == 2:
        return (probs[:, 0] <= u).view(np.int8)
    return (np.cumsum(probs[:, :-1], axis=1) <= u[:, None]).sum(axis=1)


def _draw_gaussian(mu: np.ndarray, std: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One action per row of `mu` (or one for a single mean vector): the
    normals come from one `standard_normal` call in row order, so rows drawn
    together equal rows drawn one call at a time."""
    return mu + std * rng.standard_normal(mu.shape)


class _PreDrawn:
    """The actions of the rows of stacks stepped in lockstep, row i from
    rngs[i], each the action `sample_action` would draw at that step of the
    row's episode. A step's draws take the same generator calls whatever the
    network outputs, so every `block` steps each running row's generator
    state is saved and the block's draws are taken up front (`extend`); a
    step's actions are then one vector operation over the rows. `release(i,
    count)` leaves generator i as `count` per-step draws would: it restores
    the block's state and redraws the steps used, as `random(a)` then
    `random(b)` is `random(a + b)`, and so for `standard_normal`, whose
    sampler takes a varying number of raw draws. (`bit_generator.advance`
    would also drop a buffered uint32, which per-step draws keep.)"""

    block = 32

    def __init__(self, policies: list, rngs: list, horizon: int):
        self.rngs = rngs
        self.horizon = horizon
        self.nonfinite = policies[0].nonfinite
        self.saved = [None] * len(rngs)
        self.start = self.end = 0

    def extend(self, t: int, rows: list[int]) -> None:
        # every running row, or one left out would rewind to an older block
        self.start, self.end = t, min(t + self.block, self.horizon)
        self.drawn = np.zeros((self.end - t, len(self.rngs)) + self.shape)
        for i in rows:
            rng = self.rngs[i]
            self.saved[i] = rng.bit_generator.state
            self.drawn[:, i] = self.sample(rng, self.end - t)

    def __call__(self, outputs: np.ndarray, t: int, rows: list[int]) -> list:
        """Step t's action for each of `rows` from `outputs`, [all rows, out];
        a row whose output is not finite gets `sample_action`'s NumericError."""
        if t == self.end:
            self.extend(t, rows)
        drawn = self.drawn[t - self.start]
        if np.isfinite(outputs).all():
            actions = self.actions(outputs, drawn)
            return [actions[i] for i in rows]
        finite = np.isfinite(outputs).all(axis=1)
        actions = self.actions(np.where(finite[:, None], outputs, 0.0), drawn)
        ok = finite.tolist()
        return [actions[i] if ok[i] else NumericError(self.nonfinite) for i in rows]

    def release(self, row: int, count: int) -> None:
        if count < self.end:  # else the block's draws were exactly the ones used
            rng = self.rngs[row]
            rng.bit_generator.state = self.saved[row]
            self.sample(rng, count - self.start)


class _UniformDraws(_PreDrawn):
    """Categorical draws: one `random()` a step, so a step's actions are one
    vector compare (`draw_categorical_rows`)."""

    shape = ()

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.random(count)

    def actions(self, logits: np.ndarray, u: np.ndarray) -> list[int]:
        return draw_categorical_rows(softmax(logits), u).tolist()


class _NormalDraws(_PreDrawn):
    """Gaussian draws: `a_dim` standard normals a step, which one
    `standard_normal((count, a_dim))` call yields in step order, so a step's
    actions are `_draw_gaussian`'s `mu + std * z` once over the rows."""

    def __init__(self, policies: list, rngs: list, horizon: int):
        self.scales = np.stack([policy.std() for policy in policies])
        self.shape = self.scales.shape[1:]
        super().__init__(policies, rngs, horizon)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.standard_normal((count,) + self.shape)

    def actions(self, mu: np.ndarray, z: np.ndarray) -> np.ndarray:
        return mu + self.scales * z


class _Head:
    """What both heads share. The flat parameter array `params` holds the
    network's parameters, then the head's own entries (`log_std`: one per
    action dimension for a Gaussian head, none for a categorical one),
    clamped to [-5, 2] on every parameter write."""

    def __init__(self, net: MlpNetwork, log_std: np.ndarray):
        self.net = net
        self.num_params = net.num_params + log_std.size
        params = np.empty(self.num_params)
        params[: net.num_params] = net.params
        params[net.num_params :] = np.clip(log_std, LOG_STD_MIN, LOG_STD_MAX)
        self.bind(params)

    def bind(self, params: np.ndarray) -> None:
        """Read and write `params` (e.g. a row of a `PolicyStack`) from now on."""
        self.params = params
        self.net.bind(params[: self.net.num_params])
        self.log_std = params[self.net.num_params :]

    def get_params(self) -> np.ndarray:
        return self.params.copy()

    def set_params(self, params: np.ndarray) -> None:
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.num_params,):
            raise ConfigurationError(
                f"expected {self.num_params} parameters, got shape {params.shape}"
            )
        self.net.set_params(params[: self.net.num_params])
        np.clip(params[self.net.num_params :], LOG_STD_MIN, LOG_STD_MAX, out=self.log_std)

    def snapshot(self) -> bytes:
        """The network snapshot, with the log-std entries (if any) as its tail."""
        return network_to_bytes(self.net, self.log_std)

    def _outputs(self, forward: tuple) -> np.ndarray:
        """The outputs of the caller's `forward` pass; non-finite ones raise."""
        outputs = forward[0]
        if not np.isfinite(outputs).all():
            raise NumericError(self.nonfinite)
        return outputs

    def _log_prob_grad(self, state: np.ndarray, action) -> np.ndarray:
        """d log pi(action | state) for one state vector: one single-row
        forward and backward pass, the head's own entries last."""
        outputs, cache = self.net.forward(state)
        seed, own = self.score_seed(outputs[None], action, np.ones(1), self.log_std)
        return np.concatenate([self.net.backward(cache, seed[0]), own[0]])

    def score_square_norms(self, actions: np.ndarray, forward: tuple) -> np.ndarray:
        """Row i: the squared norm of `log_prob_grad(rows[i], actions[i])`, in
        the factored form of `net.grad_square_norms`, from the rows'
        single-row `forward`."""
        outputs, cache = forward
        seed, own = self.score_seed(outputs[:, 0], actions, np.ones(len(actions)), self.log_std)
        return self.net.grad_square_norms(cache, seed[:, None]) + np.einsum("ij,ij->i", own, own)

    def _kl_batch_loss(self, consensus: DistributionBatch,
                       forward: tuple) -> tuple[float, np.ndarray]:
        """Mean over states of KL(local row || consensus row), with its
        gradient: one backward pass through the head's `kl_seed` of `forward`,
        the caller's `net.forward(states)` at the current parameters. Non-finite
        outputs raise the head's NumericError. The consensus is treated as
        broadcast data: no gradient flows into it. Each head binds this as
        its own `kl_batch_loss`."""
        outputs, cache = forward
        if consensus.kind != self.kind:
            raise ConfigurationError("consensus kind does not match policy")
        if consensus.n_states != outputs.shape[0] or consensus.dim != self.net.output_dim:
            raise ConfigurationError("consensus shape does not match state set")
        loss, seeds, own = self.kl_seed(self._outputs(forward), consensus, self.log_std)
        return loss, np.concatenate([self.net.backward(cache, seeds), own])


class CategoricalPolicy(_Head):
    """Softmax policy for discrete actions: probs(s) = softmax(net(s))."""

    kind = "categorical"
    nonfinite = "non-finite policy logits"
    draws = _UniformDraws

    def __init__(self, net: MlpNetwork):
        if net.output_dim < 2:
            raise ConfigurationError("categorical policy needs at least 2 actions")
        super().__init__(net, np.empty(0))
        self.action_count = net.output_dim

    def sample_action(self, state: np.ndarray, rng: np.random.Generator) -> int:
        """One draw from softmax(net(state)), computed on Python floats with
        the bits of `softmax`: the same max subtraction and one `exp` call,
        then the sum numpy forms (in order below 8 entries, pairwise from 8)
        and one division per entry."""
        logits = self.net.forward(state)[0].tolist()
        if not all(map(math.isfinite, logits)):
            raise NumericError(self.nonfinite)
        top = max(logits)
        e = np.exp([x - top for x in logits]).tolist()
        if len(e) < 8:
            total = 0.0
            for x in e:  # not `sum`, which compensates from Python 3.12 on
                total += x
        else:
            total = float(np.sum(e))
        return _draw_categorical([x / total for x in e], rng)

    @staticmethod
    def score_seed(logits: np.ndarray, actions, weights: np.ndarray,
                   log_std: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """d log pi(a|s) with respect to the logits, onehot(a) - probs, for rows
        of states and actions, each scaled by its weight, and the head's own
        entries' block: [rows, 0], as the head has none."""
        seed = -softmax(logits)
        seed[np.arange(seed.shape[0]), actions] += 1.0
        seed *= weights[:, None]
        return seed, np.empty((seed.shape[0], 0))

    def log_prob_grad(self, state: np.ndarray, action: int) -> np.ndarray:
        if not 0 <= action < self.action_count:
            raise ConfigurationError(f"action {action} out of range")
        return self._log_prob_grad(state, action)

    def probe_action(self, state: np.ndarray, rng: np.random.Generator) -> int:
        """An action for a smoothness probe at `state`: uniform over the actions."""
        return int(rng.integers(0, self.action_count))

    def probe_pairs(self, states: np.ndarray,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, tuple]:
        """The (state, action) rows the probe's score-norm sweep covers:
        every action of every state, in (state, action) order, with the rows'
        single-row forward pass. Nothing is drawn."""
        count = self.action_count
        rows = np.repeat(states, count, axis=0)
        actions = np.arange(rows.shape[0]) % count
        return rows, actions, self.net.forward(rows[:, None, :])

    def extract_batch(self, forward: tuple) -> DistributionBatch:
        """The action distribution of every state row of `forward`, the
        caller's `net.forward(states)` at the current parameters."""
        return DistributionBatch("categorical", probs=softmax(self._outputs(forward)))

    @staticmethod
    def kl_seed(logits: np.ndarray, consensus: DistributionBatch,
                log_std: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """The mean over rows of KL(softmax(logits) row || consensus row), its
        logit-space seeds: per state p * (ln(p/q) - KL) / n, which follows
        from the softmax Jacobian applied to the KL sum, and the empty block
        of the head's own entries."""
        p = softmax(logits)
        logs = np.log(np.maximum(p, PROB_FLOOR)) - np.log(
            np.maximum(consensus.probs, PROB_FLOOR)
        )
        per_state = (p * logs).sum(axis=1)
        seeds = p * (logs - per_state[:, None]) / logits.shape[0]
        return float(per_state.mean()), seeds, np.empty(0)

    kl_batch_loss = _Head._kl_batch_loss


class GaussianPolicy(_Head):
    """Diagonal Gaussian policy: mean from the network, learnable log-std
    (zero unless given), one per action dimension."""

    kind = "gaussian"
    nonfinite = "non-finite policy mean"
    draws = _NormalDraws

    def __init__(self, net: MlpNetwork, log_std: np.ndarray | None = None):
        if log_std is None:
            log_std = np.zeros(net.output_dim)
        self._std_key = None
        super().__init__(net, np.asarray(log_std, dtype=np.float64))

    def std(self) -> np.ndarray:
        """The action standard deviation every draw scales its normals by,
        recomputed when the log-std bytes change (in-place writes included)."""
        key = self.log_std.tobytes()
        if key != self._std_key:
            self._std_key, self._std = key, np.sqrt(np.exp(2.0 * self.log_std))
        return self._std

    def sample_action(self, state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return _draw_gaussian(self._outputs(self.net.forward(state)), self.std(), rng)

    @staticmethod
    def score_seed(mu: np.ndarray, actions: np.ndarray, weights: np.ndarray,
                   log_std: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """d log pi(a|s): (a - mu)/var with respect to the mean, and the log-std
        block (a - mu)^2/var - 1, each row scaled by its weight. `log_std` is
        the policy's vector, or one row per state."""
        var = np.exp(2.0 * log_std)
        weights = weights[:, None]
        return (actions - mu) / var * weights, ((actions - mu) ** 2 / var - 1.0) * weights

    def log_prob_grad(self, state: np.ndarray, action: np.ndarray) -> np.ndarray:
        return self._log_prob_grad(state, np.asarray(action, dtype=np.float64))

    def probe_action(self, state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """An action for a smoothness probe at `state`: one `sample_action` draw."""
        return self.sample_action(state, rng)

    def probe_pairs(self, states: np.ndarray,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, tuple]:
        """The (state, action) rows the probe's score-norm sweep covers:
        two `sample_action` draws per state, in (state, draw) order, with the
        rows' single-row forward pass. Single rows round alone, so a row's
        mean is its state's `sample_action` mean, and the draws are one
        `_draw_gaussian` call over the rows."""
        rows = np.repeat(states, 2, axis=0)
        forward = self.net.forward(rows[:, None, :])
        actions = _draw_gaussian(self._outputs(forward)[:, 0], self.std(), rng)
        return rows, actions, forward

    def extract_batch(self, forward: tuple) -> DistributionBatch:
        mu = self._outputs(forward)
        var = np.broadcast_to(np.exp(2.0 * self.log_std), mu.shape).copy()
        return DistributionBatch("gaussian", mean=mu, var=var)

    @staticmethod
    def kl_seed(mu: np.ndarray, consensus: DistributionBatch,
                log_std: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """The mean over rows of the closed-form Gaussian KL to the consensus,
        its seeds d/dmu1 = (mu1 - mu2)/var2 / n, which chain through the
        network, and the log-std block var1/var2 - 1 per dimension, averaged
        over states."""
        var = np.exp(2.0 * log_std)
        n = mu.shape[0]
        # log computed on the variance ratio so a bit-identical consensus
        # yields an exact zero loss (self-distillation fixed point)
        terms = var / consensus.var + (consensus.mean - mu) ** 2 / consensus.var
        terms = terms - 1.0 + np.log(consensus.var / var)
        return (float(0.5 * terms.sum() / n), (mu - consensus.mean) / consensus.var / n,
                (var / consensus.var - 1.0).mean(axis=0))

    kl_batch_loss = _Head._kl_batch_loss


class PolicyStack:
    """Policies of one head and one layer stack (widths and activations) whose
    flat parameters are the rows of one [B, P] array, `params`, read in place
    by one stacked network, `net`.

    Stacking copies the policies' parameters into the rows once and binds
    each policy to its row, so later writes through either side are seen by
    both (a policy reads only the last stack that bound it).
    `reinforce.rollout` steps every row through one `net.step_rows` pass;
    `score_grad` is REINFORCE's score pass, for a stack of any size.
    """

    def __init__(self, policies: list):
        self.head = type(policies[0])
        layers = policies[0].net.layers
        if any((type(p), p.net.layers) != (self.head, layers) for p in policies):
            raise ConfigurationError("stacked policies must share one head and layer stack")
        self.params = np.stack([policy.params for policy in policies])
        for policy, row in zip(policies, self.params):
            policy.bind(row)
        self.policies = list(policies)
        self.net = MlpNetwork(layers)
        self.net.bind(self.params[:, : self.net.num_params])

    def score_grad(self, states: np.ndarray, actions: np.ndarray, weights: np.ndarray,
                   bounds: list[int]) -> np.ndarray:
        """Row i: the sum over states bounds[i]:bounds[i+1] of weight times
        d log pi_i(a|s), through the head's `score_seed`; [len(bounds) - 1, P]."""
        outputs, cache = self.net.forward(states, bounds)
        n = self.net.num_params
        log_std = np.repeat(self.params[: len(bounds) - 1, n:], np.diff(bounds), axis=0)
        seed, own = self.head.score_seed(outputs, actions, weights, log_std)
        return np.concatenate([self.net.backward(cache, seed, bounds),
                               [own[start:end].sum(axis=0)
                                for start, end in zip(bounds, bounds[1:])]], axis=1)

    def settle(self) -> np.ndarray:
        """After an in-place write to `params`, what `set_params` does, for
        every row: clamp a Gaussian log-std. Returns the mask of rows whose
        network parameters are not all finite."""
        n = self.net.num_params
        np.clip(self.params[:, n:], LOG_STD_MIN, LOG_STD_MAX, out=self.params[:, n:])
        return ~np.isfinite(self.params[:, :n]).all(axis=1)


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
    ends in one log-std entry per action dimension, a categorical one in none.
    A network that does not fit `spec`'s states or actions is rejected with
    the file's name."""
    net, tail = load_network(path)
    if net.input_dim != STATE_DIM:
        raise ConfigurationError(
            f"snapshot {path}: network input dim {net.input_dim} does not fit "
            f"{spec.kind} states of dim {STATE_DIM}"
        )
    expected = 0 if spec.discrete else net.output_dim
    if tail.size != expected:
        raise ConfigurationError(
            f"snapshot {path}: log-std tail has {tail.size} entries, "
            f"{spec.kind} needs {expected}"
        )
    try:
        return make_policy(spec, net, tail)
    except ConfigurationError as exc:
        raise ConfigurationError(f"snapshot {path}: {exc}") from exc
