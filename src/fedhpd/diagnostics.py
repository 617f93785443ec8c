"""Empirical checks of the variance-reduction story behind distillation.

The regularized objective J' = J - KL(local || consensus) has gradient
g_J - g_KL. Over trajectory sampling, g_KL is a constant vector for fixed
parameters (it depends on the public state set only), while g_J is estimated
per trajectory. `variance_report_from_samples` measures, on one shared
sample set:

* the sample variance decomposition Var[g_J - g_KL] =
  Var[g_J] + Var[g_KL] - 2 Cov, which must hold as floating-point algebra;
* the alignment condition cos(angle) > ||g_KL|| / (2 ||g_J||), evaluated on
  mean gradients, which predicts when subtracting the distillation gradient
  shrinks the variance (treating g_KL as exactly its mean).

Vector-valued variance is reduced to the trace of the sample covariance
(the sum of per-coordinate variances); the mean per-coordinate variance is
reported alongside.

`lipschitz_probe` estimates the smoothness of the KL gradient over random
parameter pairs and compares it with the softmax-derived ceiling
G * (2 + log n_actions), where G is the largest observed log-policy gradient
norm. The ceiling is meaningful for categorical heads only; for Gaussian
heads it is reported as indicative, never asserted.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .env import EnvSpec
from .errors import ConfigurationError, NumericError
from .policy import DistributionBatch, PolicyStack
from .reinforce import policy_gradient, raise_failures, rollout


@dataclass
class VarianceReport:
    n_samples: int
    var_j_trace: float
    var_j_mean: float
    var_kl_trace: float
    cov_trace: float
    var_jprime_direct: float
    var_jprime_reconstructed: float
    var_jprime_predicted: float
    cos_angle: float
    grad_norm_ratio: float
    condition_holds: bool
    condition_vacuous: bool

    @property
    def identity_residual(self) -> float:
        scale = max(abs(self.var_jprime_direct), 1e-300)
        return abs(self.var_jprime_direct - self.var_jprime_reconstructed) / scale


def variance_report_from_samples(samples: np.ndarray, grad_kl: np.ndarray) -> VarianceReport:
    """Build the full report from n gradient samples and the fixed KL gradient.

    `samples` is [n x P]; `grad_kl` is the deterministic distillation gradient
    at the same parameters. All variance terms are ddof=1 sample estimators
    computed on this one sample set.
    """
    samples = np.asarray(samples, dtype=np.float64)
    grad_kl = np.asarray(grad_kl, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ConfigurationError("need at least 2 gradient samples")
    if grad_kl.shape != (samples.shape[1],):
        raise ConfigurationError("KL gradient length does not match samples")
    n = samples.shape[0]

    kl_samples = np.broadcast_to(grad_kl, samples.shape)

    def trace_var(x):
        return float(np.sum(np.var(x, axis=0, ddof=1)))

    mean_g = samples.mean(axis=0)
    var_j = trace_var(samples)
    var_kl = trace_var(kl_samples)
    # every row of the KL samples deviates from their mean by this one row
    cov = float(np.sum((samples - mean_g) * (grad_kl - kl_samples.mean(axis=0))) / (n - 1))

    var_direct = trace_var(samples - grad_kl)
    var_reconstructed = var_j + var_kl - 2.0 * cov

    norm_g = float(np.linalg.norm(mean_g))
    norm_kl = float(np.linalg.norm(grad_kl))
    vacuous = False
    if norm_kl == 0.0:
        # J' coincides with J: no reduction and nothing to align with
        cos, ratio, condition = 0.0, 0.0, False
    elif norm_g == 0.0:
        # angle undefined; the condition cannot be evaluated
        cos, ratio, condition, vacuous = 0.0, math.inf, False, True
    else:
        cos = float(mean_g @ grad_kl) / (norm_g * norm_kl)
        ratio = norm_kl / norm_g
        condition = cos > 0.5 * ratio
    var_predicted = var_j + norm_kl**2 - 2.0 * float(mean_g @ grad_kl)

    return VarianceReport(
        n_samples=n,
        var_j_trace=var_j,
        var_j_mean=var_j / samples.shape[1],
        var_kl_trace=var_kl,
        cov_trace=cov,
        var_jprime_direct=var_direct,
        var_jprime_reconstructed=var_reconstructed,
        var_jprime_predicted=var_predicted,
        cos_angle=cos,
        grad_norm_ratio=ratio,
        condition_holds=condition,
        condition_vacuous=vacuous,
    )


# trajectory samples per lockstep rollout, and per stacked score pass: the
# memory each holds (generators, pre-drawn draws, bounded arrays) grows with them
_SAMPLE_BLOCK = 32
_GRADIENT_BLOCK = 8


def sample_trajectory_gradients(
    policy,
    spec: EnvSpec,
    n_samples: int,
    rng: np.random.Generator,
    gamma: float,
    reward_to_go: bool,
) -> np.ndarray:
    """n independent single-trajectory score-function gradient estimates:
    sample j is one episode on child j of `rng`'s seed sequence, bit-identical
    to its solo `rollout` and `policy_gradient`. The episodes run in lockstep
    blocks, all on one copy of `policy`."""
    if n_samples < 2:
        raise ConfigurationError("need at least 2 samples")
    streams = rng.bit_generator.seed_seq.spawn(n_samples)
    twin = copy.deepcopy(policy)  # the stacks bind it, never the caller's policy
    stack = PolicyStack([twin] * min(n_samples, _SAMPLE_BLOCK))
    samples = np.empty((n_samples, stack.params.shape[1]))
    for start in range(0, n_samples, _SAMPLE_BLOCK):
        block = streams[start : start + _SAMPLE_BLOCK]
        if len(block) < len(stack.policies):  # a partly filled last block
            stack = PolicyStack([twin] * len(block))
        rngs = [np.random.Generator(np.random.PCG64(seq)) for seq in block]
        episodes = raise_failures(rollout([stack], spec, rngs))
        for first in range(0, len(block), _GRADIENT_BLOCK):
            part = [[episode] for episode in episodes[first : first + _GRADIENT_BLOCK]]
            row = start + first
            samples[row : row + len(part)] = policy_gradient(stack, part, gamma, reward_to_go)
    return samples


def gradient_variance(
    policy,
    spec: EnvSpec,
    grad_kl: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
    gamma: float,
    reward_to_go: bool,
) -> VarianceReport:
    """Sample gradients in the environment and report the variance identity
    against `grad_kl`, the policy's `kl_batch_loss` gradient: it depends on
    the policy, states and consensus only, so repeats share one."""
    samples = sample_trajectory_gradients(policy, spec, n_samples, rng, gamma, reward_to_go)
    return variance_report_from_samples(samples, grad_kl)


def chebyshev_samples(variance: float, epsilon: float, delta: float) -> int:
    """ceil(Var / (delta * epsilon^2)): samples for P(|err| >= eps) <= delta.
    A count too large for a float (delta * epsilon^2 may even underflow to
    0) is a ConfigurationError, a non-finite variance a NumericError."""
    if epsilon <= 0.0 or delta <= 0.0:
        raise ConfigurationError("epsilon and delta must be positive")
    if not math.isfinite(variance):
        raise NumericError(f"non-finite gradient variance {variance}")
    if variance < 0.0:
        raise ConfigurationError("variance cannot be negative")
    if variance == 0.0:
        return 0
    scale = delta * epsilon * epsilon
    if scale == 0.0 or not math.isfinite(variance / scale):
        raise ConfigurationError(
            f"the sample count Var / (delta * epsilon^2) = {variance!r} / "
            f"({delta!r} * {epsilon!r}^2) is too large for a float")
    return math.ceil(variance / scale)


@dataclass
class SmoothnessProbe:
    n_pairs: int
    radius: float
    lipschitz_estimate: float  # max ||d grad_KL|| / ||d theta|| over pairs
    grad_log_prob_bound: float  # G: max ||grad log pi(a|s)|| over samples
    hessian_bound_estimate: float  # M: max finite-difference Hessian-dir norm
    theory_bound: float  # G * (2 + log n_actions); softmax-derived


# states per chunk of the G sweep (at 256 its forward arrays page-fault)
_SWEEP_STATES = 128
# M's central-difference step, and its probes per parameter point
_HESSIAN_STEP, _HESSIAN_PROBES = 1e-4, 5


def _grad_log_prob_max(policy, states: np.ndarray, rng: np.random.Generator) -> float:
    """G: the largest ||grad log pi(a|s)|| over the head's `probe_pairs` of
    every state, a chunk of states at a time. A screen, `score_square_norms`,
    forms each row's g . g in factored form, the same products summed in
    another order, so the two norms differ by about (P + 2 * depth) * 2^-53
    relative (3e-11 at P = 254k), and forms no row's gradient. Only rows
    within 1e-6 of the chunk's top screened norm, or whose screen is not
    finite, are confirmed, one `log_prob_grad` call and `np.linalg.norm` each,
    so the row with the largest exact norm is always confirmed and G keeps
    its bits. A top that is not finite or lies outside [1e-100, 1e100], where
    overflow or underflow could break the bound, confirms every row. `fmax`
    skips a NaN norm as `max(best, norm)` does."""
    best = 0.0
    for start in range(0, states.shape[0], _SWEEP_STATES):
        rows, actions, forward = policy.probe_pairs(states[start : start + _SWEEP_STATES], rng)
        screen = np.sqrt(policy.score_square_norms(actions, forward))
        top = np.fmax.reduce(screen)
        picked = range(rows.shape[0])
        if 1e-100 <= top <= 1e100:
            picked = np.flatnonzero(~(screen < top * (1.0 - 1e-6)))
        for i in picked:
            best = np.fmax(best, np.linalg.norm(policy.log_prob_grad(rows[i], actions[i])))
    return float(best)


def _hessian_dir_max(policy, states: np.ndarray, rng: np.random.Generator) -> float:
    params = policy.get_params()
    best = 0.0
    for _ in range(_HESSIAN_PROBES):
        s = states[rng.integers(0, states.shape[0])]
        a = policy.probe_action(s, rng)
        u = rng.normal(size=params.size)
        u /= np.linalg.norm(u)
        policy.set_params(params + _HESSIAN_STEP * u)
        g_up = policy.log_prob_grad(s, a)
        policy.set_params(params - _HESSIAN_STEP * u)
        g_down = policy.log_prob_grad(s, a)
        best = max(best, float(np.linalg.norm(g_up - g_down) / (2.0 * _HESSIAN_STEP)))
    policy.set_params(params)
    return best


def lipschitz_probe(
    policy_factory,
    states: np.ndarray,
    consensus: DistributionBatch,
    n_pairs: int,
    radius: float,
    rng: np.random.Generator,
) -> SmoothnessProbe:
    """Estimate the KL-gradient Lipschitz constant over random parameter pairs.

    Each pair is a freshly drawn policy and a copy displaced by `radius`
    along a random unit direction; the reported estimate is the largest
    observed gradient-difference ratio. Overflow is reported by a
    NumericError, not by numpy's warnings: the head's, if the displaced
    outputs overflow, else one naming the radius if a displacement norm, a
    pair's ratio (a NaN one `max` would skip), G or M is not finite.
    """
    if n_pairs < 1:
        raise ConfigurationError("need at least one probe pair")
    if radius <= 0.0:
        raise ConfigurationError("probe radius must be positive")
    states = np.asarray(states, dtype=np.float64)
    lipschitz = g_bound = m_bound = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_pairs):
            policy = policy_factory(rng)
            theta = policy.get_params()
            _, grad_a = policy.kl_batch_loss(consensus, policy.net.forward(states))
            g_bound = max(g_bound, _grad_log_prob_max(policy, states, rng))
            m_bound = max(m_bound, _hessian_dir_max(policy, states, rng))

            u = rng.normal(size=theta.size)
            u /= np.linalg.norm(u)
            policy.set_params(theta + radius * u)
            actual_delta = float(np.linalg.norm(policy.get_params() - theta))
            if actual_delta == 0.0:
                raise ConfigurationError("probe displacement collapsed to zero")
            _, grad_b = policy.kl_batch_loss(consensus, policy.net.forward(states))
            ratio = float(np.linalg.norm(grad_b - grad_a)) / actual_delta
            if not (math.isfinite(actual_delta) and math.isfinite(ratio)):
                raise NumericError(f"probe radius {radius!r}: a pair's displacement norm "
                                   f"({actual_delta!r}) or ratio ({ratio!r}) is not finite")
            g_bound = max(g_bound, _grad_log_prob_max(policy, states, rng))
            lipschitz = max(lipschitz, ratio)
    if not (math.isfinite(g_bound) and math.isfinite(m_bound)):
        raise NumericError(f"probe radius {radius!r}: G ({g_bound!r}) or M ({m_bound!r}) "
                           "is not finite")
    return SmoothnessProbe(
        n_pairs=n_pairs,
        radius=radius,
        lipschitz_estimate=lipschitz,
        grad_log_prob_bound=g_bound,
        hessian_bound_estimate=m_bound,
        theory_bound=g_bound * (2.0 + math.log(policy.net.output_dim)),
    )
