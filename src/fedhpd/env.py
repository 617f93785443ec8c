"""Episodic cart-pole environments behind a pure-function interface.

Both variants share the classic physics (pole on a cart, semi-implicit Euler
at 20 ms) and the alive-bonus reward; they differ only in the action space:

* "cartpole-discrete": action 0/1 pushes with -10 N / +10 N.
* "cartpole-continuous": a 1-D action is clamped to [-10, 10] N, exercising
  the Gaussian policy path without a physics-engine dependency.

State is (cart position, cart velocity, pole angle, pole angular velocity).
`step` is a pure function of (state, action) on a tuple of four floats;
episode horizons are enforced by the rollout loop (`reinforce.rollout`), not
the dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArtifactIOError, ConfigurationError, NumericError

ENV_KINDS = ("cartpole-discrete", "cartpole-continuous")

GRAVITY = 9.8
CART_MASS = 1.0
POLE_MASS = 0.1
TOTAL_MASS = CART_MASS + POLE_MASS
HALF_POLE_LENGTH = 0.5
POLE_MASS_LENGTH = POLE_MASS * HALF_POLE_LENGTH
FORCE_MAG = 10.0
TIMESTEP = 0.02
X_THRESHOLD = 2.4
THETA_THRESHOLD = 12.0 * 2.0 * math.pi / 360.0
RESET_BOUND = 0.05

STATE_DIM = 4


@dataclass(frozen=True)
class EnvSpec:
    kind: str
    max_steps: int = 500

    def __post_init__(self):
        if self.kind not in ENV_KINDS:
            raise ConfigurationError(f"unknown environment kind {self.kind!r}")
        if self.max_steps < 1:
            raise ConfigurationError("max_steps must be positive")

    @property
    def discrete(self) -> bool:
        return self.kind == "cartpole-discrete"

    @property
    def action_count(self) -> int:
        return 2 if self.discrete else 1


def reset(spec: EnvSpec, rng: np.random.Generator) -> np.ndarray:
    """Initial state: every component uniform in [-0.05, 0.05]."""
    return rng.uniform(-RESET_BOUND, RESET_BOUND, size=STATE_DIM)


def _out_of_bounds(x: float, theta: float) -> bool:
    return abs(x) > X_THRESHOLD or abs(theta) > THETA_THRESHOLD


def step(spec: EnvSpec, state, action) -> tuple[tuple[float, float, float, float], float, bool]:
    """Advance the dynamics one 20 ms tick.

    `state` is a tuple of four Python floats (an array of four is accepted
    too) and the next state comes back as one, with the reward and `done`.
    A discrete action is 0 or 1; a continuous one is a one-element sequence
    or array, as a Gaussian head draws it, whose force is clipped to
    +-FORCE_MAG. Velocities are integrated first, positions with the updated
    velocities (semi-implicit Euler). Reward is 1.0 unless the incoming state
    was already terminal; `done` reflects the outgoing state only - the
    horizon is the caller's business. The arithmetic runs on Python floats,
    one state at a time: this is the inner loop of every rollout.
    """
    if not isinstance(state, tuple):
        state = np.asarray(state, dtype=np.float64).tolist()
    x, x_dot, theta, theta_dot = state
    if not (math.isfinite(x) and math.isfinite(x_dot)
            and math.isfinite(theta) and math.isfinite(theta_dot)):
        raise NumericError("non-finite environment state")
    if spec.discrete:
        if action not in (0, 1):
            raise ConfigurationError(f"discrete action must be 0 or 1, got {action!r}")
        force = FORCE_MAG if action == 1 else -FORCE_MAG
    else:
        force = float(action[0])
        force = min(max(force, -FORCE_MAG), FORCE_MAG)
    reward = 0.0 if _out_of_bounds(x, theta) else 1.0

    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    temp = (force + POLE_MASS_LENGTH * theta_dot * theta_dot * sin_t) / TOTAL_MASS
    theta_acc = (GRAVITY * sin_t - cos_t * temp) / (
        HALF_POLE_LENGTH * (4.0 / 3.0 - POLE_MASS * cos_t * cos_t / TOTAL_MASS)
    )
    x_acc = temp - POLE_MASS_LENGTH * theta_acc * cos_t / TOTAL_MASS

    x_dot += TIMESTEP * x_acc
    x += TIMESTEP * x_dot
    theta_dot += TIMESTEP * theta_acc
    theta += TIMESTEP * theta_dot

    return (x, x_dot, theta, theta_dot), reward, _out_of_bounds(x, theta)


def discounted_return(rewards: np.ndarray, gamma: float) -> float:
    """sum_t gamma^t r_t over one episode's rewards. The weights are running
    products and the terms a running sum, both strictly in step order, so
    the result is the float a step-by-step loop accumulates."""
    if len(rewards) == 0:
        raise ConfigurationError("discounted_return needs a non-empty episode")
    weights = np.empty(len(rewards))
    weights[0] = 1.0
    weights[1:] = gamma
    return float(np.cumsum(np.cumprod(weights) * rewards)[-1])


@dataclass
class PublicStateSet:
    """The shared distillation input: n states, one row each."""

    states: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        if self.states.ndim != 2 or self.states.shape[1] != STATE_DIM:
            raise ConfigurationError("public state set must be [n x 4]")
        if self.states.shape[0] < 1:
            raise ConfigurationError("public state set cannot be empty")
        bad = np.flatnonzero(~np.isfinite(self.states).all(axis=1))
        if bad.size:
            raise ConfigurationError(f"public state set row {bad[0]} is not finite")

    @property
    def size(self) -> int:
        return self.states.shape[0]


STATE_FILE_HEADER = "# fedhpd-states v1"


def save_state_set(states: PublicStateSet, path) -> None:
    """Plain-text rows of 17-significant-digit decimals; round-trips exactly."""
    lines = [f"{STATE_FILE_HEADER} dim={STATE_DIM} n={states.size}"]
    for row in states.states:
        lines.append(",".join(format(v, ".17g") for v in row))
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ArtifactIOError(f"cannot write state set {path}: {exc}") from exc


def load_state_set(path) -> PublicStateSet:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ArtifactIOError(f"cannot read state set {path}: {exc}") from exc
    if not lines or not lines[0].startswith(STATE_FILE_HEADER):
        raise ArtifactIOError(f"{path} is not a state-set file")
    try:
        states = PublicStateSet(np.array([[float(v) for v in line.split(",")]
                                          for line in lines[1:] if line.strip()]))
    except (ValueError, ConfigurationError) as exc:
        raise ArtifactIOError(f"{path} is not a valid state set: {exc}") from exc
    declared = lines[0].split("n=")[-1]
    if declared.strip().isdecimal() and int(declared) != states.size:
        raise ArtifactIOError(f"{path} declares n={declared} but has {states.size} rows")
    return states
