"""Minimal dense feed-forward networks with hand-derived backprop.

Every policy in the system sits on top of an `MlpNetwork`: a stack of dense
layers with ReLU/tanh/identity activations whose parameters live in a single
flat float64 vector (per layer: weight matrix row-major, then biases). The
flat layout is what lets heterogeneous agents expose one uniform parameter
surface to the optimizer, the snapshot format, and the gradient checks.

Gradients are computed analytically from cached forward activations; there
is no autodiff anywhere in the package.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ArtifactIOError, ConfigurationError, NumericError

ACTIVATIONS = ("identity", "relu", "tanh")

SNAPSHOT_MAGIC = b"FHPD"
SNAPSHOT_VERSION = 1
_ACT_TAGS = {"identity": 0, "relu": 1, "tanh": 2}
_TAG_ACTS = {v: k for k, v in _ACT_TAGS.items()}


def _apply_activation(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    return z


def _activation_deriv(kind: str, z: np.ndarray) -> np.ndarray:
    # ReLU' at exactly 0 is taken as 0 (subgradient choice).
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    if kind == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return np.ones_like(z)


@dataclass(frozen=True)
class LayerSpec:
    """One dense layer: `output = act(x @ W + b)` with W of shape (in, out)."""

    input_dim: int
    output_dim: int
    activation: str

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ConfigurationError(
                f"layer dims must be positive, got {self.input_dim}x{self.output_dim}"
            )
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {self.activation!r}")

    @property
    def param_count(self) -> int:
        return self.input_dim * self.output_dim + self.output_dim


class MlpNetwork:
    """Dense MLP over a flat float64 parameter vector.

    Layout: for each layer in order, the weight matrix flattened row-major
    (shape input_dim x output_dim), followed by the bias vector.
    """

    def __init__(self, layers: Sequence[LayerSpec], params: np.ndarray | None = None):
        layers = tuple(layers)
        if not layers:
            raise ConfigurationError("network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.output_dim != b.input_dim:
                raise ConfigurationError(
                    f"layer dims mismatch: {a.output_dim} -> {b.input_dim}"
                )
        self.layers = layers
        self.input_dim = layers[0].input_dim
        self.output_dim = layers[-1].output_dim
        self.num_params = sum(l.param_count for l in layers)
        if params is None:
            params = np.zeros(self.num_params, dtype=np.float64)
        self.set_params(params)

    def set_params(self, params: np.ndarray) -> None:
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.num_params,):
            raise ConfigurationError(
                f"expected {self.num_params} parameters, got shape {params.shape}"
            )
        if not np.all(np.isfinite(params)):
            raise NumericError("non-finite network parameters")
        self._params = params.copy()
        self._views = []
        offset = 0
        for spec in self.layers:
            w_end = offset + spec.input_dim * spec.output_dim
            w = self._params[offset:w_end].reshape(spec.input_dim, spec.output_dim)
            b = self._params[w_end : w_end + spec.output_dim]
            self._views.append((w, b))
            offset = w_end + spec.output_dim

    def get_params(self) -> np.ndarray:
        return self._params.copy()

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        """Run the network on a vector or a batch of row vectors.

        Returns the output plus a cache of per-layer (input, pre-activation)
        pairs sufficient for `backward` without recomputation.
        """
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        h = x.reshape(1, -1) if single else x
        if h.shape[1] != self.input_dim:
            raise ConfigurationError(
                f"input dim {h.shape[1]} does not match network input {self.input_dim}"
            )
        cache = []
        for spec, (w, b) in zip(self.layers, self._views):
            z = h @ w + b
            cache.append((h, z))
            h = _apply_activation(spec.activation, z)
        out = h[0] if single else h
        return out, cache

    def output(self, x: np.ndarray) -> np.ndarray:
        """Forward pass when the backward cache is not needed."""
        return self.forward(x)[0]

    def backward(self, cache: list, output_grad: np.ndarray) -> np.ndarray:
        """Parameter gradient of `sum(output * output_grad)` over the batch.

        `output_grad` rows are d(loss)/d(output) per batch row; the returned
        flat vector shares the layout of the parameter vector.
        """
        g = np.asarray(output_grad, dtype=np.float64)
        if g.ndim == 1:
            g = g.reshape(1, -1)
        if len(cache) != len(self.layers):
            raise ConfigurationError("cache does not match network depth")
        if g.shape != cache[-1][1].shape:
            raise ConfigurationError(
                f"output_grad shape {g.shape} does not match forward batch "
                f"{cache[-1][1].shape}"
            )
        grad = np.zeros(self.num_params, dtype=np.float64)
        d_post = g
        offset = self.num_params
        for spec, (w, _), (x_in, z) in zip(
            reversed(self.layers), reversed(self._views), reversed(cache)
        ):
            dz = d_post * _activation_deriv(spec.activation, z)
            b_start = offset - spec.output_dim
            w_start = b_start - spec.input_dim * spec.output_dim
            grad[b_start:offset] = dz.sum(axis=0)
            grad[w_start:b_start] = (x_in.T @ dz).ravel()
            d_post = dz @ w.T
            offset = w_start
        return grad


def glorot_init(layers: Sequence[LayerSpec], rng: np.random.Generator) -> MlpNetwork:
    """Glorot-uniform weights (limit sqrt(6/(fan_in+fan_out))), zero biases."""
    layers = tuple(layers)
    parts = []
    for spec in layers:
        limit = np.sqrt(6.0 / (spec.input_dim + spec.output_dim))
        w = rng.uniform(-limit, limit, size=spec.input_dim * spec.output_dim)
        parts.append(w)
        parts.append(np.zeros(spec.output_dim))
    return MlpNetwork(layers, np.concatenate(parts))


@dataclass
class AdamState:
    """First/second moment accumulators for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def zeros(cls, num_params: int) -> "AdamState":
        return cls(m=np.zeros(num_params), v=np.zeros(num_params))


def adam_step(
    params: np.ndarray, grad: np.ndarray, state: AdamState, lr: float
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam descent step. Pure: inputs are not mutated.

    The step moves against `grad`; callers doing ascent negate their gradient.
    """
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ConfigurationError("adam_step shape mismatch")
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite gradient in adam_step")
    t = state.step_count + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + state.eps)
    new_state = AdamState(
        m=m, v=v, step_count=t, beta1=state.beta1, beta2=state.beta2, eps=state.eps
    )
    return new_params, new_state


def network_to_bytes(net: MlpNetwork, extra_params: np.ndarray | None = None) -> bytes:
    """Binary snapshot: magic, version, layer table, then f64-LE parameters.

    `extra_params` (e.g. a Gaussian head's log-std vector) is appended after
    the network payload; the loader detects it from the payload length.
    """
    head = [SNAPSHOT_MAGIC, struct.pack("<II", SNAPSHOT_VERSION, len(net.layers))]
    for spec in net.layers:
        head.append(
            struct.pack("<IIB", spec.input_dim, spec.output_dim, _ACT_TAGS[spec.activation])
        )
    payload = net.get_params()
    if extra_params is not None:
        payload = np.concatenate([payload, np.asarray(extra_params, dtype=np.float64)])
    return b"".join(head) + payload.astype("<f8").tobytes()


def network_from_bytes(blob: bytes) -> tuple[MlpNetwork, np.ndarray]:
    """Inverse of `network_to_bytes`; returns (network, trailing extras).
    Every defect of the blob is an `ArtifactIOError`."""
    if blob[:4] != SNAPSHOT_MAGIC:
        raise ArtifactIOError("bad snapshot magic")
    try:
        version, n_layers = struct.unpack_from("<II", blob, 4)
        if version != SNAPSHOT_VERSION:
            raise ArtifactIOError(f"unsupported snapshot version {version}")
        offset = 12
        layers = []
        for _ in range(n_layers):
            in_dim, out_dim, tag = struct.unpack_from("<IIB", blob, offset)
            offset += 9
            if tag not in _TAG_ACTS:
                raise ArtifactIOError(f"unknown activation tag {tag}")
            layers.append(LayerSpec(in_dim, out_dim, _TAG_ACTS[tag]))
        if (len(blob) - offset) % 8:
            raise ArtifactIOError("snapshot payload is not a whole number of f64 values")
        flat = np.frombuffer(blob, dtype="<f8", offset=offset).astype(np.float64)
        if not np.all(np.isfinite(flat)):
            raise ArtifactIOError("non-finite value in snapshot payload")
        net_count = sum(l.param_count for l in layers)
        if flat.size < net_count:
            raise ArtifactIOError("snapshot payload shorter than the layer table implies")
        net = MlpNetwork(layers, flat[:net_count])
    except struct.error as exc:
        raise ArtifactIOError(f"truncated snapshot header: {exc}") from exc
    except ConfigurationError as exc:
        raise ArtifactIOError(f"invalid snapshot layer table: {exc}") from exc
    return net, flat[net_count:]


def save_network(net: MlpNetwork, path, extra_params: np.ndarray | None = None) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(network_to_bytes(net, extra_params))
    except OSError as exc:
        raise ArtifactIOError(f"cannot write snapshot {path}: {exc}") from exc


def load_network(path) -> tuple[MlpNetwork, np.ndarray]:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ArtifactIOError(f"cannot read snapshot {path}: {exc}") from exc
    return network_from_bytes(blob)
