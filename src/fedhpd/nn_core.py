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


def _activation_deriv(kind: str, out: np.ndarray) -> np.ndarray:
    # ReLU' or tanh' from the layer's output (an identity layer's dz is its
    # d_post); ReLU' at exactly 0 is taken as 0 (subgradient choice)
    if kind == "relu":
        return (out > 0.0).astype(np.float64)
    return 1.0 - out * out


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


def _layer_views(layers, params: np.ndarray) -> list:
    """(weights, bias) views of each layer in a flat parameter vector, shaped
    [in, out] and [out], or in a [B, P] stack of them, shaped [B, in, out]
    and [B, 1, out]; nothing is copied."""
    lead = params.shape[:-1]
    views = []
    offset = 0
    for spec in layers:
        w_end = offset + spec.input_dim * spec.output_dim
        w = params[..., offset:w_end].reshape(lead + (spec.input_dim, spec.output_dim))
        b = params[..., w_end : w_end + spec.output_dim]
        views.append((w, b[..., None, :] if lead else b))
        offset = w_end + spec.output_dim
    return views


class MlpNetwork:
    """Dense MLP over a flat float64 parameter vector, or a stack of B
    same-shape networks over the rows of a [B, P] array.

    Layout: for each layer in order, the weight matrix flattened row-major
    (shape input_dim x output_dim), followed by the bias vector. `params` is
    the array the network reads and writes: its own, or one that `bind`
    gives it, such as a row of a stack or the rows of a stack.

    A stack runs one block of input rows per network (`bounds`): one matmul
    per block and layer, and every elementwise step once over all blocks, so
    each block's result is bit-identical to its network's own pass. Padding
    the blocks to one length would batch the matmuls too, but the BLAS
    kernels round a matrix's last rows and long sums differently with the
    row count.
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
        self.bind(np.zeros(self.num_params))
        if params is not None:
            self.set_params(params)

    def bind(self, params: np.ndarray) -> None:
        """Read and write `params` ([P], or [B, P] for a stack) from now on,
        as it stands: nothing is copied."""
        self.params = params
        self._views = _layer_views(self.layers, params)

    def set_params(self, params: np.ndarray) -> None:
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.num_params,):
            raise ConfigurationError(
                f"expected {self.num_params} parameters, got shape {params.shape}"
            )
        if not np.isfinite(params).all():
            raise NumericError("non-finite network parameters")
        self.params[...] = params

    def get_params(self) -> np.ndarray:
        return self.params.copy()

    def forward(self, x: np.ndarray, bounds: list[int] | None = None) -> tuple[np.ndarray, list]:
        """Run the network on a vector, a batch of row vectors, or [N, 1, in]
        single rows; a stack runs rows bounds[i]:bounds[i+1] through network i.

        A vector runs as a `(1, in)` row through `h.dot(w)`, then `+= b`: the
        bits of `h @ w + b`, from a cheaper call. Single rows go through one
        `(N, 1, in) @ (in, out)` matmul per layer, whose slices round as a
        lone vector's `(1, in) @ (in, out)` does; a 2-D batch's matmul need
        not (BLAS blocks its rows).

        Returns the output plus a cache of per-layer (input, output) pairs
        sufficient for `backward` without recomputation; a layer's output is
        the next layer's input, so the pairs share their arrays.
        """
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        h = x.reshape(1, -1) if single else x
        if h.shape[-1] != self.input_dim:
            raise ConfigurationError(
                f"input dim {h.shape[-1]} does not match network input {self.input_dim}"
            )
        if bounds is not None:
            blocks = list(enumerate(zip(bounds, bounds[1:])))
        cache = []
        for spec, (w, b) in zip(self.layers, self._views):
            if single:
                z = h.dot(w)
                z += b
            elif bounds is None:
                z = h @ w + b
            else:
                z = np.empty((h.shape[0], spec.output_dim))
                for i, (start, end) in blocks:
                    np.matmul(h[start:end], w[i], out=z[start:end])
                    z[start:end] += b[i, 0]
            cache.append((h, _apply_activation(spec.activation, z)))
            h = cache[-1][1]
        out = h[0] if single else h
        return out, cache

    def backward(self, cache: list, output_grad: np.ndarray,
                 bounds: list[int] | None = None) -> np.ndarray:
        """Parameter gradient of `sum(output * output_grad)` over the batch.

        `output_grad` rows are d(loss)/d(output) per batch row; the returned
        flat vector shares the layout of the parameter vector. With the
        `bounds` of `forward`, row i of the [B, P] result is network i's
        gradient over its block. After a forward pass of [N, 1, in] single
        rows, `output_grad` is [N, 1, out] and row i of the [N, P] result is
        the gradient of row i alone, bit-identical to a one-vector pass.

        A single row (a vector, [N, 1, in] rows or a 1-row batch) has K = 1:
        its weight gradient is the products x_in[k] * dz[j], formed by one
        `einsum` into the gradient rows instead of a matmul per row. Like the
        matmul, `einsum` adds each product to a zeroed sum, so a -0.0 product
        (a dead ReLU unit's dz) is stored as +0.0, and the bias row is dz plus
        0.0 for the same reason. `d_post = dz @ w.T` stays a matmul per row,
        whose bits depend on the BLAS kernel.
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
        if bounds is None:
            grad = np.empty(g.shape[:-2] + (self.num_params,))
        else:
            blocks = list(enumerate(zip(bounds, bounds[1:])))
            grad = np.empty((len(blocks), self.num_params))
        d_post = g
        offset = self.num_params
        for spec, (w, _), (x_in, out) in zip(
            reversed(self.layers), reversed(self._views), reversed(cache)
        ):
            if spec.activation == "identity":
                dz = d_post  # 1.0 * d_post is d_post, signed zeros and NaNs included
            else:
                dz = _activation_deriv(spec.activation, out)
                dz *= d_post
            b_start = offset - spec.output_dim
            w_start = b_start - spec.input_dim * spec.output_dim
            if bounds is None:
                w_grad = grad[..., w_start:b_start].reshape(
                    grad.shape[:-1] + (spec.input_dim, spec.output_dim))
                if x_in.shape[-2] == 1:
                    np.add(dz[..., 0, :], 0.0, out=grad[..., b_start:offset])
                    np.einsum("...ki,...ko->...io", x_in, dz, out=w_grad)
                else:
                    grad[..., b_start:offset] = dz.sum(axis=-2)
                    w_grad[...] = x_in.swapaxes(-1, -2) @ dz
                if w_start:
                    d_post = dz @ w.T
            else:
                for i, (start, end) in blocks:
                    grad[i, b_start:offset] = dz[start:end].sum(axis=0)
                    np.matmul(x_in[start:end].T, dz[start:end],
                              out=grad[i, w_start:b_start].reshape(spec.input_dim, -1))
                if w_start:
                    d_post = np.empty_like(x_in)
                    for i, (start, end) in blocks:
                        np.matmul(dz[start:end], w[i].T, out=d_post[start:end])
            offset = w_start
        return grad

    def step_rows(self, x: np.ndarray) -> np.ndarray:
        """For a stack: row i of `x` [B, in] through network i, one
        `(B, 1, in) @ (B, in, out)` matmul per layer; returns [B, out]."""
        h = x[:, None, :]
        for spec, (w, b) in zip(self.layers, self._views):
            h = _apply_activation(spec.activation, h @ w + b)
        return h[:, 0, :]


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


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators for one flat parameter vector, or for
    the rows of a [B, P] stack with one step count per row."""

    m: np.ndarray
    v: np.ndarray
    step_count: int | list[int] = 0

    @classmethod
    def zeros(cls, num_params: int) -> "AdamState":
        return cls(m=np.zeros(num_params), v=np.zeros(num_params))


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam descent step, in place on `params` and `state`.

    `params`, `grad` and the moments are one [P] vector, or [B, P] stacks
    whose row i is corrected with its own `1 - beta**t` from step count i:
    the same arithmetic, element for element, as B separate calls.
    The step moves against `grad`; callers doing ascent negate their gradient.
    """
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ConfigurationError("adam_step shape mismatch")
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient in adam_step")
    # int(t): Python's float power, which numpy's differs from at some step counts
    if params.ndim == 1:
        state.step_count = int(state.step_count) + 1
        c1 = 1.0 - ADAM_BETA1**state.step_count
        c2 = 1.0 - ADAM_BETA2**state.step_count
    else:
        state.step_count = [int(t) + 1 for t in state.step_count]
        c1 = np.array([[1.0 - ADAM_BETA1**t] for t in state.step_count])
        c2 = np.array([[1.0 - ADAM_BETA2**t] for t in state.step_count])
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    params -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


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
        if not np.isfinite(flat).all():
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


def load_network(path) -> tuple[MlpNetwork, np.ndarray]:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ArtifactIOError(f"cannot read snapshot {path}: {exc}") from exc
    return network_from_bytes(blob)
