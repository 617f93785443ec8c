"""Gradient, optimizer, and snapshot checks for the MLP substrate."""

import math

import numpy as np
import pytest

from fedhpd.errors import ArtifactIOError, ConfigurationError, NumericError
from fedhpd.nn_core import (
    AdamState,
    LayerSpec,
    MlpNetwork,
    adam_step,
    glorot_init,
    network_from_bytes,
    network_to_bytes,
)
from oracles import assert_same_bits, matmul_gradient

# Halved-width versions of the heterogeneous agent lineups exercised by the
# desk-scale presets: ten discrete-task shapes (4 -> hidden -> 2) and four
# continuous-task shapes (4 -> hidden -> 1).
SCALED_ARCHITECTURES = [
    ([(64, "relu")], 2),
    ([(16, "relu"), (16, "relu")], 2),
    ([(8, "tanh"), (8, "tanh"), (16, "tanh")], 2),
    ([(4, "relu"), (4, "relu"), (4, "relu")], 2),
    ([(16, "tanh"), (16, "tanh"), (16, "tanh")], 2),
    ([(4, "relu"), (4, "relu")], 2),
    ([(32, "tanh"), (32, "tanh")], 2),
    ([(8, "relu"), (8, "relu")], 2),
    ([(8, "tanh"), (16, "tanh"), (8, "tanh")], 2),
    ([(16, "relu")], 2),
    ([(8, "tanh"), (16, "tanh")], 1),
    ([(16, "relu"), (16, "relu")], 1),
    ([(32, "tanh"), (32, "tanh")], 1),
    ([(16, "relu"), (64, "relu")], 1),
]


def build_layers(hidden, out_dim, in_dim=4):
    layers = []
    prev = in_dim
    for width, act in hidden:
        layers.append(LayerSpec(prev, width, act))
        prev = width
    layers.append(LayerSpec(prev, out_dim, "identity"))
    return layers


def straight_line_eval(net, x):
    """Scalar re-evaluation of the network, unit by unit, with math.* only."""
    h = [float(v) for v in x]
    flat = net.get_params().tolist()
    offset = 0
    for spec in net.layers:
        # documented layout: row-major weights, then biases
        w_end = offset + spec.input_dim * spec.output_dim
        w = np.array(flat[offset:w_end]).reshape(spec.input_dim, spec.output_dim)
        b = flat[w_end : w_end + spec.output_dim]
        offset = w_end + spec.output_dim
        out = []
        for j in range(spec.output_dim):
            acc = float(b[j])
            for i in range(spec.input_dim):
                acc += h[i] * float(w[i, j])
            if spec.activation == "relu":
                acc = acc if acc > 0.0 else 0.0
            elif spec.activation == "tanh":
                acc = math.tanh(acc)
            out.append(acc)
        h = out
    return np.array(h)


def fd_param_grad(net, params, x, output_grad, h=1e-5):
    """Central finite differences of sum(output * output_grad) wrt params."""

    def scalar(p):
        net.set_params(p)
        y, _ = net.forward(x)
        return float(np.sum(y * output_grad))

    grad = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        up[i] += h
        down = params.copy()
        down[i] -= h
        grad[i] = (scalar(up) - scalar(down)) / (2.0 * h)
    net.set_params(params)
    return grad


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-8)


def test_forward_identity_layer():
    net = MlpNetwork([LayerSpec(2, 2, "identity")])
    net.set_params(np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]))
    y, _ = net.forward(np.array([1.0, 2.0]))
    assert np.array_equal(y, [1.0, 2.0])


def test_forward_relu_clamp():
    net = MlpNetwork([LayerSpec(2, 1, "relu")])
    net.set_params(np.array([1.0, -1.0, 0.0]))
    y, _ = net.forward(np.array([3.0, 5.0]))
    assert np.array_equal(y, [0.0])


def test_forward_matches_straight_line_reference():
    rng = np.random.default_rng(11)
    net = glorot_init(build_layers([(5, "tanh"), (3, "tanh")], 2), rng)
    net.set_params(rng.normal(size=net.num_params))
    for _ in range(20):
        x = rng.normal(size=4)
        y, _ = net.forward(x)
        np.testing.assert_allclose(y, straight_line_eval(net, x), rtol=1e-12, atol=1e-12)


def test_forward_is_pure_and_batch_consistent():
    rng = np.random.default_rng(3)
    net = glorot_init(build_layers([(6, "relu")], 2), rng)
    x = rng.normal(size=4)
    y1, _ = net.forward(x)
    y2, _ = net.forward(x)
    assert np.array_equal(y1, y2)
    # batched rows agree with single-row evaluation up to BLAS kernel choice
    batch, _ = net.forward(np.stack([x, x, 2 * x]))
    np.testing.assert_allclose(batch[0], y1, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(batch[1], y1, rtol=1e-13, atol=1e-15)


def test_backward_identity_layer_components():
    net = MlpNetwork([LayerSpec(3, 1, "identity")], np.zeros(4))
    x = np.array([0.5, -2.0, 4.0])
    _, cache = net.forward(x)
    grad = net.backward(cache, np.array([1.0]))
    np.testing.assert_array_equal(grad[:3], x)  # weight grads = inputs
    assert grad[3] == 1.0  # bias grad


def test_backward_zero_seed_gives_zero_grad():
    rng = np.random.default_rng(5)
    net = glorot_init(build_layers([(8, "tanh")], 2), rng)
    _, cache = net.forward(rng.normal(size=4))
    grad = net.backward(cache, np.zeros(2))
    assert np.array_equal(grad, np.zeros(net.num_params))


def relu_kink_too_close(net, cache, margin=1e-4):
    """FD is invalid within the step size of a ReLU kink; resample there."""
    for spec, (w, b), (h, _) in zip(net.layers, net._views, cache):
        if spec.activation == "relu" and np.min(np.abs(h @ w + b)) < margin:
            return True
    return False


@pytest.mark.parametrize("idx,arch", list(enumerate(SCALED_ARCHITECTURES)))
def test_backward_matches_finite_differences(idx, arch):
    hidden, out_dim = arch
    rng = np.random.default_rng(1000 + idx)
    net = glorot_init(build_layers(hidden, out_dim), rng)
    worst = 0.0
    checked = 0
    while checked < 100:
        params = rng.normal(scale=0.7, size=net.num_params)
        x = rng.normal(size=4)
        seed = rng.normal(size=out_dim)
        net.set_params(params)
        _, cache = net.forward(x)
        if relu_kink_too_close(net, cache):
            continue
        analytic = net.backward(cache, seed)
        numeric = fd_param_grad(net, params, x, seed)
        worst = max(worst, rel_err(analytic, numeric))
        checked += 1
    assert worst < 1e-4


def test_backward_batch_equals_sum_of_singles():
    rng = np.random.default_rng(17)
    net = glorot_init(build_layers([(6, "tanh"), (5, "relu")], 3), rng)
    xs = rng.normal(size=(7, 4))
    seeds = rng.normal(size=(7, 3))
    _, cache = net.forward(xs)
    batched = net.backward(cache, seeds)
    summed = np.zeros(net.num_params)
    for x, s in zip(xs, seeds):
        _, c = net.forward(x)
        summed += net.backward(c, s)
    np.testing.assert_allclose(batched, summed, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("hidden,out_dim", SCALED_ARCHITECTURES)
def test_single_rows_pass_matches_one_vector_passes(hidden, out_dim):
    # [N, 1, in] rows: row i of the output and of the [N, P] gradient is
    # bit-identical to a forward and backward pass of row i alone
    rng = np.random.default_rng(len(hidden) * 10 + out_dim)
    net = glorot_init(build_layers(hidden, out_dim), rng)
    xs = rng.normal(size=(9, 4))
    seeds = rng.normal(size=(9, out_dim))
    out, cache = net.forward(xs[:, None, :])
    grads = net.backward(cache, seeds[:, None, :])
    assert out.shape == (9, 1, out_dim) and grads.shape == (9, net.num_params)
    for x, s, row_out, row_grad in zip(xs, seeds, out, grads):
        single_out, single_cache = net.forward(x)
        assert np.array_equal(row_out[0], single_out)
        assert np.array_equal(row_grad, net.backward(single_cache, s))


@pytest.mark.parametrize("hidden,out_dim", SCALED_ARCHITECTURES)
def test_single_row_gradients_keep_every_bit(hidden, out_dim):
    # [N, 1, in] rows, one-vector passes, a 1-row 2-D batch and plain K = 1
    # matmuls give the same bits, signed zeros included: row 0 is a zero
    # state, so under zero biases every ReLU unit of it is dead, its inputs
    # are zeros and its negative seeds make -0.0 products
    rng = np.random.default_rng(300 + len(hidden) * 10 + out_dim)
    net = glorot_init(build_layers(hidden, out_dim), rng)
    xs = rng.normal(size=(9, 4))
    xs[0] = 0.0
    seeds = rng.normal(size=(9, out_dim))
    seeds[0] = -np.abs(seeds[0])
    for params in (net.get_params(), rng.normal(scale=0.7, size=net.num_params)):
        net.set_params(params)
        _, cache = net.forward(xs[:, None, :])
        grads = net.backward(cache, seeds[:, None, :])
        for x, seed, grad in zip(xs, seeds, grads):
            _, vector_cache = net.forward(x)
            assert_same_bits(grad, net.backward(vector_cache, seed))
            assert_same_bits(grad, matmul_gradient(net, x, seed))
        _, batch_cache = net.forward(xs[:1])
        assert_same_bits(net.backward(batch_cache, seeds[:1]), grads[0])


@pytest.mark.parametrize("hidden,out_dim", SCALED_ARCHITECTURES)
def test_vector_forward_matches_row_matmuls(hidden, out_dim):
    # a vector's cheaper `dot` pass: every layer's input and output are the
    # bits of `(1, in) @ w + b` and its activation over the same layer views
    rng = np.random.default_rng(100 + len(hidden) * 10 + out_dim)
    net = glorot_init(build_layers(hidden, out_dim), rng)
    net.set_params(rng.normal(scale=0.7, size=net.num_params))
    for x in rng.normal(size=(50, 4)):
        out, cache = net.forward(x)
        h = x[None, :]
        for spec, (w, b), (cached_in, cached_out) in zip(net.layers, net._views, cache):
            assert np.array_equal(cached_in, h)
            z = h @ w + b
            h = np.maximum(z, 0.0) if spec.activation == "relu" else (
                np.tanh(z) if spec.activation == "tanh" else z)
            assert np.array_equal(cached_out, h)
        assert out.shape == (out_dim,) and np.array_equal(out, h[0])


def test_dimension_mismatch_raises():
    with pytest.raises(ConfigurationError):
        MlpNetwork([LayerSpec(4, 3, "relu"), LayerSpec(2, 1, "identity")])
    net = MlpNetwork([LayerSpec(4, 2, "identity")])
    with pytest.raises(ConfigurationError):
        net.forward(np.zeros(3))


def test_adam_zero_gradient_keeps_params():
    params = np.array([1.0, -2.0, 3.0])
    state = AdamState.zeros(3)
    before = params.copy()
    adam_step(params, np.zeros(3), state, lr=0.1)
    assert np.array_equal(params, before)
    assert state.step_count == 1


def test_adam_moves_against_constant_gradient():
    params = np.zeros(2)
    state = AdamState.zeros(2)
    grad = np.array([1.0, -3.0])
    for _ in range(50):
        adam_step(params, grad, state, lr=0.01)
    assert params[0] < 0.0
    assert params[1] > 0.0


def scalar_adam_reference(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent single-parameter Adam written from the update equations."""
    theta, m, v = 0.0, 0.0, 0.0
    trace = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        trace.append(theta)
    return trace


def test_adam_three_step_trace_matches_scalar_reference():
    grads = [0.4, -1.2, 0.05]
    expected = scalar_adam_reference(grads, lr=0.02)
    params = np.zeros(1)
    state = AdamState.zeros(1)
    for g, want in zip(grads, expected):
        adam_step(params, np.array([g]), state, lr=0.02)
        assert abs(params[0] - want) < 1e-15
    assert state.step_count == 3


def scalar_adam_step(theta, m, v, g, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One step of `scalar_adam_reference` from moments m and v to step count
    t, every operation on Python floats and ints."""
    m = beta1 * m + (1 - beta1) * g
    v = beta2 * v + (1 - beta2) * g * g
    return theta - lr * (m / (1 - beta1**t)) / (math.sqrt(v / (1 - beta2**t)) + eps), m, v


def test_adam_bias_correction_is_python_float_power_at_numpy_step_counts():
    # at the counts picked here numpy's power and Python's float ** round
    # 1 - 0.999**t apart, so a step count held as a numpy int must still be
    # corrected by Python's power, in the vector and the stacked step alike
    counts = [1, 2] + [t for t in range(1, 400)
                       if 1.0 - 0.999**t != 1.0 - np.power(0.999, np.int64(t))][:6]
    rng = np.random.default_rng(41)
    params, grads, m = rng.normal(size=(3, len(counts), 5))
    v = rng.random((len(counts), 5))
    want = np.array([[scalar_adam_step(*args, t, lr=1e-2)[0]
                      for args in zip(*(a.tolist() for a in (params[i], m[i], v[i], grads[i])))]
                     for i, t in enumerate(counts)])
    for i, t in enumerate(counts):
        row = params[i].copy()
        state = AdamState(m[i].copy(), v[i].copy(), np.int64(t - 1))
        adam_step(row, grads[i], state, lr=1e-2)
        assert_same_bits(row, want[i])
        assert state.step_count == t
    stacked = AdamState(m.copy(), v.copy(), np.array(counts, np.int64) - 1)
    adam_step(params, grads, stacked, lr=1e-2)
    assert_same_bits(params, want)
    assert stacked.step_count.tolist() == counts


def test_adam_rejects_non_finite_gradient():
    with pytest.raises(NumericError):
        adam_step(np.zeros(2), np.array([np.nan, 0.0]), AdamState.zeros(2), lr=0.1)


def test_snapshot_roundtrip_is_bit_identical():
    rng = np.random.default_rng(23)
    net = glorot_init(build_layers([(9, "tanh"), (7, "relu")], 2), rng)
    x = rng.normal(size=4)
    blob = network_to_bytes(net, np.empty(0))
    restored, extras = network_from_bytes(blob)
    assert extras.size == 0
    assert [l for l in restored.layers] == [l for l in net.layers]
    assert np.array_equal(restored.get_params(), net.get_params())
    assert np.array_equal(restored.forward(x)[0], net.forward(x)[0])


def test_snapshot_roundtrip_with_extra_params():
    rng = np.random.default_rng(29)
    net = glorot_init(build_layers([(5, "tanh")], 1), rng)
    extra = np.array([-0.25, 0.5])
    restored, extras = network_from_bytes(network_to_bytes(net, extra))
    assert np.array_equal(extras, extra)
    assert np.array_equal(restored.get_params(), net.get_params())


def test_every_truncated_snapshot_is_an_artifact_error():
    net = glorot_init(build_layers([(5, "tanh"), (3, "relu")], 2), np.random.default_rng(31))
    blob = network_to_bytes(net, np.empty(0))
    for end in range(len(blob)):
        with pytest.raises(ArtifactIOError):
            network_from_bytes(blob[:end])
