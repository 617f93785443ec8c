"""A fixed reference kernel that gauges how fast the machine runs at the moment.

On a shared host the same job can run 20-40% slower for minutes at a time,
because of what other tenants run; the slowdown shows in CPU time as well as
wall time. The benchmark therefore times this kernel right before and after
every timed sample and reports the sample at the reference speed:

    scaled seconds = measured seconds * REFERENCE_S / kernel seconds

where the kernel seconds are the mean of the two runs around the sample.

The kernel mixes what the program spends its time on: per-state policy
steps on small numpy arrays with scalar environment arithmetic in between,
which slow down when a neighbour shares the core, and a batched forward and
backward pass over 4096 x 128 activations, which slows down when a neighbour
shares the cache and memory bus. It is part of the benchmark, never of the
program, so a change to the program moves the scaled time and not the kernel.
"""

from __future__ import annotations

import math
import time

import numpy as np

# the kernel's typical time on the machine the baseline was taken on (2-core
# Intel Xeon VM, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31 on one thread),
# so that scaled seconds read close to wall seconds there
REFERENCE_S = 0.12
STEPS = 6000
BATCH_PASSES = 3


def kernel_seconds() -> float:
    """Wall seconds of one run of the reference kernel."""
    rng = np.random.default_rng(0)
    w1 = rng.standard_normal((4, 64)) * 0.3
    w2 = rng.standard_normal((64, 2)) * 0.3
    batch = rng.standard_normal((4096, 128))
    wb = rng.standard_normal((128, 128)) * 0.1
    start = time.perf_counter()
    state = [0.01, 0.0, 0.02, 0.0]
    for _ in range(STEPS):
        hidden = np.tanh(np.asarray(state) @ w1)
        logits = hidden @ w2
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        force = 1.0 if rng.random() < probs[0] else -1.0
        x, x_dot, theta, theta_dot = state
        cos, sin = math.cos(theta), math.sin(theta)
        accel = (force + 0.05 * theta_dot * theta_dot * sin) / 1.1
        theta_acc = (9.8 * sin - cos * accel) / (0.5 * (4.0 / 3.0 - 0.1 * cos * cos / 1.1))
        state = [x + 0.02 * x_dot, x_dot + 0.02 * accel,
                 math.fmod(theta + 0.02 * theta_dot, 0.2), theta_dot + 0.02 * theta_acc]
    for _ in range(BATCH_PASSES):
        hidden = np.tanh(batch @ wb)
        (hidden * (1.0 - hidden * hidden)) @ wb.T
        hidden.T @ batch
    return time.perf_counter() - start
