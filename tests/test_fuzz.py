"""The artifact readers and the config parser fail only by name.

Each reader either returns or raises its documented error: `ArtifactIOError`
for snapshots, distribution batches and state files, `ConfigurationError` for
config text. Inputs are raw bytes or valid artifacts with flipped bytes,
cuts and appended junk.
"""

import struct

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fedhpd.env import STATE_FILE_HEADER, load_state_set
from fedhpd.errors import ArtifactIOError, ConfigurationError
from fedhpd.experiment import _KEYS, ExperimentConfig, parse_config_text
from fedhpd.nn_core import LayerSpec, glorot_init, network_from_bytes, network_to_bytes
from fedhpd.policy import DistributionBatch

_RNG = np.random.default_rng(5)
SNAPSHOTS = [
    network_to_bytes(glorot_init([LayerSpec(4, 3, "tanh"), LayerSpec(3, 2, "identity")], _RNG),
                     np.empty(0)),
    network_to_bytes(glorot_init([LayerSpec(4, 2, "relu"), LayerSpec(2, 1, "identity")], _RNG),
                     np.array([-0.5])),
]
BATCHES = [
    DistributionBatch("categorical", probs=np.array([[0.25, 0.75], [0.5, 0.5]])).to_bytes(),
    DistributionBatch("gaussian", mean=np.zeros((2, 1)), var=np.ones((2, 1))).to_bytes(),
]


def _mutate(blob, flips, reals, cut, junk):
    data = bytearray(blob)
    for position, value in flips:
        data[position % len(data)] = value
    for position, value in reals:
        start = position % (len(data) - 7)
        data[start:start + 8] = struct.pack("<d", value)
    if cut is not None:
        del data[cut % (len(data) + 1):]
    return bytes(data) + junk


_POSITIONS = st.integers(0, 40) | st.integers(0, 2**16)


def damaged(valid):
    """Raw bytes, or a valid blob with flipped bytes, overwritten f64 values,
    an optional cut and appended junk."""
    return st.one_of(
        st.binary(max_size=120),
        st.builds(_mutate, st.sampled_from(valid),
                  st.lists(st.tuples(_POSITIONS, st.integers(0, 255)), max_size=4),
                  st.lists(st.tuples(_POSITIONS, st.floats()), max_size=2),
                  st.none() | _POSITIONS, st.binary(max_size=12)),
    )


@given(damaged(SNAPSHOTS))
@example(SNAPSHOTS[0][:-8] + struct.pack("<d", float("nan")))  # non-finite parameter
@example(SNAPSHOTS[0][:16] + struct.pack("<I", 0) + SNAPSHOTS[0][20:])  # zero-width layer
def test_network_from_bytes_fails_only_as_artifact_error(blob):
    try:
        network_from_bytes(blob)
    except ArtifactIOError:
        pass


@given(damaged(BATCHES))
def test_batch_from_bytes_fails_only_as_artifact_error(blob):
    try:
        DistributionBatch.from_bytes(blob)
    except ArtifactIOError:
        pass


_STATE_TEXT = st.text(alphabet="0123456789,.-+eEinfa n=\n²١", max_size=120)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.binary(max_size=120),
                 _STATE_TEXT.map(lambda body: f"{STATE_FILE_HEADER} dim=4 {body}".encode())))
@example(blob=b"\x80")  # not UTF-8
@example(blob=f"{STATE_FILE_HEADER} dim=4 n=\u00b2\n0,0,0,0\n".encode())  # a digit int() rejects
def test_load_state_set_fails_only_as_artifact_error(tmp_path, blob):
    path = tmp_path / "states.txt"
    path.write_bytes(blob)
    try:
        load_state_set(path)
    except ArtifactIOError:
        pass


_VALUES = st.one_of(
    st.text(max_size=12),
    st.integers(-3, 10**6).map(str),
    st.floats().map(str),
    st.sampled_from(["true", "false", '""', '"x"', "1, 2", "0.5, abc", "1_0", "\u0661\u0660",
                     "8:tanh@1e-3", '"6_4:relu@1e-3"',
                     '"4x4:relu@nan"', '"cartpole-continuous"', '"pendulum-4"']),
)
_LINES = st.builds("{} = {}".format, st.sampled_from(sorted(_KEYS)), _VALUES)


@given(st.one_of(st.text(max_size=80), st.lists(_LINES, max_size=5).map("\n".join)))
def test_config_text_fails_only_as_configuration_error(text):
    try:
        ExperimentConfig(parse_config_text(text))
    except ConfigurationError:
        pass


# any character, lone surrogates included, and those config text reads specially
_PATH_TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                               st.sampled_from("'\"#=, \t\n\r\x0b\x0c\x1c\x85 \0\udcff")),
                     max_size=16)


@given(_PATH_TEXT)
@example("q'x\"y")
@example("n\x85l")
@example("bad\udcffdir")
def test_an_output_dir_is_refused_or_reads_back_from_resolved_text(text):
    try:
        config = ExperimentConfig({"run.output_dir": text})
    except ConfigurationError:
        return
    resolved = config.resolved_text()
    resolved.encode("utf-8")
    assert parse_config_text(resolved) == config.values
