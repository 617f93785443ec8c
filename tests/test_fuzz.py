"""The artifact readers, the config parser and the command line fail only by
name.

Each reader either returns or raises its documented error: `ArtifactIOError`
for snapshots, distribution batches and state files, `ConfigurationError` for
config text. Inputs are raw bytes or valid artifacts with flipped bytes,
cuts and appended junk.
"""

import contextlib
import io
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fedhpd.cli import main
from fedhpd.env import STATE_FILE_HEADER, load_state_set
from fedhpd.errors import ArtifactIOError, ConfigurationError
from fedhpd.experiment import _KEYS, SIZE_KEYS, ExperimentConfig, parse_config_text
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


# a tiny valid grid: one seed, NoFed and an interval that fires, two small agents
_TINY_CONFIG = """
env.kind = "cartpole-discrete"
env.max_steps = 20
run.rounds = 3
run.seeds = 20
run.workers = 1
fed.d = 2
agents.spec = "4:tanh@1e-3; 3:relu@2e-3"
states.size = 6
states.warmup_rounds = 0
states.rollouts = 1
diag.samples = 2
diag.repeats = 1
diag.pairs = 1
"""


def _bad_value(key):
    """A value for `key` that is out of range, malformed or tiny: a size is
    never drawn as a large valid one."""
    _, _, most = _KEYS[key]
    if key == "agents.spec":
        return st.one_of(
            st.sampled_from(['""', '"4:tanh@1e-3"', '"1:relu@1e300"', '"0:tanh@1e-3"',
                             '"501:tanh@1e-3"', '"4:sigmoid@1e-3"', '"4x4:relu@nan"',
                             '"2x2:relu,tanh,relu@1e-3"', '"4:tanh"', "4:tanh@1e-3"]),
            st.text(':;x@,.-e tanhrelu"', max_size=16))
    if key in SIZE_KEYS:
        return st.sampled_from(["0", "-1", "1", "2", "1.5", '"2"', "", "nan", "1_0",
                                str(most + 1), str(2**62)])
    if type(most) is float:
        return st.one_of(st.floats().map(repr),
                         st.sampled_from(["0", "-1", "1e-320", "1e154", '"x"', "true"]))
    return st.one_of(st.text(max_size=12), st.integers(-3, 10**6).map(str),
                     st.sampled_from(["true", "false", '""', '"cartpole-continuous"',
                                      '"pendulum-4"', '"file"', "1, 2", "0.5"]))


# every key but the pinned `run.workers` and the paths, which a draw would
# point outside the test's directory
_DRAWN_KEYS = sorted(set(_KEYS) - {"run.workers", "run.output_dir", "states.path"})
_SETTINGS = st.none() | st.sampled_from(_DRAWN_KEYS).flatmap(
    lambda key: _bad_value(key).map(f"{key} = {{}}".format))


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(_SETTINGS, st.integers(0, 15))
def test_the_cli_ends_in_a_documented_exit_code(setting, pick):
    # `train` on a tiny grid with at most one bad value, then `diagnose` on
    # one of its snapshots if it trained
    with tempfile.TemporaryDirectory() as tmp:
        out, config = Path(tmp) / "out", Path(tmp) / "exp.cfg"
        config.write_text(_TINY_CONFIG)
        options = ["--config", str(config), *(["--set", setting] if setting else [])]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            codes = [main(["train", *options, "--output-dir", str(out)])]
            snapshots = sorted(out.glob("snapshots/*.fhpd"))
            if codes[0] == 0 and snapshots:
                codes.append(main(["diagnose", *options, "--output-dir", str(out / "diag"),
                                   "--snapshot", str(snapshots[pick % len(snapshots)]),
                                   "--states", str(out / "states.txt")]))
    assert set(codes) <= {0, 2, 3, 4}, (codes, err.getvalue())
    assert "Traceback" not in err.getvalue()
