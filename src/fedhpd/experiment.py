"""Experiment configuration, sweep execution, and CSV emission.

Configs are flat text files of dotted keys (diff-friendly, no nesting):

    env.kind = "cartpole-discrete"
    run.rounds = 600
    run.seeds = 20, 25, 30
    fed.d = 5, 10, 20
    agents.preset = "cartpole-4"

Every known key has a default and a range (`_KEYS`); an unknown key, or a
value of another type or out of range, is rejected by name before any work
starts. A training invocation expands into a grid of cells (mode, interval,
seed) - the NoFed baseline plus one federated variant per interval. `run_cell`
turns a finished cell into its summary row and one list of (relative path,
contents): the metrics CSV, the snapshots and any kept consensus broadcasts,
which `train_experiment` writes in one loop after removing the cell's stale
files. Every CSV table (metrics, `summary.csv`, `diagnostics.csv`) is a column
list and dict rows, formatted by `csv_text`: a key a row lacks is a blank
field, and reals are printed with 17 significant digits so comparisons
reproduce exactly.

The cells of a grid share their lineup, so they train together in lockstep
(`run_group`, `federation.run`): one group at `run.workers = 1`, otherwise the
cells are dealt into `run.workers` groups that run in a process pool. Every
cell's numbers are those it would have alone, and outputs are written by the
parent in a fixed order, so byte-identical results do not depend on the
worker count.
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .env import ENV_KINDS, EnvSpec, PublicStateSet, load_state_set, save_state_set
from .errors import ArtifactIOError, ConfigurationError
from .federation import FedRunConfig, RunResult, run
from .nn_core import ACTIVATIONS
from .presets import PRESET_ENVS, preset_agents
from .public_states import generate_public_states
from .reinforce import AgentConfig

# ------------------------------------------------------------------ config keys

# key: (default, least, greatest): inclusive integer and exclusive real bounds,
# on each entry of a list; a string takes one of its bounds; None is no bound.
# Each size ceiling keeps a run under about 1 GB of resident memory (README).
_KEYS = {
    "env.kind": ("cartpole-discrete", *ENV_KINDS),
    "env.max_steps": (500, 1, 5_000),
    "run.rounds": (600, 1, 20_000),
    "run.seeds": ([20, 25, 30, 35, 40], 0, None),
    "run.gamma": (0.99, 0.0, 1.0),
    "run.workers": (1, 1, 10),
    "run.output_dir": ("runs", None, None),
    "run.episodes_per_round": (1, 1, 100),
    "run.reward_to_go": (False, None, None),
    "run.dump_consensus": (False, None, None),
    "fed.d": ([5, 10, 20], 1, None),
    "fed.include_nofed": (True, None, None),
    "agents.preset": ("cartpole-4", None, None),
    "agents.spec": ("", None, None),
    "states.source": ("generate", "generate", "file"),
    "states.path": ("", None, None),
    "states.size": (512, 1, 200_000),
    "states.warmup_rounds": (200, 0, 500_000),
    "states.rollouts": (20, 1, 100_000),
    "states.seed": (7, 0, None),
    "diag.samples": (64, 2, 20_000),
    "diag.repeats": (3, 1, 10_000),
    "diag.pairs": (200, 1, 2_000_000),
    "diag.radius": (0.05, 0.0, math.inf),
    "diag.epsilon": (0.1, 0.0, math.inf),
    "diag.delta": (0.05, 0.0, math.inf),
    "diag.seed": (99, 0, None),
}

# the widest `agents.spec` hidden layer, and the keys that size a run's arrays
MAX_WIDTH = 500
SIZE_KEYS = [key for key, (_, _, most) in _KEYS.items() if type(most) is int] + ["agents.spec"]


# a quoted string (kept whole) or a comment from '#' to the end of the line
_COMMENT = re.compile(r"""("[^"]*"|'[^']*')|#.*""")


def _parse_scalar(raw: str):
    text = raw.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
        return text[1:-1]
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment, commas make lists,
    and each key may appear once."""
    values = {}
    linenos = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.sub(lambda m: m.group(1) or "", line).strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"config line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigurationError(f"config line {lineno}: unknown key {key!r}")
        if key in linenos:
            raise ConfigurationError(f"config lines {linenos[key]} and {lineno}: {key} is set "
                                     "twice; each key may appear once")
        linenos[key] = lineno
        if "," in raw and not (raw.strip().startswith(("'", '"'))):
            values[key] = [_parse_scalar(part) for part in raw.split(",")]
        else:
            values[key] = _parse_scalar(raw)
    return values


def _is_real(value) -> bool:
    """A finite int or float; a bool or an int too large for a float is not."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _check(key: str, value) -> None:
    """Reject, naming `key`, a value that does not fit the key's `_KEYS` entry."""
    default, least, greatest = _KEYS[key]
    is_list = isinstance(default, list)
    kind = type(default[0] if is_list else default)
    for entry in value if is_list else [value]:
        if kind is str:
            ok = type(entry) is str and (least is None or entry in (least, greatest))
            wanted = "a quoted string" if least is None else f"{least!r} or {greatest!r}"
        elif kind is bool:
            ok, wanted = type(entry) is bool, "true or false"
        elif kind is float:
            ok = _is_real(entry) and least < entry < greatest
            wanted = f"a finite number in ({least}, {greatest})"
        else:
            ok = type(entry) is int and least <= entry and (greatest is None or entry <= greatest)
            wanted = (f"an integer >= {least}" if greatest is None
                      else f"an integer in [{least}, {greatest}]")
        if not ok:
            raise ConfigurationError(f"{key}: {'each entry ' if is_list else ''}must be {wanted}")


def parse_agent_spec(spec: str) -> list[AgentConfig]:
    """Inline lineup grammar: '64:relu@1e-3; 16x16:relu,tanh@2e-3'."""
    agents = []
    for i, entry in enumerate(part for part in spec.split(";") if part.strip()):
        try:
            arch, lr_text = entry.rsplit("@", 1)
            widths_text, acts_text = arch.split(":")
            widths = [int(w) for w in widths_text.strip().split("x")]
            acts = [a.strip() for a in acts_text.split(",")]
            lr = float(lr_text)
        except ValueError as exc:
            raise ConfigurationError(f"agents.spec entry {entry.strip()!r}: {exc}") from exc
        if len(acts) == 1:
            acts = acts * len(widths)
        if len(acts) != len(widths):
            raise ConfigurationError(
                f"agents.spec entry {entry.strip()!r}: {len(widths)} widths "
                f"but {len(acts)} activations"
            )
        for width, act in zip(widths, acts):
            if not 1 <= width <= MAX_WIDTH:
                raise ConfigurationError(f"agents.spec entry {entry.strip()!r}: width "
                                         f"{width} is not in [1, {MAX_WIDTH}]")
            if act not in ACTIVATIONS:
                raise ConfigurationError(
                    f"agents.spec entry {entry.strip()!r}: unknown activation {act!r}; "
                    f"choose one of {', '.join(ACTIVATIONS)}")
        agents.append(
            AgentConfig(
                agent_id=f"agent-{i + 1}",
                hidden=list(zip(widths, acts)),
                learning_rate=lr,
            )
        )
    if not agents:
        raise ConfigurationError("agents.spec is empty")
    return agents


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        v = self.values = {**{key: default for key, (default, _, _) in _KEYS.items()},
                           **self.values}
        for key in v:
            if key not in _KEYS:
                raise ConfigurationError(f"{key}: unknown config key")
        for key, (default, _, _) in _KEYS.items():
            if isinstance(default, list):
                v[key] = list(v[key]) if isinstance(v[key], list) else [v[key]]
            _check(key, v[key])
        if not v["run.seeds"]:
            raise ConfigurationError("run.seeds: must name at least one seed")
        if not v["fed.d"] and not v["fed.include_nofed"]:
            raise ConfigurationError("fed.d: is empty and fed.include_nofed is false, so the "
                                     "grid has no cells")
        for key in ("run.seeds", "fed.d"):
            repeated = sorted({x for x in v[key] if v[key].count(x) > 1})
            if repeated:
                raise ConfigurationError(
                    f"{key}: duplicate entries {', '.join(map(str, repeated))}; each cell "
                    "would run and write its files more than once")
        if any(d > v["run.rounds"] for d in v["fed.d"]):
            raise ConfigurationError("fed.d: intervals beyond run.rounds never fire; drop them "
                                     "or use fed.include_nofed")
        if v["states.source"] == "file" and not v["states.path"]:
            raise ConfigurationError("states.path: required when states.source = 'file'")
        epsilon, delta = float(v["diag.epsilon"]), float(v["diag.delta"])
        if delta * epsilon * epsilon == 0.0:  # as `chebyshev_samples` forms it
            raise ConfigurationError(
                f"diag.epsilon = {epsilon!r}, diag.delta = {delta!r}: delta * epsilon^2 "
                "underflows to 0, so the sample count Var / (delta * epsilon^2) is too "
                "large for a float")
        if not v["agents.spec"]:
            if v["agents.preset"] not in PRESET_ENVS:
                raise ConfigurationError(f"agents.preset: must be one of {', '.join(PRESET_ENVS)}")
            if PRESET_ENVS[v["agents.preset"]] != v["env.kind"]:
                raise ConfigurationError(f"agents.preset: is not a lineup for {v['env.kind']}")
        # build once so per-agent validation fires before any run starts
        self.agent_configs()

    def __getitem__(self, key: str):
        return self.values[key]

    def agent_configs(self) -> list[AgentConfig]:
        """The lineup: `agents.spec`'s, else the preset's."""
        v = self.values
        return (parse_agent_spec(v["agents.spec"]) if v["agents.spec"]
                else preset_agents(v["agents.preset"]))

    def resolved_text(self) -> str:
        lines = []
        for key in sorted(self.values):
            value = self.values[key]
            if isinstance(value, list):
                rendered = ", ".join(str(x) for x in value)
            elif isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, str):
                rendered = f'"{value}"'
            else:
                rendered = str(value)
            lines.append(f"{key} = {rendered}")
        return "\n".join(lines) + "\n"


def load_experiment_config(path=None, overrides: list[str] | None = None) -> ExperimentConfig:
    values = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        values.update(parse_config_text(text))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} must look like key=value")
        values.update(parse_config_text(item))
    return ExperimentConfig(values)


# --------------------------------------------------------------------- metrics

METRICS_COLUMNS = [
    "run_id", "seed", "mode", "d", "round", "agent_id",
    "episode_return", "discounted_return", "kl_loss",
    "policy_grad_norm", "kl_grad_norm", "bytes_communicated",
]

SUMMARY_COLUMNS = ["mode", "d", "seed", "final_window_mean", "overall_mean"]

FINAL_WINDOW = 100


def fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


@dataclass(frozen=True)
class Cell:
    interval: int | None  # None: the NoFed baseline
    seed: int

    @property
    def mode(self) -> str:
        return "nofed" if self.interval is None else "fedhpd"

    @property
    def run_id(self) -> str:
        return "nofed" if self.interval is None else f"fedhpd-d{self.interval}"

    @property
    def stem(self) -> str:
        return f"{self.run_id}-seed{self.seed}"

    @property
    def file_name(self) -> str:
        return f"run-{self.stem}.csv"


def experiment_cells(config: ExperimentConfig) -> list[Cell]:
    intervals = ([None] if config["fed.include_nofed"] else []) + config["fed.d"]
    return [Cell(d, seed) for d in intervals for seed in config["run.seeds"]]


def csv_text(columns: list[str], rows) -> str:
    """A CSV table: the header, then each dict row's `fmt` value per column,
    a key the row lacks being a blank field."""
    lines = [",".join(columns)]
    lines.extend(",".join(fmt(row.get(column)) for column in columns) for row in rows)
    return "\n".join(lines) + "\n"


def metrics_rows(cell: Cell, result: RunResult) -> list[dict]:
    """One row per agent per round plus a system row, by column name."""
    base = {"run_id": cell.run_id, "seed": cell.seed, "mode": cell.mode, "d": cell.interval}
    rows = []
    system_returns = result.system_returns().tolist()
    system_discs = result.discounted_return.mean(axis=1).tolist()
    for i, (returns, discs, norms) in enumerate(zip(
            result.episode_return.tolist(), result.discounted_return.tolist(),
            result.grad_norm.tolist())):
        record = result.consensus_records.get(i)
        for k, agent_id in enumerate(result.agent_ids):
            rows.append({**base, "round": i, "agent_id": agent_id, "episode_return": returns[k],
                         "discounted_return": discs[k], "policy_grad_norm": norms[k],
                         "kl_loss": record.kl_losses[k] if record else None,
                         "kl_grad_norm": record.kl_grad_norms[k] if record else None})
        rows.append({**base, "round": i, "agent_id": "system",
                     "episode_return": system_returns[i], "discounted_return": system_discs[i],
                     "kl_loss": float(np.mean(record.kl_losses)) if record else None,
                     "bytes_communicated": record.bytes_communicated if record else 0})
    return rows


def run_cell(cell: Cell, result: RunResult) -> dict:
    """Format one finished cell: its summary row, and its files in writing order
    as (path in the output directory, contents): metrics CSV, snapshots, kept broadcasts."""
    system = result.system_returns()
    window = min(FINAL_WINDOW, system.size)
    return {
        "cell": cell,
        "summary": {"mode": cell.mode, "d": cell.interval, "seed": cell.seed,
                    "final_window_mean": float(system[-window:].mean()),
                    "overall_mean": float(system.mean())},
        "files": [(cell.file_name, csv_text(METRICS_COLUMNS, metrics_rows(cell, result)))]
        + [(f"snapshots/{cell.stem}-{agent_id}.fhpd", blob)
           for agent_id, blob in zip(result.agent_ids, result.final_snapshots)]
        + [(f"consensus/{cell.stem}-round{i}.bin", record.broadcast)
           for i, record in result.consensus_records.items() if record.broadcast is not None],
    }


def _cell_outcome(cell: Cell, result) -> dict:
    """A finished cell's outputs, or its failure; cell failures are recorded,
    not fatal, but running out of memory is."""
    try:
        if not isinstance(result, Exception):
            return run_cell(cell, result)
    except Exception as exc:
        result = exc
    if isinstance(result, MemoryError):  # a resource fault, not the cell's: `cli.main` names it
        raise result
    return {"cell": cell, "error": f"{type(result).__name__}: {result}"}


def run_group(args) -> list[dict]:
    """Train a group of cells in lockstep (`federation.run`); one outcome per
    cell, with a failure recorded against its cell only."""
    config, cells, states = args
    try:
        results = run(
            FedRunConfig(
                spec=EnvSpec(config["env.kind"], config["env.max_steps"]),
                rounds=config["run.rounds"],
                agent_configs=config.agent_configs(),
                episodes_per_round=config["run.episodes_per_round"],
                gamma=float(config["run.gamma"]),
                reward_to_go=config["run.reward_to_go"],
            ),
            [(cell.interval, cell.seed) for cell in cells],
            states,
            keep_broadcasts=config["run.dump_consensus"])
    except Exception as exc:  # a failure before the cells part fails them all
        results = [exc] * len(cells)
    outcomes = []
    for c, cell in enumerate(cells):
        outcomes.append(_cell_outcome(cell, results[c]))
        results[c] = None  # a cell's result is large next to its CSV text
    return outcomes


def write_file(path: Path, data: str | bytes | None) -> None:
    """Write one output file, creating its directory, or with `data` None remove
    an earlier run's, now stale; failures are I/O errors."""
    try:
        if data is None:
            path.unlink(missing_ok=True)
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data.encode() if isinstance(data, str) else data)
    except OSError as exc:
        raise ArtifactIOError(f"cannot write {path}: {exc}") from exc


def write_states(config: ExperimentConfig, path: Path) -> PublicStateSet:
    """Generate the public state set; save it and its provenance sidecar."""
    states = generate_public_states(
        EnvSpec(config["env.kind"], config["env.max_steps"]),
        warmup_rounds=config["states.warmup_rounds"],
        rollouts=config["states.rollouts"],
        n=config["states.size"],
        seed=config["states.seed"],
    )
    write_file(path.with_suffix(".provenance.json"), json.dumps({
        "seed": config["states.seed"],
        "warmup_rounds": config["states.warmup_rounds"],
        "rollouts": config["states.rollouts"],
        "size": config["states.size"],
        "env_kind": config["env.kind"],
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }, indent=2) + "\n")
    save_state_set(states, path)
    return states


def train_experiment(config: ExperimentConfig, output_dir) -> dict:
    """Run every cell of the grid and write metrics, summary, and config."""
    output_dir = Path(output_dir)
    write_file(output_dir / "config.resolved", config.resolved_text())

    cells = experiment_cells(config)
    states = None
    if any(cell.mode == "fedhpd" for cell in cells):
        if config["states.source"] == "file":
            states = load_state_set(config["states.path"])
        else:
            states = write_states(config, output_dir / "states.txt")

    # cells are dealt round-robin into one lockstep group per worker
    workers = min(config["run.workers"], len(cells))
    jobs = [(config, cells[g::workers], states) for g in range(workers)]
    if workers == 1:
        grouped = [run_group(jobs[0])]
    else:
        # imported here: the pool's modules would add about 15 ms to every process
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                grouped = list(pool.map(run_group, jobs))
        except BrokenProcessPool as exc:  # e.g. the kernel killed it for memory
            raise ConfigurationError(
                f"a worker process ended abruptly; lower {', '.join(SIZE_KEYS)}") from exc
    outcomes: list = [None] * len(cells)
    for g, group in enumerate(grouped):
        outcomes[g::workers] = group

    summary_rows = []
    pooled: dict = {}
    failures = []
    written = []
    for outcome in outcomes:
        cell = outcome["cell"]
        files = dict(outcome.get("files", ()))
        # an earlier run's file of this cell that this run does not write is stale
        for pattern in (cell.file_name, f"snapshots/{cell.stem}-*.fhpd",
                        f"consensus/{cell.stem}-round*.bin"):
            for path in output_dir.glob(pattern):
                if path.relative_to(output_dir).as_posix() not in files:
                    write_file(path, None)
        if "error" in outcome:
            failures.append(f"{cell.file_name}: {outcome['error']}")
            continue
        for name, data in files.items():
            write_file(output_dir / name, data)
        written.append(output_dir / cell.file_name)
        summary_rows.append(outcome["summary"])
        pooled.setdefault((cell.mode, cell.interval), []).append(outcome["summary"])

    for (mode, d), rows in sorted(pooled.items()):
        summary_rows.append({"mode": mode, "d": d, "seed": "pooled", **{
            key: float(np.mean([row[key] for row in rows]))
            for key in ("final_window_mean", "overall_mean")}})
    summary_path = output_dir / "summary.csv"
    write_file(summary_path, csv_text(SUMMARY_COLUMNS, summary_rows))

    write_file(output_dir / "failures.txt", "\n".join(failures) + "\n" if failures else None)
    return {
        "metrics_files": written,
        "summary_file": summary_path,
        "failures": failures,
    }
