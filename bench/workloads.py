"""The benchmark's workloads, the inputs derived from --seed, and output checks.

Every workload is a batch job run through the `fedhpd` command line at
`run.workers = 1`: a training grid (`fedhpd train`) or `fedhpd diagnose`.
README.md in this directory gives the reason for each workload.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

DIAGNOSE_PAIRS = 16
REFERENCE_ROUNDS = 600

# pooled final-100 system return of the full criterion-7 grid at --seed 0
REFERENCE_FINAL100 = {
    ("nofed", ""): 53.4, ("fedhpd", "5"): 64.3, ("fedhpd", "10"): 51.0, ("fedhpd", "20"): 48.9,
}


@dataclass(frozen=True)
class Workload:
    name: str
    env_kind: str
    preset: str
    agents: int
    rounds: int  # training rounds of the job, or of the diagnosed snapshot
    intervals: tuple[int, ...]
    include_nofed: bool
    run_seeds: int
    states_size: int
    diagnose: bool = False
    pool_check: bool = False  # also run once at run.workers = 2
    # spans that must record calls in the traced run besides those behind
    # every time metric (see tracing.TIMED_SPANS)
    expected_spans: tuple[str, ...] = ()

    @property
    def discrete(self) -> bool:
        return self.env_kind == "cartpole-discrete"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="grid-cartpole4",
        env_kind="cartpole-discrete", preset="cartpole-4", agents=4, rounds=40,
        intervals=(5, 10, 20), include_nofed=True, run_seeds=3, states_size=512,
    ),
    Workload(
        name="gaussian-pendulum4",
        env_kind="cartpole-continuous", preset="pendulum-4", agents=4, rounds=100,
        intervals=(10,), include_nofed=True, run_seeds=1, states_size=512,
        pool_check=True,
    ),
    Workload(
        name="diagnose",
        env_kind="cartpole-discrete", preset="cartpole-4", agents=4, rounds=40,
        intervals=(10,), include_nofed=False, run_seeds=1, states_size=512,
        diagnose=True,
        expected_spans=("policy.log_prob_grad", "nn_core.backward.single",
                        "diagnostics.gradient_variance",
                        "diagnostics.sample_trajectory_gradients",
                        "diagnostics.lipschitz_probe"),
    ),
)}


def derive_seeds(seed: int, workload: Workload) -> dict:
    """Every seed the program gets, from the benchmark's --seed.

    --seed 0 gives the ROADMAP grid (run seeds 20/25/30, states.seed 7,
    diag.seed 99); seed s shifts run seeds by 15*s, so distinct --seed values
    never share a run seed.
    """
    run = [20 + 5 * i + 15 * seed for i in range(3)][: workload.run_seeds]
    return {"run": run, "states": setup_states_seed(seed, 0), "diag": 99 + seed}


def setup_states_seed(seed: int, k: int) -> int:
    """states.seed of a run's k-th timed set-up; k = 0 is the job's own set.

    The cost of one set-up follows the virtual agent's episode lengths, which
    swing with its seed (4,105 to 18,400 env steps over states seeds 8-17 on
    cart-pole-discrete), so setup_s averages the medians of set-ups at
    several states seeds, every one derived from --seed.
    """
    return 7 + seed + 1000 * k


def _render(values: dict) -> str:
    lines = []
    for key, value in values.items():
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, (list, tuple)):
            text = ", ".join(str(v) for v in value)
        elif isinstance(value, str):
            text = f'"{value}"'
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def config_text(workload: Workload, seeds: dict, rounds: int, states_path: Path) -> str:
    """The experiment config for the workload's training grid (or snapshot)."""
    values = {
        "env.kind": workload.env_kind,
        "agents.preset": workload.preset,
        "run.rounds": rounds,
        "run.seeds": seeds["run"],
        "run.workers": 1,
        "fed.d": list(workload.intervals),
        "fed.include_nofed": workload.include_nofed,
        "states.source": "file",
        "states.path": str(states_path),
        "states.size": workload.states_size,
        "states.seed": seeds["states"],
        "diag.seed": seeds["diag"],
        # generate-states creates run.output_dir even when given --out
        "run.output_dir": str(states_path.parent),
    }
    if workload.diagnose:
        values["diag.pairs"] = DIAGNOSE_PAIRS
    return _render(values)


def digest(directory: Path) -> str:
    """sha256 over the metrics CSVs, summary, snapshots and diagnostics."""
    files = sorted(directory.glob("run-*.csv")) + sorted(directory.glob("snapshots/*"))
    files += [p for p in (directory / "summary.csv", directory / "diagnostics.csv")
              if p.exists()]
    sha = hashlib.sha256()
    for path in files:
        sha.update(str(path.relative_to(directory)).encode() + b"\0")
        sha.update(path.read_bytes())
    return sha.hexdigest()


def wire_bytes(workload: Workload) -> int:
    """Analytic bytes of one distillation round: K uploads plus one broadcast."""
    dim = 2 if workload.discrete else 1
    matrices = 1 if workload.discrete else 2
    return (workload.agents + 1) * (9 + 8 * workload.states_size * dim * matrices)


def check_training(directory: Path, workload: Workload, seeds: dict,
                   rounds: int) -> tuple[dict, list[str]]:
    """Check a training grid's CSVs; return derived counts and any problems.

    Env steps are the sum of agent-row episode returns: with one episode per
    round and cart-pole's alive bonus, a return equals the episode length.
    """
    problems = []
    steps = 0
    comm = 0
    modes = [("nofed", None)] * workload.include_nofed + [
        ("fedhpd", d) for d in workload.intervals]
    for mode, d in modes:
        for seed in seeds["run"]:
            run_id = "nofed" if mode == "nofed" else f"fedhpd-d{d}"
            path = directory / f"run-{run_id}-seed{seed}.csv"
            if not path.exists():
                problems.append(f"{path.name}: missing")
                continue
            with path.open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != rounds * (workload.agents + 1):
                problems.append(f"{path.name}: {len(rows)} rows, expected "
                                f"{rounds * (workload.agents + 1)}")
            for row in rows:
                for key in ("episode_return", "discounted_return", "kl_loss",
                            "policy_grad_norm", "kl_grad_norm", "bytes_communicated"):
                    if row[key] and not math.isfinite(float(row[key])):
                        problems.append(f"{path.name}: non-finite {key}")
                if row["agent_id"] != "system":
                    steps += int(float(row["episode_return"]))
                    continue
                fires = d is not None and (int(row["round"]) + 1) % d == 0
                expected = wire_bytes(workload) if fires else 0
                if int(row["bytes_communicated"]) != expected:
                    problems.append(f"{path.name} round {row['round']}: "
                                    f"{row['bytes_communicated']} B, expected {expected}")
                comm += int(row["bytes_communicated"])
    final100 = {}
    summary = directory / "summary.csv"
    if summary.exists():
        with summary.open(newline="") as fh:
            for row in csv.DictReader(fh):
                if row["seed"] == "pooled":
                    final100[(row["mode"], row["d"])] = float(row["final_window_mean"])
    else:
        problems.append("summary.csv: missing")
    return {"env_steps": steps, "comm_bytes": comm, "final100": final100}, problems


def check_diagnostics(directory: Path) -> list[str]:
    path = directory / "diagnostics.csv"
    if not path.exists():
        return ["diagnostics.csv: missing"]
    with path.open(newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["probe"].startswith("variance")]
    if not rows:
        return ["diagnostics.csv: no variance rows"]
    if not all(math.isfinite(float(row["identity_residual"])) for row in rows):
        return ["diagnostics.csv: non-finite identity_residual"]
    return []


def check_reference(final100: dict) -> list[str]:
    """The full grid at --seed 0 must reproduce the logged final-100 means."""
    return [f"final-100 {mode} d={d or '-'}: {final100.get((mode, d))} != {want}"
            for (mode, d), want in REFERENCE_FINAL100.items()
            if final100.get((mode, d)) is None or round(final100[(mode, d)], 1) != want]
