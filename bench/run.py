#!/usr/bin/env python3
"""fedhpd benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload grid-cartpole4 --seed 0 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src. With
--trace 0 it times the workload's job (a `fedhpd train` grid or a `fedhpd
diagnose` run) in a closed loop, one job at a time, for --seconds and prints
the end-to-end metrics, each timed sample scaled to the reference speed of
calibrate.py's kernel. With --trace 1 it runs set-up and one job with every
layer wrapped (see tracing.py) and prints the per-layer metrics. Both modes
check the program's outputs. The last stdout line is the JSON result;
workloads.py and README.md describe the workloads.
"""

import os

# one BLAS/OpenMP thread in this process and every child it starts; default
# OpenBLAS threading swung a distillation-bound job's wall time by about 25%
# run to run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import (
    REFERENCE_ROUNDS,
    WORKLOADS,
    check_diagnostics,
    check_reference,
    check_training,
    config_text,
    derive_seeds,
    digest,
    setup_states_seed,
)
from calibrate import REFERENCE_S, kernel_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
UNTRACED_REPEATS = 3  # untraced jobs that give the tracing overhead its base
# states seeds the timed set-ups cycle through, each set up at least twice
SETUP_SEEDS = 4
CHILD_TIMEOUT_S = 150


def run_cli(argv: list[str]) -> tuple[int, float]:
    """One fedhpd command in this process; returns (exit code, wall seconds)."""
    from fedhpd import cli

    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a traceback is a failed job, not a benchmark crash
            traceback.print_exc()
            code = 1
        elapsed = time.perf_counter() - start
    return code, elapsed


def run_child(argv: list[str]) -> tuple[int, float]:
    """One fedhpd command in a fresh process, as a user runs it."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "fedhpd.cli", *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    return proc.returncode, elapsed


class Run:
    """One benchmark invocation: the workload's inputs, outputs and tallies."""

    def __init__(self, workload, seed: int, rounds: int):
        self.workload = workload
        self.seed = seed
        self.seeds = derive_seeds(seed, workload)
        self.rounds = rounds
        self.dir = WORK / f"{workload.name}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.states = self.dir / "states.txt"
        self.config = self.dir / "experiment.cfg"
        self.config.write_text(config_text(workload, self.seeds, rounds, self.states))
        self.out = self.dir / "job"
        self.snapshot_dir = self.dir / "snapshot"
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.summary: dict = {}

    def generate_argv(self, target: Path, k: int = 0) -> list[str]:
        """generate-states for the k-th set-up seed (see setup_states_seed)."""
        return ["generate-states", "--config", str(self.config), "--out", str(target),
                "--set", f"states.seed={setup_states_seed(self.seed, k)}"]

    def train_argv(self, out: Path, *extra: str) -> list[str]:
        return ["train", "--config", str(self.config), "--output-dir", str(out), *extra]

    def job_argv(self) -> list[str]:
        if not self.workload.diagnose:
            return self.train_argv(self.out)
        snapshot = (self.snapshot_dir / "snapshots" /
                    f"fedhpd-d{self.workload.intervals[0]}-seed{self.seeds['run'][0]}"
                    "-agent-1.fhpd")
        return ["diagnose", "--config", str(self.config), "--snapshot", str(snapshot),
                "--states", str(self.states), "--output-dir", str(self.out)]

    def job(self) -> float:
        """Run the workload's job once into a clean output directory."""
        shutil.rmtree(self.out, ignore_errors=True)
        code, seconds = run_cli(self.job_argv())
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.problems.append(f"{self.job_argv()[0]} exited with {code}")
        return seconds

    def check_setup(self, code: int, what: str) -> None:
        if code != 0:
            self.problems.append(f"{what} exited with {code}")

    def check_outputs(self, directory: Path) -> dict:
        """Check a finished job's outputs; returns the training counts."""
        if self.workload.diagnose:
            self.problems.extend(check_diagnostics(directory))
            return {}
        counts, problems = check_training(directory, self.workload, self.seeds, self.rounds)
        self.problems.extend(problems)
        if self.rounds == REFERENCE_ROUNDS and self.seed == 0 and \
                self.workload.name == "grid-cartpole4":
            self.problems.extend(check_reference(counts["final100"]))
        return counts

    def train_snapshot(self, runner) -> None:
        """Diagnose's input: a trained snapshot, made before any timing."""
        code, _ = runner(self.train_argv(self.snapshot_dir))
        self.check_setup(code, "snapshot training")
        self.problems.extend(
            check_training(self.snapshot_dir, self.workload, self.seeds, self.rounds)[1])


class Clock:
    """Times consecutive samples at the reference speed of calibrate.py's kernel.

    The kernel runs when the clock starts and after every sample, and each
    sample is scaled by REFERENCE_S over the mean of the kernel runs right
    before and right after it, so a slow spell of the machine scales the
    samples it covers.
    """

    def __init__(self):
        self.kernels = [kernel_seconds()]

    def time(self, sample) -> tuple[float, float]:
        """Run sample(), which returns its seconds; return them raw and scaled."""
        seconds = sample()
        self.kernels.append(kernel_seconds())
        return seconds, seconds * REFERENCE_S * 2 / (self.kernels[-2] + self.kernels[-1])


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"min {values[0]:.4f} s"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"min {min(values):.4f} s, q1 {q1:.4f} s, q3 {q3:.4f} s, max {max(values):.4f} s"


def measure(run: Run, seconds: float) -> dict:
    """End-to-end metrics, tracing off, at the reference speed (see Clock).

    Timed set-up processes alternate with the jobs over the whole measured
    window. Set-up i uses states seed index i % SETUP_SEEDS, so every run
    sets up the same state sets however many set-ups fit; the untimed set-up
    0 writes the job's state set, and a repeated index must write an
    identical file.
    """
    setup_files: list[Path] = []
    setup = {k: [] for k in range(SETUP_SEEDS)}  # scaled seconds per seed index
    setup_raw = []

    def set_up() -> float:
        i, k = len(setup_files), len(setup_files) % SETUP_SEEDS
        target = run.states if i == 0 else run.dir / f"states-{i}.txt"
        setup_files.append(target)
        code, elapsed = run_child(run.generate_argv(target, k))
        run.check_setup(code, "generate-states")
        return elapsed

    set_up()
    if run.workload.diagnose:
        run.train_snapshot(run_child)

    run.job()  # untimed warm-up: fills caches and fixes the reference digest
    reference = digest(run.out)
    counts = run.check_outputs(run.out)
    # the kernel's arrays are not the program's: take the peak before it runs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    samples, samples_raw = [], []
    clock = Clock()
    deadline = time.perf_counter() + seconds
    while True:
        raw, scaled = clock.time(run.job)
        samples.append(scaled)
        samples_raw.append(raw)
        if digest(run.out) != reference:
            run.problems.append("outputs differ between repetitions of the job")
        k = len(setup_files) % SETUP_SEEDS
        raw, scaled = clock.time(set_up)
        setup[k].append(scaled)
        setup_raw.append(raw)
        if min(map(len, setup.values())) >= 2 and time.perf_counter() + \
                statistics.median(samples_raw) + statistics.median(setup_raw) > deadline:
            break

    for i, target in enumerate(setup_files[SETUP_SEEDS:], SETUP_SEEDS):
        if target.read_bytes() != setup_files[i % SETUP_SEEDS].read_bytes():
            run.problems.append(f"generate-states at seed index {i % SETUP_SEEDS} "
                                "is not deterministic")

    if run.workload.pool_check:
        pooled = run.dir / "workers2"
        code, _ = run_child(run.train_argv(pooled, "--set", "run.workers=2"))
        run.check_setup(code, "train at run.workers=2")
        if code == 0 and digest(pooled) != reference:
            run.problems.append("run.workers=2 outputs differ from run.workers=1")

    wall = statistics.median(samples)
    setup_s = statistics.fmean(statistics.median(v) for v in setup.values())
    seeds = ", ".join(str(setup_states_seed(run.seed, k)) for k in range(SETUP_SEEDS))
    run.summary = {
        "wall_s samples": f"median of {len(samples)} scaled jobs; {spread(samples)}",
        "job seconds": " ".join(f"{t:.4f}" for t in samples_raw),
        "setup_s samples": f"mean over states seeds {seeds} of the median scaled "
                           f"generate-states process; {len(setup_raw)} processes, "
                           f"unscaled {spread(setup_raw)}",
        "kernel seconds": " ".join(f"{t:.4f}" for t in clock.kernels),
        "calibration kernel": f"median {statistics.median(clock.kernels):.4f} s against "
                              f"{REFERENCE_S} s reference; {spread(clock.kernels)}",
        "digest": reference,
    }
    if counts:
        run.summary["env steps per job"] = counts["env_steps"]
        run.summary["us per env step"] = f"{wall / counts['env_steps'] * 1e6:.3f}"
        run.summary["comm bytes per job"] = counts["comm_bytes"]
        run.summary["final-100 system return"] = " ".join(
            f"{mode}{d and ' d=' + d}={value:.4f}"
            for (mode, d), value in sorted(counts["final100"].items()))
    return {
        "wall_s": (wall, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def trace(run: Run) -> dict:
    """Per-layer metrics from one traced set-up and job."""
    from tracing import TIMED_SPANS, Tracer, layer_metrics

    tracer = Tracer()
    phases = {}

    def traced(label, argv):
        begin = len(tracer.spans)
        with tracer.installed():
            code, seconds = run_cli(argv)
        phases[label] = (begin, len(tracer.spans), seconds)
        return code

    run.check_setup(traced("setup", run.generate_argv(run.states)), "generate-states")
    train_phases = []
    if run.workload.diagnose:
        run.train_snapshot(lambda argv: (traced("snapshot", argv), 0.0))
        train_phases.append(("snapshot", run.snapshot_dir))

    run.job()  # warm-up, untraced
    untraced_s = statistics.median(run.job() for _ in range(UNTRACED_REPEATS))
    reference = digest(run.out)
    shutil.rmtree(run.out)
    code = traced("job", run.job_argv())
    run.attempted += 1
    if code != 0:
        run.failed += 1
        run.problems.append(f"traced {run.job_argv()[0]} exited with {code}")
    if digest(run.out) != reference:
        run.problems.append("tracing changed the job's outputs")
    counts = run.check_outputs(run.out)
    if counts:
        train_phases.append(("job", run.out))

    comm_bytes = 0
    for label, directory in train_phases:
        begin, end, _ = phases[label]
        phase_counts, _ = check_training(directory, run.workload, run.seeds, run.rounds)
        comm_bytes += phase_counts["comm_bytes"]
        traced_steps = tracer.count("env.step", begin, end)
        if traced_steps != phase_counts["env_steps"]:
            run.problems.append(f"{label}: {traced_steps} traced env.step calls but "
                                f"{phase_counts['env_steps']} steps in the CSVs")

    for span in TIMED_SPANS + run.workload.expected_spans:
        if tracer.count(span) == 0:
            run.problems.append(f"span {span} recorded no calls; a wrapper is missing")

    traced_wall = sum(seconds for _, _, seconds in phases.values())
    overhead = phases["job"][2] - untraced_s
    metrics, table = layer_metrics(tracer, traced_wall, overhead, comm_bytes)
    tracer.write(run.dir / "spans.npz")
    run.summary = {f"self {layer}": f"{seconds:.4f} s ({seconds / traced_wall:.1%})"
                   for layer, seconds in table}
    run.summary["traced wall"] = f"{traced_wall:.4f} s over {len(tracer.spans)} spans"
    run.summary["tracing overhead"] = (f"{overhead:.4f} s on a {untraced_s:.4f} s job "
                                       f"({overhead / untraced_s:.1%})")
    return metrics


def machine() -> str:
    import numpy as np

    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get(
        "blas", {"name": "unknown", "version": ""})
    threads = " ".join(f"{var}={os.environ[var]}" for var in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return (f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas['name']} {blas['version']} {threads}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int,
                        help=f"override the job's rounds ({REFERENCE_ROUNDS} with --seed 0 "
                             "on grid-cartpole4 checks the logged final-100 means)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0 or (args.rounds is not None and args.rounds < 20):
        parser.error("--seed must be >= 0, --seconds > 0 and --rounds >= 20")
    if not (SRC / "fedhpd" / "__init__.py").is_file():
        print(f"fedhpd sources not found under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed, args.rounds or workload.rounds)
    print(f"machine: {machine()}")
    print(f"workload: {workload.name} seed={args.seed} run.seeds={run.seeds['run']} "
          f"states.seed={run.seeds['states']} diag.seed={run.seeds['diag']} "
          f"rounds={run.rounds} run.workers=1, closed loop, one job at a time")
    metrics = trace(run) if args.trace else measure(run, args.seconds)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for key, value in run.summary.items():
        print(f"{key}: {value}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print("checks: " + ("all passed" if not run.problems else f"{len(run.problems)} failed"))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
