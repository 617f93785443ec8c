"""Command-line entry points.

    fedhpd generate-states --config exp.cfg [--out states.txt]
    fedhpd train          --config exp.cfg [--set key=value ...]
    fedhpd sweep          --config exp.cfg --d 5,10,20 [--seeds 20,25]
    fedhpd diagnose       --config exp.cfg --snapshot net.fhpd [--states f]
                          [--consensus batch.bin]

Exit codes: 0 success, 2 configuration error (including running out of
memory or a worker process ending abruptly), 3 numeric error (including
failed sweep cells), 4 file I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .diagnostics import chebyshev_samples, gradient_variance, lipschitz_probe
from .env import EnvSpec, load_state_set
from .errors import ArtifactIOError, ConfigurationError, NumericError
from .experiment import (
    SIZE_KEYS,
    ExperimentConfig,
    csv_text,
    load_experiment_config,
    train_experiment,
    write_file,
    write_states,
)
from .nn_core import glorot_init
from .policy import DistributionBatch, load_policy, make_policy

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

DIAGNOSTICS_COLUMNS = [
    "probe", "round_index", "n_samples",
    "var_j_trace", "var_j_mean", "var_kl_trace", "cov_trace",
    "var_jprime_direct", "var_jprime_reconstructed", "var_jprime_predicted",
    "identity_residual", "cos_angle", "grad_norm_ratio",
    "condition_holds", "condition_vacuous",
    "chebyshev_n_j", "chebyshev_n_jprime",
    "n_pairs", "radius", "lipschitz_estimate",
    "grad_log_prob_bound", "hessian_bound_estimate", "theory_bound",
]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedhpd",
        description="Federated policy distillation across heterogeneous agents",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config file (dotted keys)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config key")
        p.add_argument("--output-dir", help="override run.output_dir")

    p_gen = sub.add_parser("generate-states", help="write a public state-set file")
    common(p_gen)
    p_gen.add_argument("--out", help="target path (default: <output_dir>/states.txt)")

    p_train = sub.add_parser("train", help="run the configured training grid")
    common(p_train)

    p_sweep = sub.add_parser("sweep", help="train over an interval/seed grid")
    common(p_sweep)
    p_sweep.add_argument("--d", help="comma-separated distillation intervals")
    p_sweep.add_argument("--seeds", help="comma-separated seeds")

    p_diag = sub.add_parser("diagnose", help="variance and smoothness probes")
    common(p_diag)
    p_diag.add_argument("--snapshot", required=True, help="parameter snapshot file")
    p_diag.add_argument("--states", help="state-set file (default: states.path)")
    p_diag.add_argument("--consensus",
                        help="consensus batch file (default: self-consensus)")
    return parser


def _load_config(args) -> ExperimentConfig:
    overrides = list(args.overrides)
    if args.output_dir:
        overrides.append(f'run.output_dir = "{args.output_dir}"')
    return load_experiment_config(args.config, overrides)


def cmd_generate_states(args) -> int:
    config = _load_config(args)
    target = Path(args.out or Path(config["run.output_dir"]) / "states.txt")
    states = write_states(config, target)
    print(f"wrote {states.size} states to {target}")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args)
    outcome = train_experiment(config, config["run.output_dir"])
    for path in outcome["metrics_files"]:
        print(f"wrote {path}")
    print(f"wrote {outcome['summary_file']}")
    if outcome["failures"]:
        for line in outcome["failures"]:
            print(f"cell failed: {line}", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


def cmd_sweep(args) -> int:
    if args.d:
        args.overrides.append(f"fed.d = {args.d}")
    if args.seeds:
        args.overrides.append(f"run.seeds = {args.seeds}")
    return cmd_train(args)


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported by NumericError
def cmd_diagnose(args) -> int:
    config = _load_config(args)
    spec = EnvSpec(config["env.kind"], config["env.max_steps"])
    policy = load_policy(args.snapshot, spec)

    states_path = args.states or config["states.path"]
    if not states_path:
        raise ConfigurationError("diagnose needs --states or states.path")
    states = load_state_set(states_path).states

    forward = policy.net.forward(states)  # serves the self-consensus and the KL gradient
    if args.consensus:
        path = args.consensus
        try:
            consensus = DistributionBatch.from_bytes(Path(path).read_bytes())
        except OSError as exc:
            raise ArtifactIOError(f"cannot read consensus {path}: {exc}") from exc
        except ArtifactIOError as exc:
            raise ArtifactIOError(f"consensus {path}: {exc}") from exc
        if (consensus.kind, consensus.n_states, consensus.dim) != (
                policy.kind, states.shape[0], policy.net.output_dim):
            raise ConfigurationError(
                f"consensus {path}: a {consensus.kind} batch of {consensus.n_states} states x "
                f"{consensus.dim} does not fit the {policy.kind} snapshot's "
                f"{policy.net.output_dim} outputs on {states.shape[0]} states")
    else:
        consensus = policy.extract_batch(states, forward)
    _, grad_kl = policy.kl_batch_loss(states, consensus, forward)

    epsilon, delta = float(config["diag.epsilon"]), float(config["diag.delta"])

    def sample_count(variance: float) -> int:
        try:
            return chebyshev_samples(variance, epsilon, delta)
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"diag.epsilon = {epsilon!r}, diag.delta = {delta!r}: {exc}") from exc

    rows = []
    for rep in range(config["diag.repeats"]):
        rng = np.random.default_rng([config["diag.seed"], rep])  # PCG64 on that SeedSequence
        report = gradient_variance(policy, spec, grad_kl, config["diag.samples"], rng,
                                   float(config["run.gamma"]), config["run.reward_to_go"])
        rows.append({
            "probe": f"variance-{rep}", "round_index": rep, **vars(report),
            "identity_residual": report.identity_residual,
            "chebyshev_n_j": sample_count(report.var_j_trace),
            "chebyshev_n_jprime": sample_count(report.var_jprime_direct),
        })

    def factory(rng):
        return make_policy(spec, glorot_init(policy.net.layers, rng))

    probe_rng = np.random.default_rng([config["diag.seed"], 0xF00D])
    probe = lipschitz_probe(factory, states, consensus, n_pairs=config["diag.pairs"],
                            radius=float(config["diag.radius"]), rng=probe_rng)
    rows.append({"probe": "smoothness", **vars(probe)})

    target = Path(config["run.output_dir"]) / "diagnostics.csv"
    write_file(target, csv_text(DIAGNOSTICS_COLUMNS, rows))
    print(f"wrote {target}")
    return 0


_COMMANDS = {
    "generate-states": cmd_generate_states,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "diagnose": cmd_diagnose,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ArtifactIOError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print(f"configuration error: out of memory; lower {', '.join(SIZE_KEYS)}",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
