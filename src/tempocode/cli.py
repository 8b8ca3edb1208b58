"""Command-line entry point.

Subcommands:

* ``discriminate``   -- traversal discrimination experiment
* ``noise-sweep``    -- discrimination across the configured noise levels
* ``lambda-converge``-- memory-coefficient convergence experiment
* ``encode``         -- debug: print the spike packet for a feature vector
* ``capacity``       -- rank-order code capacity in bits

Experiment commands accept ``--config``, ``--seed``, ``--out``, ``--format``
and ``--plot``; they write report.txt / report.csv / report.json under
``<out>/<experiment>/<timestamp>/`` (plus gnuplot-ready ``curves/*.dat``
with ``--plot``) and print the chosen format to stdout. The seed comes from
:meth:`~tempocode.config.Config.resolved_seed`, the library's own rule:
``--seed``, then the config file, then the TEMPOCODE_SEED environment
variable, then the built-in default, each an integer in [0, 2**64). The
``encode`` flags default to :class:`~tempocode.encoding.EncoderParams`.
Exit codes: 0 success, 2 config or usage error, 1 runtime failure. The
config, the seed and the objects file named by ``world.objects`` are all
validated before a run starts, so any error raised during the run is a
runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .config import Config, ConfigError, load_config
from .encoding import EncoderParams, code_capacity_bits, encode
from .experiments import (
    DiscriminationReport,
    LambdaReport,
    NoiseSweepReport,
    _resolve_objects,
    run_discrimination,
    run_lambda_convergence,
    run_noise_sweep,
)
from .world import SyntheticObject, load_objects


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tempocode", description="Rank-order temporal coding experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_experiment(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON config file (defaults used when omitted)")
        p.add_argument("--seed", type=int, metavar="U64", help="master seed (overrides config and environment)")
        p.add_argument("--out", metavar="DIR", default="out", help="output root directory (default: out)")
        p.add_argument("--format", choices=("text", "csv", "json"), default="text", help="stdout format")
        p.add_argument("--plot", action="store_true", help="also write gnuplot data files under curves/")
        return p

    add_experiment("discriminate", "run the traversal discrimination experiment")
    add_experiment("noise-sweep", "run the discrimination task across noise levels")
    add_experiment("lambda-converge", "run the memory-coefficient convergence experiment")

    enc = sub.add_parser("encode", help="print the spike packet for a feature vector")
    enc.add_argument("--features", required=True, metavar="a,b,c", help="comma-separated activations")
    defaults = EncoderParams()
    enc.add_argument("--tau-base", type=float, default=defaults.tau_base, metavar="S",
                     help="packet time span in seconds")
    enc.add_argument("--threshold", type=float, default=defaults.sparsity_threshold, metavar="T",
                     help="sparsity threshold")

    cap = sub.add_parser("capacity", help="rank-order code capacity in bits")
    cap.add_argument("--n", type=int, required=True, metavar="N", help="number of active neurons")
    cap.add_argument("--k", type=int, metavar="K", help="also print unordered capacity of K active out of N")

    return parser


def _unique_dir(root: Path) -> Path:
    candidate = root
    suffix = 0
    while candidate.exists():
        suffix += 1
        candidate = root.with_name(f"{root.name}-{suffix}")
    candidate.mkdir(parents=True)
    return candidate


def _write_curves(report, curves_dir: Path) -> None:
    curves_dir.mkdir(parents=True, exist_ok=True)

    def write(name: str, header: str, rows) -> None:
        lines = [f"# {header}"] + [f"{x!r} {y!r}" for x, y in rows]
        (curves_dir / name).write_text("\n".join(lines) + "\n")

    if isinstance(report, DiscriminationReport):
        write("dense_accuracy.dat", "object_index dense_accuracy",
              [(i, r.dense_acc) for i, r in enumerate(report.per_object)])
        write("temporal_accuracy.dat", "object_index temporal_accuracy",
              [(i, r.temporal_acc) for i, r in enumerate(report.per_object)])
    elif isinstance(report, NoiseSweepReport):
        write("dense_accuracy.dat", "sigma dense_accuracy",
              [(row.sigma, row.dense_acc) for row in report.rows])
        write("temporal_accuracy.dat", "sigma temporal_accuracy",
              [(row.sigma, row.temporal_acc) for row in report.rows])
        write("gap_pp.dat", "sigma gap_percentage_points",
              [(row.sigma, row.gap_pp) for row in report.rows])
    elif isinstance(report, LambdaReport):
        for name in report.object_names:
            write(f"lambda_{name}.dat", "step lambda",
                  list(enumerate(report.trajectories[name], start=1)))


def _config_objects(config: Config, command: str) -> list[SyntheticObject] | None:
    """The objects named by ``world.objects``, loaded before any run starts.

    A discrimination command also checks them as its run will, so a file of
    one object is a config error there; ``lambda-converge`` reads no objects.
    """
    if config.world.objects is None:
        return None
    try:
        if command == "lambda-converge":
            return load_objects(config.world.objects)
        return _resolve_objects(config, None)
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"world.objects: {exc}") from exc


def _run_experiment(command: str, args: argparse.Namespace) -> int:
    config = load_config(args.config)
    seed = config.resolved_seed(args.seed)
    objects = _config_objects(config, command)
    if command == "discriminate":
        report = run_discrimination(config, seed=seed, objects=objects)
    elif command == "noise-sweep":
        report = run_noise_sweep(config, seed=seed, objects=objects)
    else:
        report = run_lambda_convergence(config, seed=seed)

    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    outdir = _unique_dir(Path(args.out) / command / stamp)
    rendered = {"text": report.to_text(), "csv": report.to_csv(), "json": report.to_json()}
    for fmt, suffix in (("text", "txt"), ("csv", "csv"), ("json", "json")):
        (outdir / f"report.{suffix}").write_text(rendered[fmt])
    if args.plot:
        _write_curves(report, outdir / "curves")

    sys.stdout.write(rendered[args.format])
    print(f"reports written to {outdir}", file=sys.stderr)
    return 0


def _run_encode(args: argparse.Namespace) -> int:
    try:
        values = [float(part) for part in args.features.split(",")]
    except ValueError:
        raise ConfigError(f"--features must be comma-separated numbers, got {args.features!r}") from None
    try:
        params = EncoderParams(tau_base=args.tau_base, sparsity_threshold=args.threshold)
        packet = encode(values, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    ordered = {str(nid): round(t, 6) for nid, t in packet.by_time()}
    print(json.dumps(ordered))
    return 0


def _run_capacity(args: argparse.Namespace) -> int:
    # Both figures are computed before either is printed, so a failed run prints nothing.
    try:
        lines = [f"ordered: {code_capacity_bits(args.n, 'ordered'):.3f} bits"]
        if args.k is not None:
            lines.append(f"unordered: {code_capacity_bits(args.k, 'unordered', n_total=args.n):.3f} bits")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    print("\n".join(lines))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        if args.command in ("discriminate", "noise-sweep", "lambda-converge"):
            return _run_experiment(args.command, args)
        if args.command == "encode":
            return _run_encode(args)
        return _run_capacity(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps failures to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
