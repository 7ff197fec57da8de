"""Command-line pipeline: initialize, rewire, analyze, compare, run.

Every subcommand that draws random numbers (init, rewire, sweep, cost) is
seedable through --seed. init and rewire work on one layer of one
repetition, so they draw from derive_stream(seed, layer, rep) and also
take --layer/--rep; sweep draws from derive_stream(seed, 0, 0), and cost
derives every stream it uses from the seed. Training runs only through
`run`, whose manifest carries its own seed. So any single artifact (a
layer file, a sweep table, a training run) can be regenerated in
isolation. rewire restarts the layer's stream, so its file differs from
the `pa` layer that training builds on init's continued stream (its keys
repeat init's raw draws); its strength collapse is the same within noise.

Text results (analyze, sweep, compare, cost) go to stdout, which a shell
redirects to a file; WMAT matrices go through the --in and --out paths,
which may be pipes (init --out /dev/stdout | analyze --in /dev/stdin).
run writes its run directory.

Exit codes: 0 success, 1 usage error, 2 data error (a malformed or
unreadable file, including a corrupt .gz, a bad value, or an OS error
while reading or writing), 3 numeric failure (training diverged).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import __version__
from .initializers import METHODS, InitSpec, init
from .manifest import ExperimentManifest, _compare_run_dirs, run_manifest
from .matrix_io import load_matrix, save_matrix
from .rewiring import (
    PASS_MODES,
    RewireConfig,
    fit_loglog_slope,
    max_strength_scaling,
    pa_rewire,
    rewire_cost_probe,
    sweep_rows_to_csv,
)
from .rng import derive_stream
from .strength import SIDES, strength_stats
from .training import TrainingDivergedError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # options are spelled out: an abbreviation would let `cost --rep 1`
        # silently mean --reps 1
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _add_seed_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="global seed (default 0)")


def _add_stream_args(p: argparse.ArgumentParser) -> None:
    _add_seed_arg(p)
    p.add_argument("--layer", type=int, default=0, help="layer index for the stream (default 0)")
    p.add_argument("--rep", type=int, default=0, help="repetition index for the stream (default 0)")


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="strength-init", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="sample a weight matrix and write it as WMAT")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--rows", required=True, type=int)
    p.add_argument("--cols", required=True, type=int)
    p.add_argument("--gain", type=float, default=1.0)
    p.add_argument("--out", required=True)
    _add_stream_args(p)

    p = sub.add_parser("rewire", help="preferential-attachment rewiring of a WMAT file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--passes", choices=PASS_MODES, default="bidirectional")
    _add_stream_args(p)

    p = sub.add_parser("analyze", help="strength statistics of a WMAT file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--side", choices=SIDES, default="input")
    p.add_argument("--json", action="store_true", help="emit the stats as a JSON object")

    p = sub.add_parser("sweep", help="max-strength scaling table across layer sizes (CSV)")
    p.add_argument("--method", choices=METHODS, default="kaiming-uniform")
    p.add_argument("--sizes", type=_int_list, default=[64, 256, 1024, 4096])
    p.add_argument("--trials", type=int, default=100)
    _add_seed_arg(p)

    p = sub.add_parser("compare", help="statistical comparison of two run directories")
    p.add_argument("--baseline", required=True)
    p.add_argument("--treatment", required=True)
    p.add_argument("--format", choices=("md", "json"), default="md")

    p = sub.add_parser("cost", help="wall-time scaling probe of the rewiring pass")
    p.add_argument("--sizes", type=_int_list, default=[256, 512, 1024, 2048, 4096])
    p.add_argument("--reps", type=int, default=3)
    _add_seed_arg(p)

    p = sub.add_parser("run", help="execute an experiment manifest")
    p.add_argument("--manifest", required=True)

    return parser


def _cmd_init(args) -> int:
    stream = derive_stream(args.seed, args.layer, args.rep)
    w = init(InitSpec(args.method, args.rows, args.cols, gain=args.gain), stream)
    save_matrix(w, args.out)
    return EXIT_OK


def _cmd_rewire(args) -> int:
    w = load_matrix(args.infile)
    cfg = RewireConfig(rng=derive_stream(args.seed, args.layer, args.rep), passes=args.passes)
    save_matrix(pa_rewire(w, cfg), args.out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    stats = asdict(strength_stats(load_matrix(args.infile), args.side))
    if args.json:
        sys.stdout.write(json.dumps(stats, indent=2) + "\n")
    else:
        lines = [f"{k} = {v}" for k, v in stats.items()]
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    stream = derive_stream(args.seed, 0, 0)
    rows = max_strength_scaling(args.method, args.sizes, args.trials, stream)
    sys.stdout.write(sweep_rows_to_csv(rows))
    return EXIT_OK


def _cmd_compare(args) -> int:
    report = _compare_run_dirs(args.baseline, args.treatment)
    sys.stdout.write(report.to_markdown() if args.format == "md" else report.to_json())
    return EXIT_OK


def _cmd_cost(args) -> int:
    table = rewire_cost_probe(args.sizes, reps=args.reps, seed=args.seed)
    lines = ["n,seconds"] + [f"{n},{t:.6f}" for n, t in table]
    if len(table) >= 2:
        lines.append(f"# log-log slope: {fit_loglog_slope(table):.3f}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_run(args) -> int:
    return run_manifest(ExperimentManifest.load(args.manifest))


_COMMANDS = {
    "init": _cmd_init,
    "rewire": _cmd_rewire,
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "cost": _cmd_cost,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"strength-init: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except TrainingDivergedError as exc:
        print(f"strength-init: training diverged: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:
        print(f"strength-init: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
