"""Command line driver for the experiment harness.

One subcommand per experiment mode plus ``transform`` for one-shot transform
application to a JSON signal. Experiment parameters come from an optional
JSON config file with individual flag overrides on top; the subcommand
always decides the mode. Exit codes: 0 success, 1 infeasible config or bad
input data, 2 I/O error. Under glibc, ``main`` first fixes the heap's mmap
and trim thresholds (see ``_keep_heap_pages``).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys

from .experiments import (
    ExperimentConfig,
    ExperimentMode,
    ProfileShape,
    _mode_token,
    config_from_mapping,
    emit_results,
    run_sweep,
)
from .signal import signal_from_json, signal_to_json
from .transforms import (
    dft2,
    gabor_col,
    gabor_col_inverse,
    gabor_row,
    gabor_row_inverse,
    idft2,
)

# each subcommand is its mode's artifact token with dashes
_MODE_FOR_COMMAND = {_mode_token(mode.value).replace("_", "-"): mode for mode in ExperimentMode}

# glibc's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD, at the values its dynamic rule ends at (see
# mallopt(3)): allocations below 32 MiB come from the heap, and up to 64 MiB of free heap top stays
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20

# each transform kind's (forward, inverse) pair
_TRANSFORMS = {
    "fourier2d": (dft2, idft2),
    "gabor-row": (gabor_row, gabor_row_inverse),
    "gabor-col": (gabor_col, gabor_col_inverse),
}


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    """Add the flags of an experiment subcommand; each one's ``dest`` is its config key."""
    sub.add_argument("--config", help="JSON config file; flags override its fields")
    sub.add_argument("--n", type=int, help="grid width (row length)")
    sub.add_argument("--t", type=int, help="grid height (number of rows)")
    sub.add_argument("--theta", type=float, help="per-position erasure probability")
    sub.add_argument("--e-max", type=int, dest="e_max_target", metavar="E_MAX",
                     help="target max row support")
    sub.add_argument("--trials", type=int,
                     help=f"Monte Carlo trial count (default {ExperimentConfig.trials})")
    sub.add_argument("--seed", type=int, dest="base_seed", metavar="SEED",
                     help=f"base seed (default {ExperimentConfig.base_seed})")
    sub.add_argument("--out", dest="output_path", metavar="OUT",
                     help="output directory (default '.')")
    sub.add_argument("--tol", type=float,
                     help=f"feasibility tolerance (default {ExperimentConfig.tol:g})")
    sub.add_argument("--sweep", help="comma-separated n values, e.g. 32,64,128")
    sub.add_argument("--profile-shape", dest="profile_shape",
                     choices=[shape.value for shape in ProfileShape],
                     help="signal family for generated trials")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gabor-recover",
        description="Monte Carlo experiments for recovery from erased row-transform data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "mmax-sweep": "estimate P(max per-row erasures < n/(2 e_max))",
        "mmin-sweep": "estimate P(min per-row erasures < n/(2 e_max))",
        "row-recovery": "row-wise recovery trials with support side information",
        "two-stage": "row then column recovery trials",
        "tail-bounds": "tabulate exact tails against the closed-form bound",
    }
    for name in _MODE_FOR_COMMAND:
        # a flag left out stays out of the namespace, so it overrides nothing
        _add_experiment_flags(sub.add_parser(name, help=helps[name],
                                             argument_default=argparse.SUPPRESS))

    tr = sub.add_parser("transform", help="apply one transform to a JSON signal")
    tr.add_argument("--input", required=True, help="path to a signal JSON file")
    tr.add_argument("--kind", required=True, choices=list(_TRANSFORMS))
    tr.add_argument("--inverse", action="store_true", help="apply the inverse transform")
    tr.add_argument("--out", help="output file (default: stdout)")
    return parser


def _cmd_experiment(args: argparse.Namespace) -> int:
    flags = dict(vars(args))
    mode = _MODE_FOR_COMMAND[flags.pop("command")]
    mapping = {}
    path = flags.pop("config", None)
    if path:
        try:
            with open(path) as fh:
                mapping = json.load(fh)
        except OSError as exc:
            raise OSError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(mapping, dict):
            raise ValueError(f"config {path} must hold a JSON object")
    if "sweep" in flags:
        try:
            flags["sweep"] = [int(v) for v in flags["sweep"].split(",") if v.strip()]
        except ValueError as exc:
            raise ValueError(f"--sweep takes comma-separated integers: {exc}") from exc
    config = config_from_mapping({**mapping, **flags, "mode": mode.value})
    out_dir = config.output_path or "."
    for summary, records in run_sweep(config):
        paths = emit_results(summary, records, out_dir)
        if "fraction_below" in summary:
            stat = (f"fraction_below={summary['fraction_below']:.6g} "
                    f"closed_form={summary['closed_form']:.6g}")
        elif "exact_rate" in summary:
            stat = (f"exact_rate={summary['exact_rate']:.6g} "
                    f"guarded={summary['guarded_exact']}/{summary['guarded_trials']}")
        else:
            stat = "table"
        files = ", ".join(str(p) for p in paths)
        print(f"{summary['mode']} n={summary['n']} t={summary['t']}: {stat} -> {files}")
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    try:
        with open(args.input) as fh:
            payload = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read signal {args.input}: {exc}") from exc
    signal = signal_from_json(payload)
    result = _TRANSFORMS[args.kind][args.inverse](signal)
    rendered = signal_to_json(result)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            raise OSError(f"cannot write {args.out}: {exc}") from exc
    else:
        print(rendered)
    return 0


def _keep_heap_pages() -> None:
    """Keep freed arrays in the heap, where the next trial chunk reuses their pages.

    With glibc's defaults a freed chunk-sized array at the heap's top goes back
    to the kernel, and the next chunk faults it in again page by page. A C
    library without ``mallopt``, or a platform whose process has none to
    open, is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, _MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
    mallopt(-1, _TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_heap_pages()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "transform":
            return _cmd_transform(args)
        return _cmd_experiment(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
