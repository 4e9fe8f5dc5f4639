"""Monte Carlo experiment harness.

Each experiment runs seeded trials of the pipeline: draw an erasure pattern,
then either record its statistics (the sweep modes, which draw no signal)
or draw a structured random signal, push its row transform through the
erasure channel, run a recovery and compare against ground truth.
Summaries carry empirical frequencies with Wilson intervals next to the
matching closed forms, and trial records serialize to CSV for external
tooling. Identical configs produce byte-identical artifacts; per-trial seeds
derive from the base seed so any single trial can be re-run in isolation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .channel import _sample_masks, _streams
from .probbounds import (
    binom_tail_upper,
    lemma_tail_bound,
    prob_mmax_below,
    prob_mmin_below,
)
from .recovery import _POLISH_ENTRIES, DEFAULT_FEAS_TOL, _recover_many, ds_condition
from .signal import GridDims, Signal2D, _active, _int_at_least, _strict_float, _strict_int
from .transforms import _dft

__all__ = [
    "ExperimentMode",
    "ProfileShape",
    "ExperimentConfig",
    "TrialRecord",
    "TRIAL_CSV_HEADER",
    "config_from_mapping",
    "generate_test_signal",
    "run_experiment",
    "run_sweep",
    "emit_results",
    "wilson_interval",
]

# a trial counts as exact when the relative l2 error against ground truth
# is below this; separate from the runtime feasibility tolerance
EXACT_REL_TOL = 1e-6

# a chunk of trials holds as many complex grid entries as the engine polishes in one call
# (16384, 256 KiB), or 4 times as many entries of 1-byte sweep masks (64 KiB)
_CHUNK_ENTRIES = _POLISH_ENTRIES

WILSON_Z_95 = 1.959963984540054
WILSON_Z_99 = 2.5758293035489004


class ExperimentMode(Enum):
    MmaxSweep = "MmaxSweep"
    MminSweep = "MminSweep"
    RowRecovery = "RowRecovery"
    TwoStage = "TwoStage"
    TailBounds = "TailBounds"


class ProfileShape(Enum):
    UniformRows = "UniformRows"
    SkewedRows = "SkewedRows"


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment point, and the one place its fields and defaults are written.

    The config file's keys and the CLI flags' destinations are these field
    names, with ``n`` and ``t`` in place of ``dims``.
    """

    dims: GridDims
    theta: float
    e_max_target: int
    mode: ExperimentMode
    trials: int = 1
    base_seed: int = 0
    profile_shape: ProfileShape = ProfileShape.UniformRows
    sweep: tuple = ()
    tol: float = DEFAULT_FEAS_TOL
    output_path: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.dims, GridDims):
            raise ValueError("dims must be a GridDims")
        for name in ("theta", "tol"):
            object.__setattr__(self, name, _strict_float(getattr(self, name), name))
        for name in ("trials", "base_seed", "e_max_target"):
            object.__setattr__(self, name, _strict_int(getattr(self, name), name))
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be non-negative, got {self.base_seed}")
        if not (1 <= self.e_max_target <= self.dims.n):
            raise ValueError(
                f"e_max_target must lie in [1, n={self.dims.n}], got {self.e_max_target}"
            )
        if not (0.0 < self.tol < math.inf):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not isinstance(self.mode, ExperimentMode):
            raise ValueError(f"mode must be an ExperimentMode, got {self.mode!r}")
        if not isinstance(self.profile_shape, ProfileShape):
            raise ValueError(f"profile_shape must be a ProfileShape, got {self.profile_shape!r}")
        if not isinstance(self.output_path, (str, os.PathLike, type(None))):
            raise ValueError(f"output_path must be a path or None, got {self.output_path!r}")
        # every trial mode checks the shape, sweeps too, though they draw no signal
        if (self.profile_shape is ProfileShape.SkewedRows
                and self.mode is not ExperimentMode.TailBounds):
            _skewed_levels(self.dims.t, self.e_max_target)
        if not isinstance(self.sweep, (list, tuple)):
            raise ValueError(f"sweep must be a list of widths, got {self.sweep!r}")
        sweep = tuple(_strict_int(v, "sweep value") for v in self.sweep)
        if any(b <= a for a, b in zip(sweep, sweep[1:])):
            raise ValueError("sweep values must be strictly increasing")
        if any(v < 1 for v in sweep):
            raise ValueError("sweep values must be positive")
        object.__setattr__(self, "sweep", sweep)


class TrialRecord(NamedTuple):
    """One trial, and one row of the trial CSV in field order."""

    seed: int
    m_max: int
    m_min: int
    rows_recovered: int
    exact_recovery: bool
    residual: float


TRIAL_CSV_HEADER = ",".join(TrialRecord._fields)


def config_from_mapping(data: dict) -> ExperimentConfig:
    """Build a config from a plain mapping (the JSON config file format).

    A key left out takes the field's default, as does an ``output_path`` of
    ``null``. A missing required key, a key that names no field, a value of the
    wrong type or a non-integral number in an integer field is a ValueError.
    Number fields take JSON numbers only, never a bool, string or null, and
    ``sweep`` takes a list.
    """
    # ExperimentConfig reads every other field by name; GridDims takes no integral float
    optional = ("trials", "base_seed", "sweep", "tol", "output_path")
    if isinstance(data, dict) and (unknown := data.keys() - {
            "n", "t", "theta", "e_max_target", "mode", "profile_shape", *optional}):
        raise ValueError(f"config has unknown fields {sorted(map(str, unknown))}")
    try:
        return ExperimentConfig(
            dims=GridDims(n=_strict_int(data["n"], "n"), t=_strict_int(data["t"], "t")),
            theta=data["theta"], e_max_target=data["e_max_target"],
            mode=ExperimentMode(data["mode"]),
            profile_shape=ProfileShape(data.get("profile_shape", ExperimentConfig.profile_shape)),
            **{key: data[key] for key in optional if key in data},
        )
    except KeyError as exc:
        raise ValueError(f"config is missing required field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed config: {exc}") from exc


# ----------------------------------------------------------------------------
# signal generation
# ----------------------------------------------------------------------------

def _skewed_levels(t: int, e_max_target: int) -> int:
    """``log2(t)``, the dyadic levels of a SkewedRows signal; ValueError if it cannot be drawn."""
    levels = t.bit_length() - 1
    if t < 4 or (1 << levels) != t:
        raise ValueError(f"SkewedRows needs t to be a power of two >= 4, got t={t}")
    if e_max_target < levels:
        raise ValueError(
            f"SkewedRows needs e_max_target >= log2(t)={levels}, got {e_max_target}"
        )
    return levels


def _test_signals(dims: GridDims, e_max_target: int, rngs, count: int,
                  profile_shape: ProfileShape) -> np.ndarray:
    """The signals the next ``count`` streams of ``rngs`` draw, stacked ``(count, t, n)``.

    A UniformRows grid reads its stream through ``random()``; a SkewedRows grid reads its
    stream's raw PCG64 words by the package's own rule (:func:`_skewed_draws`), with no
    Generator method involved."""
    n, t = dims.n, dims.t
    if _int_at_least(e_max_target, "e_max_target") > n:
        raise ValueError(f"e_max_target must lie in [1, n={n}], got {e_max_target}")
    vals = np.zeros((count, t, n), dtype=np.complex128)
    # grids first in each zip, so that it takes no stream past the last
    if profile_shape is ProfileShape.UniformRows:
        for grid, rng in zip(vals, rngs):
            order = np.argsort(rng.random((t, n)), axis=1)[:, :e_max_target]
            phases = np.exp(2j * np.pi * rng.random((t, e_max_target)))
            np.put_along_axis(grid, order, phases, axis=1)
        return vals
    if profile_shape is not ProfileShape.SkewedRows:
        raise ValueError(f"unknown profile shape {profile_shape!r}")

    # one column per dyadic level first, extras rotate from the largest coset down
    levels = np.sort(np.arange(e_max_target) % _skewed_levels(t, e_max_target)) + 1
    cols, dense_rows, freq, phase = _skewed_draws(rngs, count, n, t, e_max_target)
    amp = np.exp(2j * np.pi * phase)
    pair = np.exp(2j * np.pi * (phase - dense_rows[:, None] / (1 << levels)))
    # each column: two waves down the time axis, t >> level frequencies apart
    waves = np.exp(2j * np.pi * np.arange(t)[:, None] * np.arange(t) / t)  # row f: frequency f
    columns = amp[..., None] * waves[freq] + pair[..., None] * waves[(freq + (t >> levels)) % t]
    np.put_along_axis(vals, cols[:, None, :], columns.transpose(0, 2, 1), axis=2)
    return vals


def _skewed_draws(rngs, count: int, n: int, t: int, e: int):
    """What the next ``count`` streams of ``rngs``, each at its start, draw for a SkewedRows
    signal, as the arrays ``(cols, dense_rows, freq, phase)``: an ordered ``e``-subset of the
    ``n`` columns, one row and ``e`` frequencies in ``[0, t)``, and ``e`` phases in ``[0, 1)``.

    A stream's draws are its first ``n + 1 + 2e`` raw PCG64 words ``w``, read once. The
    columns are ``argsort(w[:n])[:e]``, a uniform ordered subset (a tie among 64-bit words
    has probability below ``n**2 / 2**65``). The dense row is ``w[n]`` and the frequencies
    ``w[n + 1 : n + 1 + e]``, each shifted down to its top ``log2(t)`` bits, exactly uniform
    as ``t`` is a power of two. The phases are ``(w >> 11) * 2**-53`` of the last ``e``
    words, the rule numpy's ``random()`` applies to a word."""
    words = np.empty((count, n + 1 + 2 * e), dtype=np.uint64)
    for row, rng in zip(words, rngs):
        row[:] = rng.bit_generator.random_raw(len(row))
    ints = (words[:, n:n + 1 + e] >> np.uint64(64 - (t.bit_length() - 1))).astype(np.intp)
    phase = (words[:, n + 1 + e:] >> np.uint64(11)) * 2.0 ** -53
    return np.argsort(words[:, :n], axis=1)[:, :e], ints[:, 0], ints[:, 1:], phase


def generate_test_signal(dims: GridDims, e_max_target: int, seed: int,
                         profile_shape: ProfileShape = ProfileShape.UniformRows) -> Signal2D:
    """Draw a structured random signal with a prescribed max row support.

    ``UniformRows``: every row gets exactly ``e_max_target`` distinct uniform
    positions holding unit-modulus random-phase values.

    ``SkewedRows``: a mixed-support signal whose column transforms are all
    exactly 2-sparse. It lives on ``e_max_target`` random columns; each
    column is a sum of two complex exponentials down the time axis, phased to
    vanish on one dyadic coset of row indices. The cosets tile everything
    except one shared row, so that row sees every column (support
    ``e_max_target``) while each remaining row loses at least one column
    (support strictly smaller). Requires the number of rows to be a power of
    two, at least 4, with ``log2(t) <= e_max_target <= n``. Its columns, dense
    row, frequencies and phases come from the stream's raw PCG64 words by the
    package's own rule, not by numpy's Generator methods.

    ``seed`` is an int >= 0, opened as ``np.random.default_rng(seed)``. This is
    the one-seed case of the stack the harness draws.
    """
    rngs = [np.random.default_rng(_int_at_least(seed, "seed", 0))]
    return Signal2D(dims=dims, values=_test_signals(dims, e_max_target, rngs, 1, profile_shape)[0])


# ----------------------------------------------------------------------------
# trials
# ----------------------------------------------------------------------------

def _run_trials(config: ExperimentConfig, seeds: range, mask_rngs, signal_rngs) -> list:
    """The records of the trials of these seeds, in seed order, their grids solved together."""
    masks = _sample_masks(config.dims, config.theta, mask_rngs, len(seeds))
    counts = masks.sum(axis=2)
    # the sweep modes recover nothing: no rows, no exact trial, a zero residual
    rows, exact, residual = [0] * len(seeds), [False] * len(seeds), [0.0] * len(seeds)
    if config.mode not in (ExperimentMode.MmaxSweep, ExperimentMode.MminSweep):
        truth = _test_signals(config.dims, config.e_max_target, signal_rngs, len(seeds),
                              config.profile_shape)
        b = np.where(masks, 0.0 + 0.0j, _dft(truth, axis=2))
        if config.mode is ExperimentMode.RowRecovery:
            out, ok, res, *_ = _recover_many(b, masks, _active(truth, None).sum(axis=2), None,
                                             config.tol)
        else:
            col_maxes = _active(_dft(truth, axis=1), None).sum(axis=1).max(axis=1)
            out, ok, res, *_ = _recover_many(b, masks, None, col_maxes.tolist(), config.tol)
        out -= truth  # each trial's l2 error and truth norm, with no chunk-sized temporary
        err, norm = (np.sqrt(np.einsum("gi,gi->g", v, v))
                     for v in (a.reshape(len(seeds), -1).view(float) for a in (out, truth)))
        rows, residual = ok.sum(axis=1).tolist(), res.tolist()
        exact = (ok.all(axis=1) & ((err < EXACT_REL_TOL * norm) | (norm == 0))).tolist()
    return list(map(TrialRecord, seeds, counts.max(1).tolist(), counts.min(1).tolist(), rows,
                    exact, residual))


# unused in the package, but perfbench reads it on every run (ROADMAP's [benchmark] item)
def _worker_count(trials: int) -> int:
    """Worker processes for ``trials`` trials: at most one per CPU this process may run on."""
    return min(trials, len(os.sched_getaffinity(0)))


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z_95):
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not (0 <= successes <= trials):
        raise ValueError("successes must lie in [0, trials]")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def _tail_table_row(config: ExperimentConfig) -> dict:
    n, t = config.dims.n, config.dims.t
    theta, e_max = config.theta, config.e_max_target
    c = n / (2 * e_max)
    k = 1.0 / (2 * e_max)
    row = {
        "n": n,
        "t": t,
        "theta": theta,
        "e_max": e_max,
        "c": c,
        "p_mmax_below": prob_mmax_below(n, t, theta, c),
        "p_mmin_below": prob_mmin_below(n, t, theta, c),
        "exact_tail": binom_tail_upper(n, theta, c),
        "lemma_bound": None,
        "valid": False,
    }
    if 0.0 < theta < k < 1.0:
        bound = lemma_tail_bound(n, theta, k)
        row["lemma_bound"] = bound.lemma_bound if bound.valid else None
        row["valid"] = bound.valid
    return row


def run_experiment(config: ExperimentConfig):
    """Run one experiment point; returns ``(summary, records)``.

    The summary is a plain dict: the config echo, empirical frequencies with
    Wilson 95% intervals, the matching closed forms, and wall-clock stats
    (the one field :func:`emit_results` strips so artifacts stay
    reproducible). Records are per-trial, ordered by seed.
    """
    start = time.perf_counter()
    n, t = config.dims.n, config.dims.t
    summary = {
        "mode": config.mode.value,
        "n": n,
        "t": t,
        "theta": config.theta,
        "e_max_target": config.e_max_target,
        "trials": config.trials,
        "base_seed": config.base_seed,
        "profile_shape": config.profile_shape.value,
        "tol": config.tol,
    }

    if config.mode is ExperimentMode.TailBounds:
        summary["tail_table"] = [_tail_table_row(config)]
        summary["wall_clock"] = {"elapsed_s": time.perf_counter() - start}
        return summary, []

    sweep = config.mode in (ExperimentMode.MmaxSweep, ExperimentMode.MminSweep)
    step = max(1, _CHUNK_ENTRIES * (4 if sweep else 1) // config.dims.size)
    # trial s draws its pattern at seed 2s + 1 and its signal at 2s, each stream opened once
    seeds = range(config.base_seed, config.base_seed + config.trials)
    mask_rngs = _streams(range(2 * seeds.start + 1, 2 * seeds.stop, 2))
    signal_rngs = _streams(range(2 * seeds.start, 2 * seeds.stop, 2))
    records = [record for lo in range(0, config.trials, step) for record in _run_trials(
        config, seeds[lo:lo + step], mask_rngs, signal_rngs)]

    # the row certificate 2 * e_max * m < n, for each trial's worst and best row
    below = ds_condition(config.e_max_target, np.array([(r.m_max, r.m_min) for r in records]), n)
    mmax_below, mmin_below = (int(count) for count in below.sum(axis=0))
    c = n / (2 * config.e_max_target)
    summary["threshold_c"] = c
    summary["mmax_below_count"] = mmax_below
    summary["mmin_below_count"] = mmin_below

    if sweep:
        successes = mmax_below if config.mode is ExperimentMode.MmaxSweep else mmin_below
        summary["fraction_below"] = successes / config.trials
    else:
        exact_flags = np.array([r.exact_recovery for r in records])
        successes = int(exact_flags.sum())
        summary["exact_count"] = successes
        summary["exact_rate"] = successes / config.trials
        summary["guarded_trials"] = mmax_below
        summary["guarded_exact"] = int((exact_flags & below[:, 0]).sum())
    summary["wilson_95"] = wilson_interval(successes, config.trials)
    closed_form = prob_mmin_below if config.mode is ExperimentMode.MminSweep else prob_mmax_below
    summary["closed_form"] = closed_form(n, t, config.theta, c)

    summary["wall_clock"] = {"elapsed_s": time.perf_counter() - start}
    return summary, records


def run_sweep(config: ExperimentConfig):
    """Run the config at every swept grid width; returns a list of points."""
    widths = config.sweep if config.sweep else (config.dims.n,)
    out = []
    for width in widths:
        point = dataclasses.replace(config, dims=GridDims(n=int(width), t=config.dims.t),
                                    sweep=())
        out.append(run_experiment(point))
    return out


# ----------------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------------

def _mode_token(mode_value: str) -> str:
    out = []
    for i, ch in enumerate(mode_value):
        if ch.isupper() and i > 0:
            out.append("_")
        out.append(ch.lower())
    return "".join(out)


def _cell(v) -> str:
    """One CSV field: ints as ``str``, floats at 17 significant digits, bools as
    ``true``/``false`` and ``None`` empty."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return format(v, ".17g") if isinstance(v, float) else str(v)


# a TrialRecord's CSV row as _cell writes its fields, in one format string (pass the flag as
# true/false); repr would write a zero residual as 0.0 where _cell writes 0
_TRIAL_ROW = "{},{},{},{},{},{:.17g}\n"


def _write_csv(path: Path, header: str, lines) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def emit_results(summary: dict, records, out_dir) -> list:
    """Write the summary JSON and per-trial CSV; returns the written paths.

    Artifacts are deterministic: records are ordered by seed, floats use a
    fixed 17-significant-digit format, and wall-clock stats are dropped from
    the persisted summary.
    """
    out = Path(out_dir)
    token = _mode_token(summary["mode"])
    base = f"{token}_n{summary['n']}"
    written = []
    try:
        out.mkdir(parents=True, exist_ok=True)

        csv_path = out / f"{base}_trials.csv"
        _write_csv(csv_path, TRIAL_CSV_HEADER, (
            _TRIAL_ROW.format(*r[:4], "true" if r.exact_recovery else "false", r.residual)
            for r in sorted(records, key=lambda r: r.seed)))
        written.append(csv_path)

        persisted = {k: v for k, v in summary.items() if k != "wall_clock"}
        json_path = out / f"{base}_summary.json"
        with open(json_path, "w") as fh:
            json.dump(persisted, fh, sort_keys=True, indent=2)
            fh.write("\n")
        written.append(json_path)

        if "tail_table" in summary:
            table_path = out / f"{base}_table.csv"
            table = summary["tail_table"]
            _write_csv(table_path, ",".join(table[0]),
                       (",".join(map(_cell, row.values())) + "\n" for row in table))
            written.append(table_path)
    except OSError as exc:
        raise OSError(f"failed writing experiment artifacts under {out}: {exc}") from exc
    return written
