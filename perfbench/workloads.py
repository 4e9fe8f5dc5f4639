"""The benchmark's three workloads: inputs, the timed operation, checks, replay.

Every workload makes its inputs from ``(seed, batch index)`` alone and hands
the program only those inputs. A batch is the unit the timed loop repeats:

* ``certified_sweep``: every (support, missing) pair with ``2|S||M| < n``
  for ``n`` in ``CERT_WIDTHS``, ``CERT_DRAWS`` seeded coefficient draws per
  pair, one ``l1_recover_many`` call per width plus ``uniqueness_oracle_1d``
  per pair, all in this process. Op = one 1D instance.
* ``skewed_two_stage``: one CLI ``two-stage`` sweep run in-process through
  ``cli.main``. Op = one trial.
* ``erasure_sweep``: CLI ``mmax-sweep``, ``mmin-sweep`` and ``tail-bounds``.
  Op = one trial or one tail-table row.

The CLI workloads also replay their trials in one process, calling the
public functions in ``experiments._run_trial``'s order, so the traced run can
time each layer from outside the program.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gabor_recover import (
    RecoveryStage,
    RowStatus,
    apply_erasure,
    binom_tail_upper,
    column_support_max,
    erasure_stats,
    gabor_col,
    gabor_row,
    l1_recover_many,
    lemma_tail_bound,
    prob_mmax_below,
    prob_mmin_below,
    recover_two_stage,
    sample_erasure,
    uniqueness_oracle_1d,
)
from gabor_recover import cli, experiments
from gabor_recover.experiments import (
    EXACT_REL_TOL,
    config_from_mapping,
    generate_test_signal,
)

from tracer import Tracer, patched

DEFAULT_SEED = 0
TOL = 1e-9                  # the CLI's default feasibility tolerance
CERT_REL_ERR = 1e-6         # certified instances must recover below this error
WILSON_Z_99 = 2.5758293035489004
# Each point's closed form is compared with its Monte Carlo count twice. A
# miss of the Wilson 99% interval is counted and reported, not failed: at
# these points it happens by chance (at mmin-sweep n=256 the closed form is
# 2.5e-6, one trial in 10000 falls below c in 2.5% of batches, and the Wilson
# interval of 1/10000 excludes 2.5e-6). The point fails when an exact
# two-sided binomial test rejects the closed form at FAIL_ALPHA, which a
# correct program does by chance at most once in 1e9 checks.
FAIL_ALPHA = 1e-9

UNTRACED = Tracer(enabled=False)


def _no_mark() -> None:
    """Default for ``run``'s ``mark``, which is called before each width or point."""


class Tally:
    """Ops attempted and failed, per-layer counters and the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.counts: dict = {}
        self.notes: list = []

    def add(self, ops: int, failed: int, note: str = "") -> None:
        self.attempted += int(ops)
        self.failed += int(failed)
        if failed and note and len(self.notes) < 20:
            self.notes.append(note)

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


def wilson(successes: int, trials: int, z: float):
    """Wilson score interval, written independently of the program's."""
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
    return center - half, center + half


def binomial_p_value(successes: int, trials: int, p: float) -> float:
    """Exact two-sided binomial test: twice the smaller tail at ``successes``."""
    if p <= 0.0:
        return float(successes == 0)
    if p >= 1.0:
        return float(successes == trials)
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(trials + 1)
    pmf = [math.exp(log_n - math.lgamma(j + 1) - math.lgamma(trials - j + 1)
                    + j * log_p + (trials - j) * log_q) for j in range(trials + 1)]
    lower, upper = math.fsum(pmf[:successes + 1]), math.fsum(pmf[successes:])
    return min(1.0, 2.0 * min(lower, upper))


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ----------------------------------------------------------------------------
# certified_sweep
# ----------------------------------------------------------------------------

CERT_WIDTHS = tuple(range(4, 11))
CERT_DRAWS = 2


def _pair_table(n: int):
    """Every certified (support, missing) pair at width n, as masks and tuples."""
    pairs = []
    for e in range(n + 1):
        for m in range(n + 1):
            if 2 * e * m >= n:
                continue
            missing_sets = list(itertools.combinations(range(n), m))
            for supp in itertools.combinations(range(n), e):
                pairs.extend((supp, miss) for miss in missing_sets)
    supp_mask = np.zeros((len(pairs), n), dtype=bool)
    miss_mask = np.zeros((len(pairs), n), dtype=bool)
    for i, (supp, miss) in enumerate(pairs):
        supp_mask[i, list(supp)] = True
        miss_mask[i, list(miss)] = True
    return supp_mask, miss_mask, pairs


@dataclass
class CertBatch:
    n: int
    spectra: np.ndarray      # (rows, n) unitary DFT, zero at missing positions
    mask: np.ndarray         # (rows, n) missing positions
    truth: np.ndarray        # (rows, n) planted signals
    pairs: list              # (support, missing) per pair; rows are pair-major


def _cert_batch(n: int, supp_mask, miss_mask, pairs, rng) -> CertBatch:
    rows = np.repeat(supp_mask, CERT_DRAWS, axis=0)
    coeffs = rng.standard_normal(rows.shape) + 1j * rng.standard_normal(rows.shape)
    truth = np.where(rows, coeffs, 0.0)
    mask = np.repeat(miss_mask, CERT_DRAWS, axis=0)
    spectra = np.fft.fft(truth, axis=1) / math.sqrt(n)
    spectra[mask] = 0.0
    return CertBatch(n, spectra, mask, truth, pairs)


class CertifiedSweep:
    name = "certified_sweep"
    commands = ()
    trace_batches = 4

    def __init__(self, out_dir: Path):
        self._tables = None

    def inputs(self, seed: int, k: int):
        if self._tables is None:
            self._tables = {n: _pair_table(n) for n in CERT_WIDTHS}
        rng = np.random.default_rng([seed, k])
        return [_cert_batch(n, *self._tables[n], rng) for n in CERT_WIDTHS]

    def run(self, batch, tracer: Tracer = UNTRACED, mark=_no_mark):
        outputs = []
        for b in batch:
            mark()
            outputs.append(tracer.call("replay.width", b.n, self._solve_width, b, tracer))
        return outputs

    @staticmethod
    def _solve_width(b: CertBatch, tracer: Tracer):
        n = b.n
        sols, conv, _ = tracer.call("recovery.l1_recover_many", n, l1_recover_many,
                                    b.spectra, b.mask)
        unique = [tracer.call("recovery.uniqueness_oracle_1d", n, uniqueness_oracle_1d,
                              supp, miss, n) for supp, miss in b.pairs]
        return sols, conv, unique

    def check(self, batch, outputs, tally: Tally, k: int, seed: int) -> None:
        for b, (sols, conv, unique) in zip(batch, outputs):
            err = np.linalg.norm(sols - b.truth, axis=1)
            ref = np.linalg.norm(b.truth, axis=1)
            exact = np.where(ref > 0, err < CERT_REL_ERR * ref, err <= 1e-9)
            ok = conv & exact & np.repeat(np.asarray(unique, dtype=bool), CERT_DRAWS)
            bad = int((~ok).sum())
            tally.add(ok.size, bad, f"certified n={b.n} batch {k}: {bad} instances failed")
            tally.count("instances", ok.size)
            tally.count("converged", int(conv.sum()))
            tally.count(f"rows.n{b.n}", ok.size)

    def replay(self, batch, tracer: Tracer, tally: Tally, k: int, seed: int):
        self.check(batch, self.run(batch, tracer), tally, k, seed)
        return {}, {}

    def probe_op(self, seed: int) -> None:
        supp_mask, miss_mask, pairs = _pair_table(4)
        b = _cert_batch(4, supp_mask[-1:], miss_mask[-1:], pairs[-1:],
                        np.random.default_rng([seed, 0]))
        self.run([b])

    warm_up = probe_op


# ----------------------------------------------------------------------------
# CLI workloads
# ----------------------------------------------------------------------------

_MODES = {"two-stage": "TwoStage", "mmax-sweep": "MmaxSweep",
          "mmin-sweep": "MminSweep", "tail-bounds": "TailBounds"}
_TOKENS = {mode: command.replace("-", "_") for command, mode in _MODES.items()}


@dataclass(frozen=True)
class Command:
    """One CLI experiment command swept over widths."""

    name: str
    stream: int              # keeps the trial seeds of commands apart
    t: int
    theta: float
    e_max: int
    widths: tuple
    trials: int = 1          # per width; tail-bounds runs one table row per width
    profile_shape: str = "UniformRows"

    @property
    def token(self) -> str:
        return _TOKENS[_MODES[self.name]]

    @property
    def ops_per_point(self) -> int:
        return 1 if self.name == "tail-bounds" else self.trials

    def base_seed(self, seed: int, k: int) -> int:
        return seed * 10**9 + self.stream * 10**8 + k * self.trials

    def argv(self, base: int, out_dir: Path, widths=None) -> list:
        widths = widths or self.widths
        return [self.name, "--n", str(widths[0]), "--t", str(self.t),
                "--theta", repr(self.theta), "--e-max", str(self.e_max),
                "--trials", str(self.trials), "--seed", str(base),
                "--sweep", ",".join(str(w) for w in widths),
                "--profile-shape", self.profile_shape, "--out", str(out_dir)]

    def config(self, base: int, width: int):
        return config_from_mapping({
            "n": width, "t": self.t, "theta": self.theta, "e_max_target": self.e_max,
            "trials": self.trials, "base_seed": base, "mode": _MODES[self.name],
            "profile_shape": self.profile_shape, "tol": TOL,
        })


def _decision_line(seed, m_max, m_min, rows_recovered, exact) -> str:
    return f"{seed},{m_max},{m_min},{rows_recovered},{'true' if exact else 'false'}"


def _run_cli(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue().splitlines()


def replay_trial(cfg, index: int, tracer: Tracer, tally: Tally):
    """One trial through the public functions, in ``_run_trial``'s order."""
    n = cfg.dims.n
    trial_seed = cfg.base_seed + index
    signal = tracer.call("experiments.generate_test_signal", n, generate_test_signal,
                         cfg.dims, cfg.e_max_target, 2 * trial_seed, cfg.profile_shape)
    pattern = tracer.call("channel.sample_erasure", n, sample_erasure,
                          cfg.dims, cfg.theta, 2 * trial_seed + 1)
    stats = tracer.call("channel.erasure_stats", n, erasure_stats, pattern)
    if cfg.mode.value != "TwoStage":
        return trial_seed, stats.m_max, stats.m_min, 0, False, 0.0
    row_t = tracer.call("transforms.gabor_row", n, gabor_row, signal)
    problem = tracer.call("channel.apply_erasure", n, apply_erasure, row_t, pattern)
    col_t = tracer.call("transforms.gabor_col", n, gabor_col, signal)
    col_max = tracer.call("signal.column_support_max", n, column_support_max, col_t)
    report = tracer.call("recovery.recover_two_stage", n, recover_two_stage, problem,
                         col_transform_support_max=col_max, tol=cfg.tol)

    recovered = np.array([s is RowStatus.Recovered for s in report.row_status])
    erased = pattern.per_row_counts > 0
    tally.count("rows_with_erasures", int(erased.sum()))
    tally.count("erased_rows_recovered", int((recovered & erased).sum()))
    tally.count("two_stage_trials")
    tally.count("column_passes", int(report.stage is RecoveryStage.RowThenColumn))
    rows_recovered = int(recovered.sum())
    exact = False
    if rows_recovered == cfg.dims.t and report.recovered is not None:
        diff = report.recovered.values - signal.values
        denom = float(np.linalg.norm(signal.values))
        exact = bool(np.linalg.norm(diff) < EXACT_REL_TOL * denom) if denom > 0 else True
    return trial_seed, stats.m_max, stats.m_min, rows_recovered, exact, float(report.residual)


def _terms(n: int, threshold: float) -> int:
    """Binomial pmf terms an upper tail from ``threshold`` sums.

    The tail functions round a threshold within 1e-9 of an integer to it.
    """
    return max(0, n - max(math.ceil(threshold - 1e-9), 0) + 1)


def replay_tail_row(cfg, tracer: Tracer, tally: Tally) -> dict:
    """One tail-table row through the public tail functions, in the CLI's order."""
    n, t, theta, e_max = cfg.dims.n, cfg.dims.t, cfg.theta, cfg.e_max_target
    c = n / (2 * e_max)
    k = 1.0 / (2 * e_max)
    row = {
        "p_mmax_below": tracer.call("probbounds.prob_mmax_below", n, prob_mmax_below,
                                    n, t, theta, c),
        "p_mmin_below": tracer.call("probbounds.prob_mmin_below", n, prob_mmin_below,
                                    n, t, theta, c),
        "exact_tail": tracer.call("probbounds.binom_tail_upper", n, binom_tail_upper,
                                  n, theta, c),
    }
    tally.count("terms_summed", 3 * _terms(n, c))
    if 0.0 < theta < k < 1.0:
        tracer.call("probbounds.lemma_tail_bound", n, lemma_tail_bound, n, theta, k)
        tally.count("terms_summed", _terms(n, n * k))
    return row


class CliWorkload:
    """A list of CLI commands; one batch runs each once at fresh trial seeds."""

    def __init__(self, name: str, commands, out_dir: Path, trace_batches: int):
        self.name = name
        self.commands = tuple(commands)
        self.trace_batches = trace_batches
        self.out_dir = Path(out_dir)
        self.pins = self._load_pins()

    def _load_pins(self) -> dict:
        path = Path(__file__).resolve().parent / "pins" / f"{self.name}.json"
        if not path.is_file():
            return {}
        with open(path) as fh:
            return json.load(fh)["batches"]

    def inputs(self, seed: int, k: int):
        return [(cmd, cmd.base_seed(seed, k)) for cmd in self.commands]

    def run(self, batch, mark=_no_mark):
        original = experiments.run_experiment

        def run_experiment(config):
            mark()
            return original(config)

        with patched(experiments, "run_experiment", run_experiment):
            return [_run_cli(cmd.argv(base, self.out_dir)) for cmd, base in batch]

    # -- checks ---------------------------------------------------------------

    def _differs_from_pin(self, seed, k, key, lines) -> bool:
        if seed != DEFAULT_SEED:
            return False
        pinned = self.pins.get(str(k), {}).get(key)
        return pinned is not None and pinned != digest(lines)

    def _check_trials(self, tally, cmd, width, records, k, seed, where) -> list:
        """Per-trial invariants and pins; returns the decision lines."""
        c = width / (2 * cmd.e_max)
        lines, bad = [], 0
        for seed_i, m_max, m_min, rows, exact, resid in records:
            lines.append(_decision_line(seed_i, m_max, m_min, rows, exact))
            if cmd.name == "two-stage" and (resid > TOL or (m_max < c and not exact)):
                bad += 1
        key = f"{cmd.token}_n{width}"
        note = f"{where} {key} batch {k}: {bad} trials failed (residual above tol or " \
               "guarded trial not exact)"
        if self._differs_from_pin(seed, k, key, lines):
            bad, note = len(records), f"{where} {key} batch {k}: decisions differ from the pin"
        tally.add(len(records), bad, note)
        return lines

    def _check_wilson(self, tally, key, count, trials, closed_form) -> None:
        lo, hi = wilson(count, trials, WILSON_Z_99)
        tally.count("wilson99_checks")
        if not lo <= closed_form <= hi:
            tally.count("wilson99_misses")
        if binomial_p_value(count, trials, closed_form) < FAIL_ALPHA:
            tally.add(0, trials, f"{key}: {count}/{trials} rejects the closed form "
                                 f"{closed_form} at p < {FAIL_ALPHA}")

    def check(self, batch, outputs, tally: Tally, k: int, seed: int) -> dict:
        """Check the CLI's artifacts; returns decision lines / table rows per point."""
        seen = {}
        for (cmd, base), (code, printed) in zip(batch, outputs):
            points = len(cmd.widths) * cmd.ops_per_point
            if code != 0 or len(printed) != len(cmd.widths):
                tally.add(points, points, f"{cmd.name} batch {k}: exit code {code}")
                continue
            for width in cmd.widths:
                key = f"{cmd.token}_n{width}"
                stem = self.out_dir / key
                with open(f"{stem}_summary.json") as fh:
                    summary = json.load(fh)
                if cmd.name == "tail-bounds":
                    seen[key] = self._check_table(tally, f"{stem}_table.csv", key)
                    continue
                seen[key] = self._check_point(tally, cmd, base, width, summary,
                                              f"{stem}_trials.csv", k, seed)
        return seen

    def _check_point(self, tally, cmd, base, width, summary, csv_path, k, seed) -> list:
        key = f"{cmd.token}_n{width}"
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        records = [(int(r[0]), int(r[1]), int(r[2]), int(r[3]), r[4] == "true", float(r[5]))
                   for r in rows]
        if [r[0] for r in records] != list(range(base, base + cmd.trials)):
            tally.add(cmd.trials, cmd.trials, f"{key} batch {k}: wrong trial seeds")
            return []
        lines = self._check_trials(tally, cmd, width, records, k, seed, "cli")
        c = width / (2 * cmd.e_max)
        guarded = sum(1 for r in records if r[1] < c)
        if cmd.name == "two-stage":
            exact = sum(1 for r in records if r[4])
            consistent = (summary["exact_count"] == exact
                          and summary["guarded_trials"] == guarded)
            count = guarded
        else:
            column, field = ((1, "mmax_below_count") if cmd.name == "mmax-sweep"
                             else (2, "mmin_below_count"))
            count = sum(1 for r in records if r[column] < c)
            consistent = summary[field] == count
        if not consistent or summary["trials"] != cmd.trials:
            tally.add(0, cmd.trials, f"{key} batch {k}: summary disagrees with trials")
        self._check_wilson(tally, key, count, cmd.trials, summary["closed_form"])
        return lines

    def _check_table(self, tally, path, key) -> list:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        bad = sum(1 for r in rows
                  if not all(0.0 <= float(r[f]) <= 1.0
                             for f in ("p_mmax_below", "p_mmin_below", "exact_tail")))
        tally.add(len(rows), bad + (len(rows) != 1), f"{key}: tail outside [0, 1]")
        return [",".join(r[f] for f in ("p_mmax_below", "p_mmin_below", "exact_tail"))
                for r in rows]

    # -- traced replay and the pooled pass ------------------------------------

    def replay(self, batch, tracer: Tracer, tally: Tally, k: int, seed: int):
        """Every trial of the batch in one process; returns lines and busy time per point."""
        seen, busy = {}, {}
        for cmd, base in batch:
            for width in cmd.widths:
                key = f"{cmd.token}_n{width}"
                cfg = cmd.config(base, width)
                start = len(tracer)
                if cmd.name == "tail-bounds":
                    row = tracer.call("replay.tail_row", width, replay_tail_row, cfg,
                                      tracer, tally)
                    bad = int(not all(0.0 <= v <= 1.0 for v in row.values()))
                    tally.add(1, bad, f"replay {key}: tail outside [0, 1]")
                    seen[key] = [",".join(format(float(row[f]), ".17g") for f in
                                          ("p_mmax_below", "p_mmin_below", "exact_tail"))]
                else:
                    records = [tracer.call("replay.trial", width, replay_trial, cfg, i,
                                           tracer, tally) for i in range(cmd.trials)]
                    seen[key] = self._check_trials(tally, cmd, width, records, k, seed,
                                                   "replay")
                busy[key] = tracer.root_wall(start)
        return seen, busy

    def pooled_pass(self, seed: int, tracer: Tracer, tally: Tally, replayed: dict):
        """Batch 0 through ``cli.main`` with the pool, timing each point from outside.

        Returns the pooled ``run_experiment`` wall time per point and the
        worker count it ran with. Decisions must equal the replay's.
        """
        batch = self.inputs(seed, 0)
        pooled = {}

        def run_experiment(config):
            start = len(tracer)
            result = tracer.call("experiments.run_experiment", config.dims.n,
                                 original_run, config)
            token = _TOKENS[config.mode.value]
            pooled[f"{token}_n{config.dims.n}"] = (tracer.ends[start] - tracer.starts[start],
                                                   experiments._worker_count(config.trials))
            return result

        def emit_results(summary, records, out_dir):
            paths = tracer.call("experiments.emit_results", summary["n"], original_emit,
                                summary, records, out_dir)
            tally.count("emit_bytes", sum(os.path.getsize(p) for p in paths))
            return paths

        original_run = experiments.run_experiment
        original_emit = cli.emit_results
        outputs = []
        with patched(experiments, "run_experiment", run_experiment), \
                patched(cli, "emit_results", emit_results):
            for cmd, base in batch:
                outputs.append(tracer.call("cli.main", None, _run_cli,
                                           cmd.argv(base, self.out_dir)))
        seen = self.check(batch, outputs, tally, 0, seed)
        for key, lines in seen.items():
            if lines != replayed.get(key):
                tally.add(0, len(lines), f"{key}: pooled decisions differ from the replay")
        return pooled

    def warm_up(self, seed: int) -> None:
        """Each command at its first width with batch 0's seeds: imports, first pool."""
        for cmd in self.commands:
            code, _ = _run_cli(cmd.argv(cmd.base_seed(seed, 0), self.out_dir, cmd.widths[:1]))
            if code != 0:
                raise RuntimeError(f"{cmd.name} exited with {code}")

    def probe_op(self, seed: int) -> None:
        cmd = self.commands[0]
        one = Command(cmd.name, cmd.stream, cmd.t, cmd.theta, cmd.e_max, cmd.widths[-1:],
                      1, cmd.profile_shape)
        code, _ = _run_cli(one.argv(one.base_seed(seed, 0), self.out_dir))
        if code != 0:
            raise RuntimeError(f"{cmd.name} exited with {code}")


SKEWED = (
    Command("two-stage", 0, t=8, theta=1.0 / 6.0, e_max=3, widths=(32, 64, 128, 256),
            trials=128, profile_shape="SkewedRows"),
)
ERASURE = (
    Command("mmax-sweep", 1, t=16, theta=0.1, e_max=2, widths=(64, 256), trials=10000),
    Command("mmin-sweep", 2, t=16, theta=0.4, e_max=2, widths=(64, 256), trials=10000),
    Command("tail-bounds", 3, t=16, theta=0.1, e_max=2,
            widths=(1000, 3000, 10000, 30000, 100000)),
)

WORKLOADS = ("certified_sweep", "skewed_two_stage", "erasure_sweep")


def make(name: str, out_dir: Path):
    if name == "certified_sweep":
        return CertifiedSweep(out_dir)
    if name == "skewed_two_stage":
        return CliWorkload(name, SKEWED, out_dir, trace_batches=2)
    if name == "erasure_sweep":
        return CliWorkload(name, ERASURE, out_dir, trace_batches=2)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
