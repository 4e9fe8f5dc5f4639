"""Check that two commits make the same recovery decisions on fixed-seed inputs.

Usage (from the root of a checkout)::

    python3 equivalence.py --base REV --head REV --batches 600 --grids 600

Each side is exported with ``bench_compare.export`` into its own temporary
directory, and this script then runs once per side in a fresh interpreter that
imports that side's ``src/``. Both sides get the same inputs:

* ``--batches`` random ``l1_recover_many`` batches (n = 4..32, 1..32 rows),
  alternating the two ``L1Domain``s. A batch of more than two rows has a fully
  erased first row and an erasure-free second row, and one batch in ten runs
  at ``max_iter`` 1, 2, 3, 8 or 16;
* three more engine batches, each spanning several polish calls: every
  Donoho-Stark certified (support, missing) pair at n = 9 and at n = 10, one
  seeded draw per pair, and ``WIDE_ROWS`` random rows at n = 256;
* ``--grids`` random grids (n = 8..64, t = 2..11, ``max_iter`` from 1 to 1e5,
  column support bound None, 1, 2 or t) through ``recover_rows`` and
  ``recover_two_stage``;
* ``generate_test_signal`` draws of both profile shapes at several
  ``(n, t, e_max)`` and ``DRAW_SEEDS`` seeds each, and the same seeds drawn
  again as one ``experiments._test_signals`` stack per shape, as a trial chunk
  draws them;
* ``sample_erasure`` masks at the same ``(n, t)`` and ``MASK_SEEDS``, one
  seed at a time, and the same seeds drawn again as one ``_sample_masks``
  stack per group of ``MASK_GROUPS``. One-seed calls open numpy's own
  ``default_rng``, and stacks of any size reach the block seed kernel: across
  ``2**32`` and ``2**64``, where a seed grows a 32-bit word, and across
  ``2**128``, where a block holding a wider seed goes to ``SeedSequence``;
* a fixed set of CLI runs covering every experiment mode, driven by flags, one
  of them a row-recovery sweep that no row's certificate holds in, one a
  SkewedRows two-stage point whose trials fill several chunks and end in a
  partial one, and one two-stage run that reads a config file and overrides
  one of its fields.

A decision is a converged flag, a row status, a guarantee flag, whether a
report recovered anything, its stage, a draw's support, a whole mask, and
every integer, boolean, string or empty cell of an artifact. The script
prints each side's ``src/`` line count (newlines in its ``.py`` files, as
``wc -l`` counts them); the counts of bit-identical engine outputs (and of
engine batches whose signals and flags alone are, with the rows whose
residual moved and how many of them are fully observed, and of engine
batches whose rows each exit at the same iteration), byte-identical
``report_to_json`` strings, bit-identical draws and masks and byte-identical
artifacts; the largest drift of values (engine signals, recovered grid values and draws) apart from that
of residuals (engine and report), with artifact float cells on a line of
their own; every changed decision; and every engine batch or grid report
whose bytes differ with no decision changed, with its largest drift of each
kind, and every engine row that exits at another iteration. An engine or
grid change names its ``max_iter`` and its direction: a converged flag comes
with the head's relative error against the planted signal, and a row status
with its counts of Failed->Recovered and Recovered->Failed rows. It exits 1
when any decision changed, and 2 when a side fails to run.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_compare import export

SHORT_BUDGETS = (1, 2, 3, 8, 16)
GRID_BUDGETS = (1, 2, 3, 8, 16, 100, 1000, 100_000)
# (n, t, e_max) of the compared test-signal draws; SkewedRows needs t a power of two >= 4
# and e_max >= log2(t), so each shape suits both profile shapes
DRAW_SHAPES = ((4, 4, 2), (8, 8, 3), (16, 8, 7), (12, 4, 12), (32, 16, 4), (64, 32, 9))
DRAW_SEEDS = 200
MASK_GROUPS = (range(DRAW_SEEDS), *(range(2**w - 8, 2**w + 8) for w in (32, 64, 128)))
MASK_SEEDS = tuple(itertools.chain(*MASK_GROUPS))
MASK_THETA = 0.3
CERTIFIED_WIDTHS = (9, 10)  # every certified pair: 6,828 and 11,672 rows
WIDE_ROWS = 300  # rows at n = 256, about ten polish calls

# every experiment mode; the two-stage runs reach the column stage, the
# tail-bounds runs hold rows with and without a valid bound, n up to 1e5,
# rows_uncertified is past the row certificate, where no row reaches the engine, and
# two_skewed_chunks spans six chunks of 16384 entries, or eleven of 8192
CLI_RUNS = {
    "mmax": ["mmax-sweep", "--t", "16", "--theta", "0.1", "--e-max", "2", "--trials", "2000",
             "--sweep", "64,256"],
    "mmin": ["mmin-sweep", "--t", "16", "--theta", "0.4", "--e-max", "2", "--trials", "2000",
             "--sweep", "64,256"],
    "tail_valid": ["tail-bounds", "--t", "16", "--theta", "0.1", "--e-max", "2",
                   "--sweep", "16,64,1000,100000"],
    "tail_invalid": ["tail-bounds", "--t", "16", "--theta", "0.3", "--e-max", "2",
                     "--sweep", "16,64,1000"],
    "rows": ["row-recovery", "--t", "4", "--theta", "0.1", "--e-max", "2", "--trials", "60",
             "--sweep", "16,32"],
    "rows_uncertified": ["row-recovery", "--t", "8", "--theta", "0.2", "--e-max", "32",
                         "--trials", "20", "--sweep", "64,127"],
    "two_skewed": ["two-stage", "--t", "8", "--theta", "0.25", "--e-max", "3", "--trials", "60",
                   "--sweep", "32,64", "--profile-shape", "SkewedRows"],
    "two_skewed_chunks": ["two-stage", "--t", "8", "--theta", "0.25", "--e-max", "3",
                          "--trials", "165", "--sweep", "64", "--profile-shape", "SkewedRows"],
    "two_uniform": ["two-stage", "--t", "8", "--theta", "0.3", "--e-max", "2", "--trials", "60",
                    "--sweep", "16,32", "--profile-shape", "UniformRows"],
}
# one more run reads this config file, which leaves trials and base_seed to their
# defaults, and overrides its theta with a flag
CONFIG_FILE = {"n": 32, "t": 8, "theta": 0.5, "e_max_target": 3, "profile_shape": "SkewedRows",
               "sweep": [32, 64, 128, 256]}
CONFIG_RUN = ["two-stage", "--theta", "0.25"]


# ----------------------------------------------------------------------------
# one side: run the inputs against the imported gabor_recover
# ----------------------------------------------------------------------------

def _planted(rng, n: int, rows: int, max_support: int) -> np.ndarray:
    sparse = np.zeros((rows, n), dtype=complex)
    for i in range(rows):
        supp = rng.choice(n, size=int(rng.integers(1, max_support + 1)), replace=False)
        sparse[i, supp] = rng.normal(size=supp.size) + 1j * rng.normal(size=supp.size)
    return sparse


def _certified_rows(rng, n: int):
    """``(sparse, masks)``: one draw on each certified (support, missing) pair at width ``n``."""
    pairs = [(supp, miss) for e in range(n + 1) for m in range(n + 1) if 2 * e * m < n
             for supp in itertools.combinations(range(n), e)
             for miss in itertools.combinations(range(n), m)]
    sparse = np.zeros((len(pairs), n), dtype=complex)
    masks = np.zeros((len(pairs), n), dtype=bool)
    for i, (supp, miss) in enumerate(pairs):
        sparse[i, list(supp)] = rng.normal(size=len(supp)) + 1j * rng.normal(size=len(supp))
        masks[i, list(miss)] = True
    return sparse, masks


def _random_masks(rng, n: int, rows: int, most: int) -> np.ndarray:
    masks = np.zeros((rows, n), dtype=bool)
    for i in range(rows):
        masks[i, rng.choice(n, size=int(rng.integers(0, most + 1)), replace=False)] = True
    return masks


def _engine_batch(arrays: dict, k: int, sparse, masks, max_iter: int) -> None:
    """Solve batch ``k`` in the ``L1Domain`` its parity picks; store its outputs in ``arrays``.

    The outputs include the iteration counts that ``l1_recover_many`` drops,
    taken from its one ``_solve_l1_batch`` call.
    """
    from gabor_recover import recovery
    from gabor_recover.recovery import L1Domain, l1_recover_many

    n = sparse.shape[1]
    domain = list(L1Domain)[k % 2]
    if domain is L1Domain.MinimizeSignalL1:
        data = np.fft.fft(sparse, axis=1) / np.sqrt(n)
    else:
        data = np.fft.ifft(sparse, axis=1) * np.sqrt(n)
    solve, iters = recovery._solve_l1_batch, []

    def counted(*args, **kwargs):
        out = solve(*args, **kwargs)
        iters.append(out[3])
        return out

    recovery._solve_l1_batch = counted
    try:
        sols, conv, resid = l1_recover_many(np.where(masks, 0, data), masks, domain,
                                            max_iter=max_iter)
    finally:
        recovery._solve_l1_batch = solve
    arrays[f"sols{k}"], arrays[f"conv{k}"], arrays[f"resid{k}"] = sols, conv, resid
    arrays[f"iters{k}"] = iters[0]
    arrays[f"masks{k}"] = masks
    # the planted signal (the data itself when the sparse vector is its spectrum)
    arrays[f"truth{k}"] = sparse if domain is L1Domain.MinimizeSignalL1 else data
    arrays[f"budget{k}"] = max_iter


def _engine_batches(count: int, out: Path) -> None:
    from gabor_recover.recovery import DEFAULT_MAX_ITER

    arrays = {}
    for k in range(count):
        rng = np.random.default_rng([1, k])
        n, rows = int(rng.integers(4, 33)), int(rng.integers(1, 33))
        sparse = _planted(rng, n, rows, max(1, n // 3))
        masks = _random_masks(rng, n, rows, n // 2)
        if rows > 2:
            masks[0], masks[1] = True, False
        max_iter = SHORT_BUDGETS[(k // 10) % 5] if k % 10 == 0 else DEFAULT_MAX_ITER
        _engine_batch(arrays, k, sparse, masks, max_iter)
    # the batches that span several polish calls
    for k, n in enumerate((*CERTIFIED_WIDTHS, 256), start=count):
        rng = np.random.default_rng([1, k])
        if n == 256:
            sparse = _planted(rng, n, WIDE_ROWS, 8)
            masks = _random_masks(rng, n, WIDE_ROWS, n // 4)
        else:
            sparse, masks = _certified_rows(rng, n)
        _engine_batch(arrays, k, sparse, masks, DEFAULT_MAX_ITER)
    arrays["batches"] = count + len(CERTIFIED_WIDTHS) + 1
    np.savez(out / "engine.npz", **arrays)


def _grids(count: int, out: Path) -> None:
    from gabor_recover.channel import ErasurePattern, apply_erasure
    from gabor_recover.recovery import recover_rows, recover_two_stage, report_to_json
    from gabor_recover.signal import GridDims, Signal2D, support_profile
    from gabor_recover.transforms import gabor_row

    records = []
    for k in range(count):
        rng = np.random.default_rng([2, k])
        n, t = int(rng.integers(8, 65)), int(rng.integers(2, 12))
        dims = GridDims(n=n, t=t)
        signal = Signal2D(dims=dims, values=_planted(rng, n, t, max(1, n // 6)))
        mask = rng.random((t, n)) < rng.uniform(0.0, 0.4)
        if k % 3 == 0:
            mask[int(rng.integers(t))] = True
        max_iter = int(GRID_BUDGETS[int(rng.integers(len(GRID_BUDGETS)))])
        bound = (None, 1, 2, t)[k % 4]
        problem = apply_erasure(gabor_row(signal), ErasurePattern(dims=dims, mask=mask))
        profile = support_profile(signal) if k % 2 else None
        reports = (recover_rows(problem, profile=profile, max_iter=max_iter),
                   recover_two_stage(problem, col_transform_support_max=bound,
                                     max_iter=max_iter))
        records.append([{"json": report_to_json(r), "max_iter": max_iter,
                         "guarantee": [bool(g) for g in r.guarantee_held]} for r in reports])
    (out / "grids.json").write_text(json.dumps(records))


def _draws(out: Path) -> None:
    from gabor_recover.channel import _streams
    from gabor_recover.experiments import ProfileShape, _test_signals, generate_test_signal
    from gabor_recover.signal import GridDims

    draws = {}
    for shape in ProfileShape:
        for n, t, e_max in DRAW_SHAPES:
            dims, key = GridDims(n=n, t=t), f"{shape.value}_{n}_{t}_{e_max}"
            draws[key] = np.array([generate_test_signal(dims, e_max, seed, shape).values
                                   for seed in range(DRAW_SEEDS)])
            draws[f"stacked_{key}"] = _test_signals(dims, e_max, _streams(range(DRAW_SEEDS)),
                                                    DRAW_SEEDS, shape)
    np.savez(out / "draws.npz", **draws)


def _masks(out: Path) -> None:
    from gabor_recover.channel import _sample_masks, _streams, sample_erasure
    from gabor_recover.signal import GridDims

    masks = {}
    for n, t, _ in DRAW_SHAPES:
        dims = GridDims(n=n, t=t)
        masks[f"{n}_{t}"] = np.array([sample_erasure(dims, MASK_THETA, seed).mask
                                      for seed in MASK_SEEDS])
        masks[f"stacked_{n}_{t}"] = np.concatenate([
            _sample_masks(dims, MASK_THETA, _streams(group), len(group)) for group in MASK_GROUPS])
    np.savez(out / "masks.npz", **masks)


def _cli_runs(out: Path) -> None:
    from gabor_recover import cli

    config = out / "config.json"
    config.write_text(json.dumps(CONFIG_FILE))
    runs = {name: argv + ["--n", argv[argv.index("--sweep") + 1].split(",")[0], "--seed", "7"]
            for name, argv in CLI_RUNS.items()}
    runs["config"] = CONFIG_RUN + ["--config", str(config)]
    for name, argv in runs.items():
        code = cli.main(argv + ["--out", str(out / "cli" / name)])
        if code != 0:
            raise SystemExit(f"CLI run {name} exited {code}")


def collect(out: Path, batches: int, grids: int) -> None:
    import gabor_recover

    src = (Path.cwd() / "src").resolve()
    if not Path(gabor_recover.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"gabor_recover was imported from {gabor_recover.__file__}, not {src}")
    _engine_batches(batches, out)
    _grids(grids, out)
    _draws(out)
    _masks(out)
    _cli_runs(out)


# ----------------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.changed = []
        self.drifted = []  # outputs whose bytes differ with no decision changed
        self.drift = {"values": 0.0, "residuals": 0.0, "artifact floats": 0.0}

    def float_drift(self, kind: str, a, b) -> float:
        drift = float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0))
        self.drift[kind] = max(self.drift[kind], drift)
        return drift


def compare_engine(base: Path, head: Path, tally: Tally) -> str:
    with np.load(base / "engine.npz") as b, np.load(head / "engine.npz") as h:
        identical = same_signals = same_iters = rows = moved = moved_full = 0
        count = int(h["batches"])
        for k in range(count):
            exits = np.flatnonzero(b[f"iters{k}"] != h[f"iters{k}"])
            same_iters += not exits.size
            tally.drifted.extend(f"engine batch {k} row {r} (max_iter={h[f'budget{k}']}): "
                                 f"exits at iteration {b[f'iters{k}'][r]}->{h[f'iters{k}'][r]}"
                                 for r in exits)
            keys = [f"sols{k}", f"conv{k}", f"resid{k}"]
            rows += b[keys[1]].size
            truth, flips = h[f"truth{k}"], np.flatnonzero(b[keys[1]] != h[keys[1]])
            for r in flips:
                err = np.linalg.norm(h[keys[0]][r] - truth[r]) / np.linalg.norm(truth[r])
                tally.changed.append(
                    f"engine batch {k} row {r} (n={truth.shape[1]}, max_iter={h[f'budget{k}']}):"
                    f" converged flag {b[keys[1]][r]}->{h[keys[1]][r]},"
                    f" head error against the planted signal {err:.2g}")
            values = tally.float_drift("values", b[keys[0]], h[keys[0]])
            resid = tally.float_drift("residuals", b[keys[2]], h[keys[2]])
            same = [b[key].tobytes() == h[key].tobytes() for key in keys]
            identical += all(same)
            same_signals += same[0] and same[1]
            rows_moved = b[keys[2]] != h[keys[2]]
            moved += rows_moved.sum()
            moved_full += (rows_moved & ~h[f"masks{k}"].any(axis=1)).sum()
            if not (all(same) or flips.size):
                tally.drifted.append(f"engine batch {k} (max_iter={h[f'budget{k}']}): "
                                     f"values {values:.2g}, residuals {resid:.2g}")
    return (f"engine: {identical}/{count} batches bit-identical ({rows} rows; the last "
            f"{len(CERTIFIED_WIDTHS) + 1} span several polish calls); signals and flags "
            f"bit-identical in {same_signals}/{count}; residuals moved on {moved} rows, "
            f"{moved_full} of them fully observed; iteration counts identical in "
            f"{same_iters}/{count}")


def compare_grids(base: Path, head: Path, tally: Tally) -> str:
    b_all = json.loads((base / "grids.json").read_text())
    h_all = json.loads((head / "grids.json").read_text())
    identical = column_stage = 0
    for k, (b_pair, h_pair) in enumerate(zip(b_all, h_all)):
        for which, b, h in zip(("recover_rows", "recover_two_stage"), b_pair, h_pair):
            identical += b["json"] == h["json"]
            rb, rh = json.loads(b["json"]), json.loads(h["json"])
            column_stage += which == "recover_two_stage" and rh["stage"] == "RowThenColumn"
            where, changed = f"grid {k} {which} (max_iter={h['max_iter']})", len(tally.changed)
            if rb["stage"] != rh["stage"]:
                tally.changed.append(f"{where}: stage {rb['stage']}->{rh['stage']}")
            if rb["row_status"] != rh["row_status"]:
                moves = list(zip(rb["row_status"], rh["row_status"]))
                tally.changed.append(
                    f"{where}: row status, {moves.count(('Failed', 'Recovered'))} "
                    f"Failed->Recovered, {moves.count(('Recovered', 'Failed'))} Recovered->Failed")
            if b["guarantee"] != h["guarantee"]:
                tally.changed.append(f"{where}: guarantee flags {b['guarantee']}->{h['guarantee']}")
            if (rb["recovered"] is None) != (rh["recovered"] is None):
                tally.changed.append(f"{where}: recovered None")
            resid, values = tally.float_drift("residuals", rb["residual"], rh["residual"]), 0.0
            if rb["recovered"] is not None and rh["recovered"] is not None:
                for part in ("re", "im"):
                    values = max(values, tally.float_drift("values", rb["recovered"][part],
                                                           rh["recovered"][part]))
            if b["json"] != h["json"] and len(tally.changed) == changed:
                tally.drifted.append(f"{where}: values {values:.2g}, residual {resid:.2g}")
    return (f"grids: {identical}/{2 * len(b_all)} reports byte-identical "
            f"({len(b_all)} grids, {column_stage} reaching the column stage)")


def compare_draws(base: Path, head: Path, tally: Tally) -> str:
    with np.load(base / "draws.npz") as b, np.load(head / "draws.npz") as h:
        identical = 0
        for key in b.files:
            bk, hk = b[key], h[key]
            tally.float_drift("values", bk, hk)
            identical += sum(x.tobytes() == y.tobytes() for x, y in zip(bk, hk))
            # a draw's support is a decision; its entries are of modulus about 1
            moved = np.flatnonzero(((np.abs(bk) > 1e-9) != (np.abs(hk) > 1e-9)).any(axis=(1, 2)))
            tally.changed += [f"draw {key} seed {seed}: support" for seed in moved]
    return (f"draws: {identical}/{len(b.files) * DRAW_SEEDS} bit-identical "
            f"({len(DRAW_SHAPES)} grid shapes x {DRAW_SEEDS} seeds x 2 profile shapes, "
            f"one seed at a time and stacked)")


def compare_masks(base: Path, head: Path, tally: Tally) -> str:
    with np.load(base / "masks.npz") as b, np.load(head / "masks.npz") as h:
        identical = 0
        for key in b.files:
            same = [x.tobytes() == y.tobytes() for x, y in zip(b[key], h[key])]
            identical += sum(same)
            tally.changed += [f"mask {key} seed {seed}" for seed, ok in zip(MASK_SEEDS, same)
                              if not ok]
    return (f"masks: {identical}/{len(b.files) * len(MASK_SEEDS)} bit-identical "
            f"({len(DRAW_SHAPES)} grid shapes x {len(MASK_SEEDS)} seeds, theta {MASK_THETA}, "
            f"one seed at a time and stacked per seed group)")


def _json_leaves(path: Path) -> list:
    leaves = []

    def walk(v):
        if isinstance(v, dict):
            for key in sorted(v):
                leaves.append(key)
                walk(v[key])
        elif isinstance(v, list):
            leaves.append(len(v))
            for item in v:
                walk(item)
        else:
            leaves.append(v)

    walk(json.loads(path.read_text()))
    return leaves


def _split_artifact(base: Path, head: Path):
    """``(decisions, floats)`` of one artifact, each a ``[base, head]`` pair of lists.

    A CSV column is a float column when any cell of it on either side is not
    an integer or a boolean; its empty cells (``None``) are decisions.
    """
    if base.suffix == ".json":
        leaves = [_json_leaves(p) for p in (base, head)]
        return ([[v for v in side if not isinstance(v, float)] for side in leaves],
                [[v for v in side if isinstance(v, float)] for side in leaves])
    tables = []
    for p in (base, head):
        with open(p, newline="") as fh:
            tables.append(list(csv.reader(fh)))
    decisions = [[table[0], len(table)] for table in tables]
    floats = [[], []]
    if decisions[0] == decisions[1]:
        for cols in zip(*(zip(*table[1:]) for table in tables)):
            exact = all(c.lstrip("-").isdigit() or c in ("true", "false") for col in cols
                        for c in col)
            for side, col in enumerate(cols):
                decisions[side].append(col if exact else [c == "" for c in col])
                floats[side] += [] if exact else [float(c) for c in col if c]
    return decisions, floats


def compare_artifacts(base: Path, head: Path, tally: Tally) -> str:
    names = sorted({p.relative_to(base) for p in (base / "cli").rglob("*") if p.is_file()}
                   | {p.relative_to(head) for p in (head / "cli").rglob("*") if p.is_file()})
    identical = 0
    for name in names:
        b, h = base / name, head / name
        if not (b.is_file() and h.is_file()):
            tally.changed.append(f"artifact {name}: missing on one side")
            continue
        identical += b.read_bytes() == h.read_bytes()
        decisions, floats = _split_artifact(b, h)
        if decisions[0] != decisions[1] or len(floats[0]) != len(floats[1]):
            tally.changed.append(f"artifact {name}: an integer, boolean or empty cell")
        else:
            tally.float_drift("artifact floats", *floats)
    return f"cli: {identical}/{len(names)} artifacts byte-identical ({len(CLI_RUNS) + 1} runs)"


def src_lines(checkout: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src").rglob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="revision to compare against")
    parser.add_argument("--head", default="HEAD")
    parser.add_argument("--batches", type=int, default=600)
    parser.add_argument("--grids", type=int, default=600)
    parser.add_argument("--collect", metavar="DIR",
                        help="run the inputs against the gabor_recover under ./src, "
                             "writing the outputs to DIR (what each side runs)")
    args = parser.parse_args()
    if args.collect:
        collect(Path(args.collect), args.batches, args.grids)
        return 0
    if not args.base:
        parser.error("--base is required")

    with tempfile.TemporaryDirectory() as tmp:
        sides, procs = {}, []
        for side, rev in (("base", args.base), ("head", args.head)):
            checkout, out = Path(tmp) / side, Path(tmp) / f"{side}_out"
            checkout.mkdir()
            out.mkdir()
            sides[side] = (export(rev, checkout), src_lines(checkout), out)
            env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
            procs.append(subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--collect", str(out),
                 "--batches", str(args.batches), "--grids", str(args.grids)],
                cwd=checkout, env=env, stdout=subprocess.DEVNULL))
        if any([p.wait() for p in procs]):  # a list, so both sides finish
            print("error: a side failed to run its inputs", file=sys.stderr)
            return 2
        for side, (rev, lines, _) in sides.items():
            print(f"{side} {rev} ({lines} src/ lines)")
        base, head = sides["base"][2], sides["head"][2]
        tally = Tally()
        print(compare_engine(base, head, tally))
        print(compare_grids(base, head, tally))
        print(compare_draws(base, head, tally))
        print(compare_masks(base, head, tally))
        print(compare_artifacts(base, head, tally))
    print(f"max drift: values {tally.drift['values']:.3g}, "
          f"residuals {tally.drift['residuals']:.3g}")
    print(f"max drift of artifact float cells: {tally.drift['artifact floats']:.3g}")
    print(f"changed decisions: {len(tally.changed)}")
    for line in tally.changed:
        print(f"  {line}")
    print(f"outputs differing in floats only: {len(tally.drifted)}")
    for line in tally.drifted:
        print(f"  {line}")
    return 1 if tally.changed else 0


if __name__ == "__main__":
    sys.exit(main())
