"""Sparse recovery from partially erased unitary transforms.

The central solve is basis pursuit with equality constraints against a
partial unitary DFT: minimize an L1 norm subject to matching the surviving
values. Two orientations exist:

* ``MinimizeSignalL1``: the observations are transform values; find the
  signal of least L1 norm whose transform matches them.
* ``MinimizeFreqL1``: the observations are signal samples; find the signal
  whose spectrum has least L1 norm among those matching them.

One engine solves both orientations. It works on the signal side only, and
``MinimizeFreqL1`` enters it conjugated: the unitary DFT is symmetric, so
``F^H u = conj(F conj(u))``, and conjugation keeps both the L1 norm and the
soft threshold. The engine is Douglas-Rachford splitting: alternating complex
soft-thresholding with projection onto the affine constraint set (one
forward/inverse FFT pair per iteration, since the constraint operator is
unitary). A support-identification polish runs alongside: least-squares on
the detected support, accepted only when the result is feasible and a dual
vector certifies L1 optimality. It builds no DFT matrix: Grams come off the FFT
of each observed mask and solve stacked by support size, with no dense fallback
(DR keeps a row whose Gram fails), and the duals take one FFT pair. The engine
solves independent instances at once, each exactly as it would alone.

Row-wise recovery applies the solve to each row of a grid independently,
optionally certifying rows through the product condition
``row_support * row_missing < n/2``. The two-stage pipeline repairs rows the
row stage could not produce by running the dual orientation down each column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional

import numpy as np

from .signal import GridDims, Signal2D
from .transforms import TransformKind

if TYPE_CHECKING:
    from .channel import ErasurePattern

__all__ = [
    "L1Domain",
    "RecoveryStage",
    "RowStatus",
    "RecoveryProblem",
    "RecoveryReport",
    "ds_condition",
    "l1_recover_1d",
    "l1_recover_many",
    "uniqueness_oracle_1d",
    "recover_rows",
    "recover_two_stage",
    "report_to_json",
]

DEFAULT_MAX_ITER = 100_000
DEFAULT_CONV_TOL = 1e-12
DEFAULT_FEAS_TOL = 1e-9
_POLISH_CHUNK = 512  # candidate rows polished at once, which bounds the polish's memory
_GRAM_ENTRIES = 1 << 17  # stacked Gram entries solved at once


class L1Domain(Enum):
    """Which side of the transform carries the L1 objective."""

    MinimizeSignalL1 = "MinimizeSignalL1"
    MinimizeFreqL1 = "MinimizeFreqL1"


class RecoveryStage(Enum):
    RowOnly = "RowOnly"
    RowThenColumn = "RowThenColumn"
    Global = "Global"


class RowStatus(Enum):
    Recovered = "Recovered"
    Failed = "Failed"
    NotAttempted = "NotAttempted"


@dataclass
class RecoveryProblem:
    """Surviving transform values plus the pattern that produced them.

    ``observed_values`` is dense ``(t, n)`` with NaN poison at missing
    positions; the pattern's mask is the authority on what is observed.
    """

    dims: GridDims
    kind: TransformKind
    observed_values: np.ndarray
    pattern: "ErasurePattern"

    def __post_init__(self):
        vals = np.asarray(self.observed_values, dtype=np.complex128).copy()
        if vals.shape != (self.dims.t, self.dims.n):
            raise ValueError(
                f"observed values shape {vals.shape} does not match dims "
                f"(t={self.dims.t}, n={self.dims.n})"
            )
        if self.pattern.dims != self.dims:
            raise ValueError("pattern dims do not match problem dims")
        if not isinstance(self.kind, TransformKind):
            raise ValueError(f"kind must be a TransformKind, got {self.kind!r}")
        mask = self.pattern.mask
        kept = vals[~mask]
        if not np.all(np.isfinite(kept)):
            raise ValueError("observed values must be finite at non-missing positions")
        vals[mask] = complex(np.nan, np.nan)
        vals.flags.writeable = False
        self.observed_values = vals


@dataclass
class RecoveryReport:
    """Outcome of a recovery attempt.

    ``guarantee_held`` carries one flag per executed stage (row stage first).
    ``residual`` is the max modulus mismatch between the reconstruction's
    transform and the observed values, over observed positions of rows marked
    Recovered. ``recovered`` holds only rows marked Recovered (others zero).
    """

    stage: RecoveryStage
    row_status: tuple
    residual: float
    guarantee_held: tuple
    recovered: Optional[Signal2D]


def ds_condition(support_size, missing_size, n: int, t: int = 1):
    """Product test ``support_size * missing_size < n*t/2`` (strict).

    The sizes may be integer arrays, tested elementwise into a bool array;
    integer sizes give a ``bool``.
    """
    if np.any(np.asarray(support_size) < 0) or np.any(np.asarray(missing_size) < 0):
        raise ValueError("sizes must be non-negative")
    if n < 1 or t < 1:
        raise ValueError("grid dimensions must be positive")
    held = 2 * support_size * missing_size < n * t
    return held if isinstance(held, np.ndarray) else bool(held)


# ----------------------------------------------------------------------------
# solver engine (signal orientation only; see _solve_oriented for the other)
# ----------------------------------------------------------------------------

def _forward(u: np.ndarray) -> np.ndarray:
    """Apply the unitary DFT along the last axis (unknown -> measurement space)."""
    n = u.shape[-1]
    return np.fft.fft(u, axis=-1) / math.sqrt(n)


def _adjoint(w: np.ndarray) -> np.ndarray:
    n = w.shape[-1]
    return np.fft.ifft(w, axis=-1) * math.sqrt(n)


def _normal_solve(S: np.ndarray, rhs: np.ndarray, spec: np.ndarray):
    """Solve ``A^H A x = rhs`` per row, ``A`` its observed DFT rows on its support ``S``.

    ``spec`` is the Hermitian part of each observed mask's FFT over ``n``, so
    Gram entry ``(i, j)`` is ``spec[(s_j - s_i) mod n]``. Rows of one support
    size solve as stacks of at most ``_GRAM_ENTRIES`` entries. ``ok`` is False
    (``x`` zero) where the Gram fails Cholesky (the full-rank test) or solve.
    """
    x = np.zeros(S.shape, dtype=np.complex128)
    ok = np.ones(len(S), dtype=bool)
    size = S.sum(axis=1)
    for s in np.flatnonzero(np.bincount(size)):
        group = np.nonzero(size == s)[0]
        step = max(1, _GRAM_ENTRIES // max(s * s, 1))  # a Gram past the cap solves alone
        for rows in (group[lo:lo + step] for lo in range(0, group.size, step)):
            sup = np.nonzero(S[rows])[1].reshape(rows.size, s)
            G = spec[rows[:, None, None], (sup[:, None, :] - sup[:, :, None]) % S.shape[1]]
            try:
                np.linalg.cholesky(G)
                x[rows[:, None], sup] = np.linalg.solve(G, rhs[rows[:, None], sup, None])[..., 0]
            except np.linalg.LinAlgError:  # bisect, so one such row costs its neighbours nothing
                ok[rows] = False
                for half in np.array_split(rows, 2) if rows.size > 1 else ():
                    x[half], ok[half] = _normal_solve(S[half], rhs[half], spec[half])
    return x, ok


def _polish(tier: np.ndarray, b: np.ndarray, obs: np.ndarray, feas: np.ndarray):
    """Least squares on each row's detected support, kept only with a dual certificate.

    A row has support tiers ``tier`` (how many of 1e-2, 1e-4 and 1e-6 of the
    peak each DR iterate entry exceeds), data ``b`` (zero where unobserved),
    observed mask ``obs`` and tolerance ``feas``. Its supports ``tier >= 3, 2,
    1`` are tried while they grow and fit in the observed count; acceptance
    needs full column rank, feasibility and a dual vector of modulus at most 1
    off the support. There is no dense fallback: a row whose Gram fails
    :func:`_normal_solve` is left to DR. Returns ``(accepted, solutions, residuals)``.
    """
    n = tier.shape[1]
    spec = np.fft.fft(obs, axis=1)
    # Hermitian to the bit, so every Gram built from it is too
    spec = (spec + spec[:, -np.arange(n) % n].conj()) / (2 * n)
    took = np.zeros(len(tier), dtype=bool)
    sols = np.zeros(tier.shape, dtype=np.complex128)
    resid = np.zeros(len(tier))
    size = np.zeros(len(tier), dtype=int)  # an all-zero row's empty support never grows
    for level in (3, 2, 1):
        S = tier >= level
        grown = S.sum(axis=1)
        i = np.nonzero(~took & (grown != size) & (grown <= obs.sum(axis=1)))[0]
        size = grown
        if i.size == 0:
            continue
        S, bi, oi, si = S[i], b[i], obs[i], spec[i]
        # no dense fallback: a Gram failing Cholesky has sigma_min(A) <~ 1e-8, so a dual needs
        # ||lam|| = ||E^H lam|| >= |<v_min, signs>|/sigma_min, past the checks' sqrt(n)(1 + 1e-7)
        coeffs, fitted = _normal_solve(S, _adjoint(bi), si)
        # drop numerically dead entries once, so the sign vector is meaningful
        mags = np.abs(coeffs)
        alive = mags > 1e-12 * np.maximum(mags.max(axis=1, keepdims=True), 1e-300)
        refit = fitted & (alive.sum(axis=1) < grown[i])
        if refit.any():
            S[refit] = alive[refit]
            coeffs[refit], fitted[refit] = _normal_solve(S[refit], _adjoint(bi[refit]), si[refit])
        res = _observed_residual(coeffs, bi, oi)
        # an exact-0 coefficient on the support has no sign, so no dual certificate
        j = np.nonzero(fitted & (res <= feas[i]) & ~(S & (coeffs == 0)).any(axis=1))[0]
        S, c = S[j], coeffs[j]
        signs = np.divide(c, np.abs(c), out=np.zeros_like(c), where=S)
        # dual E^H lam (E: observed DFT rows), lam = A (A^H A)^{-1} signs
        w, gram_ok = _normal_solve(S, signs, si[j])
        dual = _adjoint(oi[j] * _forward(w))
        j = j[gram_ok & (np.where(S, np.abs(dual - signs), 0.0).max(axis=1) <= 1e-8)
              & (np.where(S, 0.0, np.abs(dual)).max(axis=1) <= 1.0 + 1e-7)]
        took[i[j]] = True
        sols[i[j]] = coeffs[j]
        resid[i[j]] = res[j]
    return took, sols, resid


def _dr_step(z: np.ndarray, scale: np.ndarray, b: np.ndarray, obs: np.ndarray):
    """One Douglas-Rachford step from ``z``; returns ``(x, y)``.

    ``x`` is ``z`` soft-thresholded at a quarter of each row's ``scale``, and
    ``y`` the projection of its reflection ``2x - z`` onto the observed
    constraints.
    """
    mag = np.abs(z)
    x = z * np.maximum(1.0 - 0.25 * scale[:, None] / np.maximum(mag, 1e-300), 0.0)
    aw = _forward(2.0 * x - z)
    np.copyto(aw, b, where=obs)
    return x, _adjoint(aw)


def _observed_residual(u: np.ndarray, b: np.ndarray, obs: np.ndarray):
    """Per row, max modulus of the constraint mismatch where ``obs`` is set (0 if nowhere)."""
    return np.where(obs, np.abs(_forward(u) - b), 0.0).max(axis=-1)


def _solve_l1_batch(values: np.ndarray, missing_mask: np.ndarray, *,
                    tol: float = DEFAULT_FEAS_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """Solve a batch of independent 1D basis-pursuit instances.

    ``values`` is ``(B, n)`` complex holding observed transform values
    (missing entries are ignored); ``missing_mask`` is ``(B, n)`` bool.
    Returns ``(signals, converged, residuals, iterations)``: per row, the
    signal of least L1 norm matching the observations, and the max-modulus
    constraint mismatch.
    """
    missing = np.asarray(missing_mask, dtype=bool)
    vals = np.asarray(values, dtype=np.complex128)
    if vals.shape != missing.shape or vals.ndim != 2:
        raise ValueError("values and missing mask must share a (B, n) shape")
    B, n = vals.shape
    obs = ~missing
    b = np.where(obs, vals, 0.0 + 0.0j)
    if not np.all(np.isfinite(b)):
        raise ValueError("observed values must be finite")

    sols = np.zeros((B, n), dtype=np.complex128)
    conv = np.zeros(B, dtype=bool)
    resid = np.zeros(B, dtype=float)
    iters = np.zeros(B, dtype=int)

    # rows with every position observed invert directly
    full = obs.all(axis=1)
    if full.any():
        sols[full] = _adjoint(b[full])
        conv[full] = True

    pending = ~full
    # rows whose observations are all zero: the zero vector is the unique minimizer
    z0 = _adjoint(b[pending])
    scale = np.abs(z0).max(axis=1) if z0.size else np.zeros(0)
    pend_idx = np.nonzero(pending)[0]
    zero_rows = pend_idx[scale == 0.0]
    conv[zero_rows] = True

    act = scale > 0.0
    orig = pend_idx[act]
    if orig.size == 0:
        return sols, conv, resid, iters

    z = z0[act]
    bb = b[orig]
    oo = obs[orig]
    sc = scale[act]
    feas = tol * np.maximum(1.0, np.abs(bb).max(axis=1))

    it = 0
    check_every = 8
    while orig.size and it < max_iter:
        steps = min(check_every, max_iter - it)
        for _ in range(steps):
            x, y = _dr_step(z, sc, bb, oo)
            dz = y - x
            z += dz
        it += steps

        delta = np.abs(dz).max(axis=1)
        done = np.zeros(orig.size, dtype=bool)
        cand = np.nonzero((delta < 0.3 * sc) | (it >= max_iter))[0]
        for lo in range(0, cand.size, _POLISH_CHUNK):
            i = cand[lo:lo + _POLISH_CHUNK]
            mag = np.abs(x[i])
            tier = sum(mag > f * mag.max(axis=1, keepdims=True) for f in (1e-2, 1e-4, 1e-6))
            took, polished, pres = _polish(tier, bb[i], oo[i], feas[i])
            i = i[took]
            sols[orig[i]], resid[orig[i]] = polished[took], pres[took]
            done[i] = True
        # rows the polish did not take settle on the DR iterate once it stalls
        settled = ~done & (delta <= DEFAULT_CONV_TOL * sc)
        if settled.any():
            sols[orig[settled]] = y[settled]
            resid[orig[settled]] = _observed_residual(y[settled], bb[settled], oo[settled])
            done |= settled
        if done.any():
            conv[orig[done]] = True
            iters[orig[done]] = it
            keep = ~done
            orig, z, bb, oo, sc, feas = (a[keep] for a in (orig, z, bb, oo, sc, feas))

    # budget exhausted: report a final feasible iterate without claiming convergence
    if orig.size:
        _, y = _dr_step(z, sc, bb, oo)
        sols[orig] = y
        iters[orig] = it
        resid[orig] = _observed_residual(y, bb, oo)
    return sols, conv, resid, iters


def _solve_oriented(values, missing_mask, domain: L1Domain, tol: float, max_iter: int):
    """Solve either orientation with the signal-side engine, returning signals.

    ``MinimizeFreqL1`` is the conjugate of ``MinimizeSignalL1``. The unitary
    DFT is symmetric, so ``F^H u = conj(F conj(u))``, and conjugation keeps
    the L1 norm and the soft threshold. Matching samples ``s`` with the
    spectrum ``u`` of least L1 norm is therefore the signal-side problem for
    ``v = conj(u)`` against the data ``conj(s)``, and the signal is
    ``F^H u = conj(F v)``.
    """
    if domain is L1Domain.MinimizeSignalL1:
        return _solve_l1_batch(values, missing_mask, tol=tol, max_iter=max_iter)
    if domain is L1Domain.MinimizeFreqL1:
        sols, conv, resid, iters = _solve_l1_batch(np.conj(values), missing_mask, tol=tol,
                                                   max_iter=max_iter)
        return np.conj(_forward(sols)), conv, resid, iters
    raise ValueError(f"unknown domain {domain!r}")


# ----------------------------------------------------------------------------
# public 1D operations
# ----------------------------------------------------------------------------

def l1_recover_1d(observed, missing, n: int, domain: L1Domain = L1Domain.MinimizeSignalL1,
                  tol: float = DEFAULT_FEAS_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """Recover one length-``n`` signal from partial unitary-DFT data.

    ``observed`` maps positions to complex values and must cover exactly the
    complement of ``missing``. For ``MinimizeSignalL1`` the positions are
    transform-side (the surviving spectrum of an unknown signal); for
    ``MinimizeFreqL1`` they are signal-side samples and the spectrum's L1
    norm is minimized. Returns the recovered signal as ``n`` complex values,
    or None when the iteration budget runs out before convergence.
    """
    if n < 1:
        raise ValueError("n must be positive")
    missing = set(int(m) for m in missing)
    if any(not (0 <= m < n) for m in missing):
        raise ValueError("missing positions must lie in range(n)")
    expected = set(range(n)) - missing
    keys = set(int(k) for k in observed.keys())
    if keys != expected:
        raise ValueError("observed must cover exactly the complement of missing")

    vals = np.zeros((1, n), dtype=np.complex128)
    for k, v in observed.items():
        vals[0, int(k)] = v
    mask = np.zeros((1, n), dtype=bool)
    mask[0, sorted(missing)] = True
    sols, conv, _, _ = _solve_oriented(vals, mask, domain, tol, max_iter)
    if not conv[0]:
        return None
    return sols[0]


def l1_recover_many(values: np.ndarray, missing_mask: np.ndarray,
                    domain: L1Domain = L1Domain.MinimizeSignalL1,
                    tol: float = DEFAULT_FEAS_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """Vectorized form of :func:`l1_recover_1d` over independent instances.

    Each row of ``values``/``missing_mask`` is one instance; per-row results
    match the scalar op exactly (the scalar op is this engine with B=1).
    Returns ``(signals, converged, residuals)``.
    """
    return _solve_oriented(values, missing_mask, domain, tol, max_iter)[:3]


def uniqueness_oracle_1d(support, missing, n: int) -> bool:
    """Whether the observed positions pin down any signal on this support.

    That is, whether the unitary DFT submatrix on the non-missing transform
    rows and the support columns has full column rank. At prime ``n`` every
    square submatrix is nonsingular (Chebotarev; Tao 2005), so this is exactly
    ``|support| <= |observed|``; at composite ``n`` it is a numerical rank test
    at ``np.linalg.matrix_rank``'s default tolerance (well-posedness in floating
    point, not exact uniqueness). Independent of the L1 solver, it checks it.
    """
    if n < 1:
        raise ValueError("n must be positive")
    support = sorted(int(s) for s in set(support))
    missing = set(int(m) for m in missing)
    if support and not (0 <= support[0] and support[-1] < n):
        raise ValueError("support positions must lie in range(n)")
    if any(not (0 <= m < n) for m in missing):
        raise ValueError("missing positions must lie in range(n)")
    if not support:
        return True
    obs = np.array([m for m in range(n) if m not in missing], dtype=int)
    if len(support) > obs.size or not missing or all(n % d for d in range(2, math.isqrt(n) + 1)):
        # too many unknowns, the full unitary matrix, or a prime width (n = 1 included)
        return len(support) <= obs.size
    sub = np.exp(-2j * np.pi * np.outer(obs, support) / n) / math.sqrt(n)
    return int(np.linalg.matrix_rank(sub)) == len(support)


# ----------------------------------------------------------------------------
# grid pipelines
# ----------------------------------------------------------------------------

def _row_stage(problem: RecoveryProblem, tol: float, max_iter: int):
    """Solve every row of a row-transform grid on its own.

    Returns ``(solutions, ok, residuals, missing_counts)``: ``ok`` marks rows
    that converged with something observed. The engine ignores the NaN at
    missing positions and inverts erasure-free rows directly.
    """
    if problem.kind is not TransformKind.GaborRow:
        raise ValueError(f"row recovery expects GaborRow data, got {problem.kind.value}")
    m_counts = problem.pattern.mask.sum(axis=1)
    out, converged, resid, _ = _solve_l1_batch(problem.observed_values, problem.pattern.mask,
                                               tol=tol, max_iter=max_iter)
    return out, converged & (m_counts < problem.dims.n), resid, m_counts


def _report(problem: RecoveryProblem, stage: RecoveryStage, out: np.ndarray, ok: np.ndarray,
            residual: np.ndarray, guarantee: tuple) -> RecoveryReport:
    """Report rows ``ok`` as Recovered and zero the others in ``out`` (in place).

    ``residual`` is per row; the report keeps its maximum over rows ``ok``.
    The recovered signal is None when no row is ``ok``.
    """
    out[~ok] = 0.0
    return RecoveryReport(
        stage=stage,
        row_status=tuple(RowStatus.Recovered if r else RowStatus.Failed for r in ok),
        residual=float(residual[ok].max(initial=0.0)),
        guarantee_held=guarantee,
        recovered=Signal2D(dims=problem.dims, values=out) if ok.any() else None,
    )


def recover_rows(problem: RecoveryProblem, profile=None, tol: float = DEFAULT_FEAS_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> RecoveryReport:
    """Recover every row of a row-transform grid independently.

    Each row with erasures is solved by signal-side L1 minimization against
    its surviving transform values. With a support profile supplied, a row is
    Recovered only when the solve converged and the row's certificate
    ``support * missing < n/2`` holds; without one, any converged feasible
    row counts as Recovered (and the row-stage guarantee flag reflects that
    only erasure-free rows were certified). Rows with nothing observed are
    Failed.
    """
    if profile is not None:
        supports = np.asarray(profile.row_supports, dtype=int)
        if supports.shape != (problem.dims.t,):
            raise ValueError("profile row count does not match grid")
    out, ok, resid, m_counts = _row_stage(problem, tol, max_iter)
    # erasure-free rows are certified unconditionally, others by the profile
    cert = m_counts == 0
    if profile is not None:
        cert |= ds_condition(supports, m_counts, problem.dims.n)
        ok &= cert
    return _report(problem, RecoveryStage.RowOnly, out, ok, resid, (bool(cert[ok].all()),))


def recover_two_stage(problem: RecoveryProblem, col_transform_support_max: Optional[int] = None,
                      tol: float = DEFAULT_FEAS_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> RecoveryReport:
    """Row-wise recovery, then column-wise repair of rows that produced nothing.

    Stage 1 is :func:`recover_rows` without side information. If any rows
    fail, stage 2 treats their entries as missing down every column and runs
    the dual orientation (least spectral L1 matching the recovered samples)
    along columns. With ``col_transform_support_max`` supplied, columns are attempted
    only when ``(#failed rows) * col_transform_support_max < t/2`` certifies them;
    without it, every column is attempted optimistically. Repaired rows must
    stay consistent with their own surviving observations within ``tol`` or
    they are demoted back to Failed.
    """
    if col_transform_support_max is not None and col_transform_support_max < 1:
        raise ValueError("col_transform_support_max must be a positive integer")
    out, row_ok, resid, m_counts = _row_stage(problem, tol, max_iter)
    # without side information stage 1 certifies only erasure-free rows
    row_guarantee = bool((m_counts[row_ok] == 0).all())
    if row_ok.all():
        return _report(problem, RecoveryStage.RowOnly, out, row_ok, resid, (row_guarantee,))

    n, t = problem.dims.n, problem.dims.t
    certified = (col_transform_support_max is not None
                 and ds_condition(int((~row_ok).sum()), col_transform_support_max, t))
    attempt = certified or col_transform_support_max is None

    repaired_rows = np.zeros(t, dtype=bool)
    if attempt and row_ok.any():
        # every column shares the same missing rows: solve them all at once, and
        # repair the failed rows only if every column produced its entries
        cols, conv, _, _ = _solve_oriented(out.T, np.broadcast_to(~row_ok, (n, t)),
                                           L1Domain.MinimizeFreqL1, tol, max_iter)
        if conv.all():
            repaired_rows = ~row_ok
            out[repaired_rows] = cols.T[repaired_rows]

    # repaired rows must match their own observations; every row's residual is against them
    mask = problem.pattern.mask
    b = np.where(mask, 0.0 + 0.0j, problem.observed_values)
    row_err = _observed_residual(out, b, ~mask)
    demoted = repaired_rows & (row_err > tol * np.maximum(1.0, np.abs(b).max(axis=1)))
    col_guarantee = bool(certified) and not demoted.any()
    return _report(problem, RecoveryStage.RowThenColumn, out, row_ok | (repaired_rows & ~demoted),
                   row_err, (row_guarantee, col_guarantee))


def report_to_json(report: RecoveryReport) -> str:
    """Canonical JSON for a report; the guarantee flags collapse to their AND."""
    import json

    recovered = None
    if report.recovered is not None:
        flat = report.recovered.values.reshape(-1)
        recovered = {
            "n": report.recovered.dims.n,
            "t": report.recovered.dims.t,
            "re": [float(v) for v in flat.real],
            "im": [float(v) for v in flat.imag],
        }
    payload = {
        "stage": report.stage.value,
        "row_status": [s.value for s in report.row_status],
        "residual": float(report.residual),
        "guarantee_held": bool(all(report.guarantee_held)),
        "recovered": recovered,
    }
    return json.dumps(payload, sort_keys=True)
