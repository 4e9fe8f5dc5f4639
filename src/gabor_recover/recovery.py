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
vector certifies L1 optimality. Each solve builds the width's unitary DFT
matrix once, and the polish slices a row's observed rows from it; nothing is
kept between solves. The engine is vectorized over independent
instances; per-instance behavior is identical to solving one at a time.

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


def _constraint_submatrix(n: int, obs_idx: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Unitary DFT matrix restricted to observed rows and support columns."""
    phases = -2j * np.pi * np.outer(obs_idx, support) / n
    return np.exp(phases) / math.sqrt(n)


def _support_fit(E: np.ndarray, support: np.ndarray, b_obs: np.ndarray):
    """Least squares of ``b_obs`` on the ``support`` columns of ``E``.

    Returns ``(A, coeffs, gram)``, where ``gram`` is None when ``lstsq`` stood
    in for the normal equations, or None when the columns are rank deficient.
    """
    A = E[:, support]
    gram = A.conj().T @ A
    # Cholesky doubles as the full-rank test; the Gram of a certified
    # instance is well conditioned, so normal equations are safe
    try:
        np.linalg.cholesky(gram)
        return A, np.linalg.solve(gram, A.conj().T @ b_obs), gram
    except np.linalg.LinAlgError:
        coeffs, _, rank, _ = np.linalg.lstsq(A, b_obs, rcond=None)
        return (A, coeffs, None) if rank == support.size else None


def _polish_row(x: np.ndarray, b: np.ndarray, obs: np.ndarray, F: np.ndarray,
                feas_tol: float):
    """Least-squares on the detected support, kept only with a dual certificate.

    ``obs`` is the row's boolean observed mask and ``F`` the width's unitary
    DFT matrix, whose observed rows are the constraint operator.
    Returns ``(solution, residual)`` with the exact minimizer (full-length)
    or ``(None, 0.0)``. Acceptance needs: the support system solvable with
    full column rank, feasibility within ``feas_tol``, and a dual vector with
    unit-or-less modulus off the support (so the candidate really minimizes
    the L1 norm).
    """
    n = x.shape[0]
    mag = np.abs(x)
    top = mag.max()
    if top == 0.0:
        return None, 0.0
    b_obs = b[obs]
    E = F[obs]
    prev_size = -1
    for frac in (1e-2, 1e-4, 1e-6):
        support = np.nonzero(mag > frac * top)[0]
        if support.size == prev_size:
            continue
        prev_size = support.size
        if support.size > b_obs.size:
            continue
        fit = _support_fit(E, support, b_obs)
        if fit is None:
            continue
        # drop numerically dead entries once, so the sign vector is meaningful
        coeffs = fit[1]
        alive = np.abs(coeffs) > 1e-12 * max(np.abs(coeffs).max(), 1e-300)
        if not alive.all():
            support = support[alive]
            if support.size == 0:
                if np.abs(b_obs).max(initial=0.0) <= feas_tol:
                    return np.zeros(n, dtype=np.complex128), 0.0
                continue
            fit = _support_fit(E, support, b_obs)
            if fit is None:
                continue
        A, coeffs, gram = fit
        residual = float(np.abs(A @ coeffs - b_obs).max(initial=0.0))
        if residual > feas_tol:
            continue
        signs = coeffs / np.abs(coeffs)
        # minimum-norm dual: solve (A^H) lam = signs
        if gram is not None:
            lam = A @ np.linalg.solve(gram, signs)
        else:
            lam, _, _, _ = np.linalg.lstsq(A.conj().T, signs, rcond=None)
        # "not <=" so that NaN signs (an exact-0 refit coefficient) fail both checks
        if not np.abs(A.conj().T @ lam - signs).max(initial=0.0) <= 1e-8:
            continue
        dual = E.conj().T @ lam
        dual[support] = 0.0
        if not np.abs(dual).max(initial=0.0) <= 1.0 + 1e-7:
            continue
        out = np.zeros(n, dtype=np.complex128)
        out[support] = coeffs
        return out, residual
    return None, 0.0


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

    F = _constraint_submatrix(n, np.arange(n), np.arange(n))
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
        for i in np.nonzero((delta < 0.3 * sc) | (it >= max_iter))[0]:
            polished, pres = _polish_row(x[i], bb[i], oo[i], F, feas[i])
            if polished is not None:
                k = orig[i]
                sols[k] = polished
                conv[k] = True
                resid[k] = pres
                iters[k] = it
                done[i] = True
        # rows the polish did not take settle on the DR iterate once it stalls
        settled = ~done & (delta <= DEFAULT_CONV_TOL * sc)
        if settled.any():
            k = orig[settled]
            sols[k] = y[settled]
            conv[k] = True
            resid[k] = _observed_residual(y[settled], bb[settled], oo[settled])
            iters[k] = it
            done |= settled
        if done.any():
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
    """Whether the observed positions numerically pin down any signal on this support.

    Numerical rank test: the unitary DFT submatrix with non-missing transform
    rows and the given support columns must have full column rank at
    ``np.linalg.matrix_rank``'s default tolerance. That is well-posedness in
    floating point, not exact uniqueness: at prime widths every such
    submatrix has full rank (Chebotarev), yet at ``n = 257`` some
    contiguous missing blocks with ``|support| = n - |missing|`` are
    rejected. Independent of the L1 solver; used as its ground-truth check.
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
    if len(support) > obs.size:
        return False
    if not missing:
        # full unitary matrix: every column subset is orthonormal
        return True
    sub = _constraint_submatrix(n, obs, np.array(support, dtype=int))
    return int(np.linalg.matrix_rank(sub)) == len(support)


# ----------------------------------------------------------------------------
# grid pipelines
# ----------------------------------------------------------------------------

def _row_certificates(m_counts: np.ndarray, n: int, profile) -> np.ndarray:
    """Per-row uniqueness certificates from side information.

    Erasure-free rows are certified unconditionally; others need the profile's
    support count to satisfy the product test against the row's missing count.
    """
    t = m_counts.shape[0]
    cert = m_counts == 0
    if profile is not None:
        supports = np.asarray(profile.row_supports, dtype=int)
        if supports.shape != (t,):
            raise ValueError("profile row count does not match grid")
        cert = cert | ds_condition(supports, m_counts, n)
    return cert


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
    if problem.kind is not TransformKind.GaborRow:
        raise ValueError(f"row recovery expects GaborRow data, got {problem.kind.value}")
    n, t = problem.dims.n, problem.dims.t
    mask = problem.pattern.mask
    m_counts = mask.sum(axis=1)

    # the engine ignores the NaN at missing positions and inverts erasure-free
    # rows directly; fully erased rows fail below
    out, converged, row_resid, _ = _solve_l1_batch(problem.observed_values, mask, tol=tol,
                                                   max_iter=max_iter)

    cert = _row_certificates(m_counts, n, profile)
    recovered_rows = converged & (m_counts < n)
    if profile is not None:
        recovered_rows &= cert

    statuses = tuple(
        RowStatus.Recovered if recovered_rows[a] else RowStatus.Failed for a in range(t)
    )
    out[~recovered_rows] = 0.0
    guarantee = bool(recovered_rows.size == 0 or cert[recovered_rows].all())
    residual = float(row_resid[recovered_rows].max()) if recovered_rows.any() else 0.0
    signal = Signal2D(dims=problem.dims, values=out) if recovered_rows.any() else None
    return RecoveryReport(
        stage=RecoveryStage.RowOnly,
        row_status=statuses,
        residual=residual,
        guarantee_held=(guarantee,),
        recovered=signal,
    )


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
    stage1 = recover_rows(problem, profile=None, tol=tol, max_iter=max_iter)
    row_ok = np.array([s is RowStatus.Recovered for s in stage1.row_status], dtype=bool)
    if row_ok.all():
        return stage1

    n, t = problem.dims.n, problem.dims.t
    k_missing = int((~row_ok).sum())
    certified = (col_transform_support_max is not None
                 and ds_condition(k_missing, col_transform_support_max, t))
    attempt = certified or col_transform_support_max is None

    out = np.zeros((t, n), complex) if stage1.recovered is None else stage1.recovered.values.copy()
    repaired_rows = np.zeros(t, dtype=bool)
    if attempt and row_ok.any():
        # every column shares the same missing rows: solve them all at once, and
        # repair the failed rows only if every column produced its entries
        cols, conv, _, _ = _solve_oriented(out.T, np.broadcast_to(~row_ok, (n, t)),
                                           L1Domain.MinimizeFreqL1, tol, max_iter)
        if conv.all():
            repaired_rows = ~row_ok
            out[repaired_rows] = cols.T[repaired_rows]

    # consistency: repaired rows must match their own surviving observations
    mask = problem.pattern.mask
    b = np.where(mask, 0.0 + 0.0j, problem.observed_values)
    row_err = _observed_residual(out, b, ~mask)
    demoted = repaired_rows & (row_err > tol * np.maximum(1.0, np.abs(b).max(axis=1)))
    repaired_rows &= ~demoted

    final_ok = row_ok | repaired_rows
    out[~final_ok] = 0.0
    statuses = tuple(
        RowStatus.Recovered if final_ok[a] else RowStatus.Failed for a in range(t)
    )

    # residual across all recovered rows, against the original observations
    residual = float(row_err[final_ok].max(initial=0.0))
    col_guarantee = bool(certified) and not demoted.any()
    signal = Signal2D(dims=problem.dims, values=out) if final_ok.any() else None
    return RecoveryReport(
        stage=RecoveryStage.RowThenColumn,
        row_status=statuses,
        residual=residual,
        guarantee_held=(stage1.guarantee_held[0], col_guarantee),
        recovered=signal,
    )


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
