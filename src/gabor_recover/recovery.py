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

import functools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .channel import RecoveryProblem
from .signal import Signal2D, signal_payload
from .transforms import TransformKind, _dft, _idft

__all__ = [
    "L1Domain",
    "RecoveryStage",
    "RowStatus",
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
# solver engine (signal orientation only; see l1_recover_many for the other)
# ----------------------------------------------------------------------------

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
        rhs = _idft(bi)
        coeffs, fitted = _normal_solve(S, rhs, si)
        # drop numerically dead entries once, so the sign vector is meaningful
        mags = np.abs(coeffs)
        alive = mags > 1e-12 * np.maximum(mags.max(axis=1, keepdims=True), 1e-300)
        refit = fitted & (alive.sum(axis=1) < grown[i])
        if refit.any():
            S[refit] = alive[refit]
            coeffs[refit], fitted[refit] = _normal_solve(S[refit], rhs[refit], si[refit])
        res = _observed_residual(coeffs, bi, oi)
        # an exact-0 coefficient on the support has no sign, so no dual certificate
        j = np.nonzero(fitted & (res <= feas[i]) & ~(S & (coeffs == 0)).any(axis=1))[0]
        S, c = S[j], coeffs[j]
        signs = np.divide(c, np.abs(c), out=np.zeros_like(c), where=S)
        # dual E^H lam (E: observed DFT rows), lam = A (A^H A)^{-1} signs
        w, gram_ok = _normal_solve(S, signs, si[j])
        dual = _idft(oi[j] * _dft(w))
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
    aw = _dft(2.0 * x - z)
    np.copyto(aw, b, where=obs)
    return x, _idft(aw)


def _observed_residual(u: np.ndarray, b: np.ndarray, obs: np.ndarray):
    """Per row, max modulus of the constraint mismatch where ``obs`` is set (0 if nowhere)."""
    return np.where(obs, np.abs(_dft(u) - b), 0.0).max(axis=-1)


def _solve_l1_batch(values: np.ndarray, missing_mask: np.ndarray, *,
                    tol: float = DEFAULT_FEAS_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """Solve a batch of independent 1D basis-pursuit instances.

    ``values`` is ``(B, n)`` complex holding observed transform values
    (missing entries are ignored); ``missing_mask`` is ``(B, n)`` bool, with
    ``n >= 1``. ``tol`` must be positive and finite, and ``max_iter`` a
    non-negative integer. Returns ``(signals, converged, residuals,
    iterations)``: per row, the signal of least L1 norm matching the
    observations, and the max-modulus constraint mismatch.
    """
    missing = np.asarray(missing_mask, dtype=bool)
    vals = np.asarray(values, dtype=np.complex128)
    if vals.shape != missing.shape or vals.ndim != 2:
        raise ValueError("values and missing mask must share a (B, n) shape")
    B, n = vals.shape
    if n < 1:
        raise ValueError("rows must have a positive width n")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 0:
        raise ValueError(f"max_iter must be a non-negative integer, got {max_iter!r}")
    obs = ~missing
    b = np.where(obs, vals, 0.0 + 0.0j)
    if not np.all(np.isfinite(b)):
        raise ValueError("observed values must be finite")

    # fully observed rows invert directly, and all-zero data has the zero vector as
    # its unique minimizer
    z0 = _idft(b)
    scale = np.abs(z0).max(axis=1)
    full = obs.all(axis=1)
    conv = full | (scale == 0.0)
    sols = np.zeros((B, n), dtype=np.complex128)
    sols[full] = z0[full]
    resid = np.zeros(B, dtype=float)
    iters = np.zeros(B, dtype=int)

    orig = np.nonzero(~conv)[0]
    z, bb, oo, sc = z0[orig], b[orig], obs[orig], scale[orig]
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
    sols, conv, _ = l1_recover_many(vals, mask, domain, tol, max_iter)
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

    This is the one caller of the signal-side engine. ``MinimizeFreqL1`` is
    the conjugate of ``MinimizeSignalL1``: the unitary DFT is symmetric, so
    ``F^H u = conj(F conj(u))``, and conjugation keeps the L1 norm and the
    soft threshold. Matching samples ``s`` with the spectrum ``u`` of least
    L1 norm is therefore the signal-side problem for ``v = conj(u)`` against
    the data ``conj(s)``, and the signal is ``F^H u = conj(F v)``.
    """
    if not isinstance(domain, L1Domain):
        raise ValueError(f"unknown domain {domain!r}")
    freq = domain is L1Domain.MinimizeFreqL1
    sols, conv, resid, _ = _solve_l1_batch(np.conj(values) if freq else values, missing_mask,
                                           tol=tol, max_iter=max_iter)
    return (np.conj(_dft(sols)) if freq else sols), conv, resid


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # decide every q < 3.1e23
_PRIMES_PAST = 2**62  # the exact rank works modulo primes past this


def _is_prime(q: int) -> bool:
    """Miller-Rabin primality, deterministic with these bases below 3.1e23."""
    if q < 2:
        return False
    for a in _MR_BASES:
        if q % a == 0:
            return q == a
    d, r = q - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(r - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=4096)
def _next_degree_one_prime(n: int, after: int) -> tuple[int, int]:
    """The first prime ``p = 1 (mod n)`` past ``after``, with an element ``w`` of order ``n`` mod ``p``."""
    p = after + 1 + (-after) % n
    while not _is_prime(p):
        p += n
    factors = [q for q in range(2, n + 1) if n % q == 0 and _is_prime(q)]
    w = next(w for w in (pow(g, (p - 1) // n, p) for g in range(2, p))
             if all(pow(w, n // q, p) != 1 for q in factors))
    return p, w


def _rank_mod(rows: list, p: int) -> int:
    """Rank over ``F_p`` of the matrix with these rows."""
    rank = 0
    while rows:
        pivot = rows.pop()
        c = next((i for i, v in enumerate(pivot) if v), None)
        if c is None:
            continue
        rank += 1
        inv = pow(pivot[c], -1, p)
        for i, row in enumerate(rows):
            if row[c]:
                f = row[c] * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(row, pivot)]
    return rank


def _dft_rank(rows, cols, n: int) -> int:
    """Exact rank of the DFT submatrix ``[zeta_n**(-j*k)]``, ``j`` in ``rows``, ``k`` in ``cols``.

    Each prime ``p = 1 (mod n)`` with ``w`` of order ``n`` mod ``p`` gives
    ``phi(n)`` prime ideals of norm ``p`` in ``Z[zeta_n]``, one per map
    ``zeta_n -> w**u`` with ``u`` a unit mod ``n``, and the rank modulo each
    is a lower bound on the rank. If the rank were more than ``r``, some
    ``(r+1)``-minor would be a nonzero algebraic integer, of norm at most
    ``(r+1)**((r+1)*phi(n)/2)`` (Hadamard, in every embedding), lying in
    every ideal where the rank is at most ``r``. So once the norms of those
    ideals multiply past that bound, the rank is ``r``.
    """
    units = [u for u in range(n) if math.gcd(u, n) == 1]
    full, rank, norms, p = min(len(rows), len(cols)), 0, 1, _PRIMES_PAST
    while True:
        p, w = _next_degree_one_prime(n, p)
        for u in units:
            power = [pow(w, u * t, p) for t in range(n)]
            rank = max(rank, _rank_mod([[power[-j * k % n] for j in rows] for k in cols], p))
            norms *= p
            if rank == full or norms**2 > (rank + 1) ** ((rank + 1) * len(units)):
                return rank


def uniqueness_oracle_1d(support, missing, n: int) -> bool:
    """Whether the observed positions pin down any signal on this support.

    That is, whether the DFT submatrix on the non-missing transform rows and
    the support columns has full column rank. It is exact at every ``n``.
    Beyond the trivial cases it decides, in order:

    1. Donoho-Stark (1989): two signals on the support that agree off the
       missing set differ by some ``g`` with ``|supp g| * |supp g^| >= n``
       unless ``g = 0``, so ``|support| * |missing| < n`` is unique;
    2. Chebotarev (Tao 2005): at prime ``n`` every square submatrix is
       nonsingular, so the pair is unique iff ``|support| <= |observed|``;
    3. otherwise the exact rank in ``Z[zeta_n]``, modulo prime ideals of
       degree one, in integer arithmetic.

    Independent of the L1 solver, it checks it.
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
    s, n_obs = len(support), n - len(missing)
    if s > n_obs or not missing or s * len(missing) < n or _is_prime(n):
        # too many unknowns, the full unitary matrix, Donoho-Stark, or Chebotarev
        return s <= n_obs
    observed = [m for m in range(n) if m not in missing]
    return _dft_rank(observed, support, n) == s


# ----------------------------------------------------------------------------
# grid pipelines
# ----------------------------------------------------------------------------

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
        guarantee_held=tuple(bool(g) for g in guarantee),
        recovered=Signal2D(dims=problem.dims, values=out) if ok.any() else None,
    )


def _recover_many(problems: list, profiles: Optional[list], col_maxes: Optional[list],
                  tol: float = DEFAULT_FEAS_TOL, max_iter: int = DEFAULT_MAX_ITER) -> list:
    """Reports of :func:`recover_rows`, or given ``col_maxes`` :func:`recover_two_stage`, per grid.

    The grids share one shape, and ``profiles`` and ``col_maxes`` hold each
    grid's argument. All rows share one engine call, and the columns of grids
    that attempt the repair one more; the engine solves each as it would alone.
    """
    for problem in problems:
        if problem.kind is not TransformKind.GaborRow:
            raise ValueError(f"row recovery expects GaborRow data, got {problem.kind.value}")
    if any(c is not None and c < 1 for c in col_maxes or ()):
        raise ValueError("col_transform_support_max must be a positive integer")
    mask = np.array([problem.pattern.mask for problem in problems])
    b = np.where(mask, 0.0 + 0.0j, [problem.observed_values for problem in problems])
    if profiles is not None:
        supports = np.array([profile.row_supports for profile in profiles], dtype=int)
        if supports.shape != mask.shape[:2]:
            raise ValueError("profile row count does not match grid")
    grids, t, n = mask.shape
    out, converged, resid = l1_recover_many(b.reshape(-1, n), mask.reshape(-1, n),
                                            tol=tol, max_iter=max_iter)
    out, resid, m_counts = out.reshape(mask.shape), resid.reshape(grids, t), mask.sum(axis=2)
    row_ok = converged.reshape(grids, t) & (m_counts < n)
    # erasure-free rows are certified unconditionally, others by the profile
    cert = m_counts == 0
    if profiles is not None:
        cert |= ds_condition(supports, m_counts, n)
        row_ok &= cert
    row_guarantee = ~(row_ok & ~cert).any(axis=1)
    if col_maxes is None:
        return [_report(p, RecoveryStage.RowOnly, o, k, r, (g,))
                for p, o, k, r, g in zip(problems, out, row_ok, resid, row_guarantee)]

    certified = np.array([c is not None and ds_condition(int(f), c, t)
                          for c, f in zip(col_maxes, (~row_ok).sum(axis=1))], dtype=bool)
    attempt = certified | [c is None for c in col_maxes]
    # each grid's columns share its missing rows: solve the columns of every attempting
    # grid at once, and repair a grid's failed rows only if all of its columns converged
    i = np.flatnonzero(attempt & row_ok.any(axis=1) & ~row_ok.all(axis=1))
    cols, conv, _ = l1_recover_many(out[i].transpose(0, 2, 1).reshape(-1, t),
                                    np.repeat(~row_ok[i], n, axis=0),
                                    L1Domain.MinimizeFreqL1, tol, max_iter)
    repaired = np.zeros_like(row_ok)
    repaired[i] = ~row_ok[i] & conv.reshape(-1, n).all(axis=1)[:, None]
    out[i] = np.where(repaired[i, :, None], cols.reshape(-1, n, t).transpose(0, 2, 1), out[i])

    # repaired rows must match their own observations; every row's residual is against them
    row_err = _observed_residual(out, b, ~mask)
    demoted = repaired & (row_err > tol * np.maximum(1.0, np.abs(b).max(axis=2)))
    col_guarantee = certified & ~demoted.any(axis=1)
    return [_report(p, RecoveryStage.RowOnly, o, k, r, (g,)) if k.all() else
            _report(p, RecoveryStage.RowThenColumn, o, k | (fix & ~dem), e, (g, c))
            for p, o, k, r, g, fix, dem, e, c in zip(problems, out, row_ok, resid, row_guarantee,
                                                      repaired, demoted, row_err, col_guarantee)]


def recover_rows(problem: RecoveryProblem, profile=None, tol: float = DEFAULT_FEAS_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> RecoveryReport:
    """Recover every row of a row-transform grid independently.

    Each row with erasures is solved by signal-side L1 minimization against
    its surviving transform values. With a support profile supplied, a row is
    Recovered only when the solve converged and the row's certificate
    ``support * missing < n/2`` holds; without one, any converged feasible
    row counts as Recovered (and the row-stage guarantee flag reflects that
    only erasure-free rows were certified). Rows with nothing observed are
    Failed. This is :func:`_recover_many` on one grid.
    """
    return _recover_many([problem], None if profile is None else [profile], None, tol,
                         max_iter)[0]


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
    they are demoted back to Failed. This is :func:`_recover_many` on one grid.
    """
    return _recover_many([problem], None, [col_transform_support_max], tol, max_iter)[0]


def report_to_json(report: RecoveryReport) -> str:
    """Canonical JSON for a report; the guarantee flags collapse to their AND."""
    import json

    payload = {
        "stage": report.stage.value,
        "row_status": [s.value for s in report.row_status],
        "residual": float(report.residual),
        "guarantee_held": bool(all(report.guarantee_held)),
        "recovered": None if report.recovered is None else signal_payload(report.recovered),
    }
    return json.dumps(payload, sort_keys=True)
