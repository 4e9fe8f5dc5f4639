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
unitary). A support-identification polish runs before the first step and at
every check: least-squares on the detected support, accepted only when the
result is feasible and L1-optimal. A support that passes Donoho-Stark against
the row's missing entries is optimal by that test alone; any other needs a
dual vector that certifies it. The polish builds no DFT matrix: Grams come off
the FFT of each observed mask and solve stacked by support size, each flagged
alone when it fails, with no dense fallback (DR keeps such a row), and the
duals take one FFT pair. The engine solves independent instances at once,
each exactly as it would alone.

Row-wise recovery applies the solve to each row of a grid independently,
optionally certifying rows through the product condition
``row_support * row_missing < n/2``. The two-stage pipeline repairs rows the
row stage could not produce by running the dual orientation down each column.
Both are one function on ``(G, t, n)`` stacks of grids, returning stacked
signals, row flags, residuals and guarantee flags; ``recover_rows`` and
``recover_two_stage`` are its one-grid case, and only they build a report.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .channel import RecoveryProblem
from .signal import Signal2D, _int_at_least, _strict_float, _strict_ints, signal_payload
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
# candidate row entries polished at once, as max(1, _POLISH_ENTRIES // n) rows of width n,
# which bounds the polish's memory at every width; experiments sizes its trial chunks by it,
# so that each takes one call
_POLISH_ENTRIES = 1 << 14
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

def _normal_solve(S: np.ndarray, rhs: np.ndarray, spec: np.ndarray,
                  test: Optional[np.ndarray] = None):
    """Solve ``A^H A x = rhs`` per row, ``A`` its observed DFT rows on its support ``S``.

    ``spec`` is the Hermitian part of each observed mask's FFT over ``n``, so
    Gram entry ``(i, j)`` is ``spec[(s_j - s_i) mod n]``. Rows of one support
    size factor and solve as stacks of at most ``_GRAM_ENTRIES`` entries, each
    Gram by its own LAPACK call, so a failed one costs its neighbours nothing.
    ``ok`` is False (``x`` zero) where the Gram fails Cholesky (the full-rank
    test) or solve, which numpy's gufuncs flag per matrix with NaN. Only the
    rows that ``test`` marks (every row when it is None) are factored: a row
    left out must have a Gram known to be positive definite.
    """
    x = np.zeros(S.shape, dtype=np.complex128)
    ok = np.ones(len(S), dtype=bool)
    size = S.sum(axis=1)
    test = np.ones(len(S), dtype=bool) if test is None else test
    with np.errstate(invalid="ignore"):
        for s in np.flatnonzero(np.bincount(size)):
            group = np.nonzero(size == s)[0]
            step = max(1, _GRAM_ENTRIES // max(s * s, 1))  # a Gram past the cap solves alone
            for rows in (group[lo:lo + step] for lo in range(0, group.size, step)):
                sup = np.nonzero(S[rows])[1].reshape(rows.size, s)
                G = spec[rows[:, None, None], (sup[:, None, :] - sup[:, :, None]) % S.shape[1]]
                sol = _umath_linalg.solve1(G, rhs[rows[:, None], sup], signature="DD->D")
                good = ~np.isnan(sol).any(axis=1)
                t = test[rows]
                if t.any():
                    factor = _umath_linalg.cholesky_lo(G[t], signature="D->D")
                    good[t] &= ~np.isnan(factor).any(axis=(1, 2))
                x[rows[good, None], sup[good]] = sol[good]
                ok[rows] = good
    return x, ok


def _run(a: np.ndarray, i: np.ndarray):
    """``a[i]`` as a view for increasing row indices ``i`` that are one run, else None."""
    return a[i[0]:i[-1] + 1] if i.size and i[-1] - i[0] == i.size - 1 else None


def _rows(a: np.ndarray, i: np.ndarray):
    """``a[i]`` for increasing row indices ``i``; a view, not a copy, when they are one run."""
    return a[i] if (run := _run(a, i)) is None else run


def _polish(mag: np.ndarray, b: np.ndarray, obs: np.ndarray, feas: np.ndarray,
            rhs: Optional[np.ndarray] = None):
    """Least squares on each row's detected support, kept only when it is L1-optimal.

    A row has DR iterate magnitudes ``mag``, data ``b`` (zero where unobserved),
    observed mask ``obs`` and tolerance ``feas``; ``rhs``, when given, is
    ``_idft(b)``, and when not, the polish makes it and drops it once its fits
    are solved. Its supports, the entries above 1e-2, 1e-4 and 1e-6 of its
    peak ``mag``, are tried while they grow and fit in the observed count;
    acceptance needs full column rank, feasibility and a dual vector of modulus
    at most 1 off the support. A support ``S`` that passes Donoho-Stark against
    the ``M`` missing entries has one: with ``r = |S||M|/n < 1/2`` the Gram's
    smallest eigenvalue is at least ``1 - r`` and the least-squares dual at most
    ``r/(1 - r) < 1`` off ``S``, so only the other rows factor their Gram and
    solve for it, and the dual solve factors nothing again. There is no
    dense fallback: a row whose Gram fails :func:`_normal_solve` is left to DR.
    Returns one ``(rows, coefficients, residuals)`` per level that accepts rows,
    of just those rows.
    """
    n = mag.shape[1]
    spec = np.fft.fft(obs, axis=1)
    # Hermitian to the bit, so every Gram built from it is too
    spec += np.conjugate(spec[:, -np.arange(n) % n])
    spec /= 2 * n
    took = np.zeros(len(mag), dtype=bool)
    fits = []
    size = np.zeros(len(mag), dtype=int)  # an all-zero row's empty support never grows
    seen, peak = obs.sum(axis=1), mag.max(axis=1, keepdims=True)
    for cut in (1e-2, 1e-4, 1e-6):
        S = mag > cut * peak
        grown = S.sum(axis=1)
        i = np.nonzero(~took & (grown != size) & (grown <= seen))[0]
        size = grown
        if i.size == 0:
            continue
        S, bi, oi, si = (_rows(a, i) for a in (S, b, obs, spec))
        missed = n - seen[i]
        certified = ds_condition(grown[i], missed, n)
        # no dense fallback: a Gram failing Cholesky has sigma_min(A) <~ 1e-8, so a dual needs
        # ||lam|| = ||E^H lam|| >= |<v_min, signs>|/sigma_min, past the checks' sqrt(n)(1 + 1e-7)
        ri = _idft(bi) if rhs is None else _rows(rhs, i)
        coeffs, fitted = _normal_solve(S, ri, si, ~certified)
        # drop numerically dead entries once, so the sign vector is meaningful
        mags = np.abs(coeffs)
        alive = mags > 1e-12 * np.maximum(mags.max(axis=1, keepdims=True), 1e-300)
        del mags
        refit = fitted & (alive.sum(axis=1) < grown[i])
        if refit.any():
            S[refit] = alive[refit]
            certified[refit] = ds_condition(S[refit].sum(axis=1), missed[refit], n)
            coeffs[refit], fitted[refit] = _normal_solve(S[refit], ri[refit], si[refit],
                                                         ~certified[refit])
        del ri
        res = _observed_residual(coeffs, bi, oi)
        # an exact-0 coefficient on the support has no sign, so no dual certificate
        ok = fitted & (res <= feas[i]) & ~(S & (coeffs == 0)).any(axis=1)
        j = np.nonzero(ok & ~certified)[0]
        if j.size:
            S, signs = S[j], coeffs[j]  # zero off S, where the signs are zero too
            np.divide(signs, np.abs(signs), out=signs, where=S)
            # dual E^H lam (E: observed DFT rows), lam = A (A^H A)^{-1} signs; each Gram
            # passed Cholesky in the fit, so none is factored again
            w, gram_ok = _normal_solve(S, signs, si[j], np.zeros(j.size, dtype=bool))
            dual = _idft(oi[j] * _dft(w))
            ok[j] = (gram_ok & (np.where(S, np.abs(dual - signs), 0.0).max(axis=1) <= 1e-8)
                     & (np.where(S, 0.0, np.abs(dual)).max(axis=1) <= 1.0 + 1e-7))
        i, coeffs, res = i[ok], coeffs[ok], res[ok]
        if i.size:
            took[i] = True
            fits.append((i, coeffs, res))
    return fits


def _shrink(z: np.ndarray, scale: np.ndarray):
    """``z`` soft-thresholded at a quarter of each row's ``scale``."""
    return z * np.maximum(1.0 - 0.25 * scale[:, None] / np.maximum(np.abs(z), 1e-300), 0.0)


def _dr_step(z: np.ndarray, scale: np.ndarray, b: np.ndarray, obs: np.ndarray):
    """One Douglas-Rachford step from ``z``; returns ``(x, y)``.

    ``x`` is :func:`_shrink` of ``z``, and ``y`` the projection of its
    reflection ``2x - z`` onto the observed constraints.
    """
    x = _shrink(z, scale)
    aw = _dft(2.0 * x - z)
    np.copyto(aw, b, where=obs)
    return x, _idft(aw)


def _observed_residual(u: np.ndarray, b: np.ndarray, obs: np.ndarray):
    """Per row, max modulus of the constraint mismatch where ``obs`` is set (0 if nowhere)."""
    diff = _dft(u)
    diff -= b
    diff[~obs] = 0.0
    return np.abs(diff).max(axis=-1)


def _solve_l1_batch(values: np.ndarray, missing_mask: np.ndarray, *,
                    tol: float = DEFAULT_FEAS_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """Solve a batch of independent 1D basis-pursuit instances.

    ``values`` is ``(B, n)`` complex holding observed transform values
    (missing entries are ignored); ``missing_mask`` is ``(B, n)`` bool, with
    ``n >= 1``. ``tol`` must be positive and finite, and ``max_iter`` a
    non-negative integer. Returns ``(signals, converged, residuals,
    iterations)``: per row, the signal of least L1 norm matching the
    observations, and its max-modulus mismatch there (a fully observed row's too).

    The first check comes at iteration 0, before any DR step, and runs at
    every budget: every row is polished on ``z0`` soft-thresholded as a step
    would, and the rows it takes report 0 iterations. It reads the entry
    arrays a polish chunk at a time, and only the rows it leaves are gathered
    to run 8-step blocks from their untouched ``z0``, with a check after each.
    ``z0`` lives in the returned signals until each row is done, and a chunk
    whose candidates are not one run is gathered without it, its polish
    inverting the gathered data itself. A check polishes its candidate rows
    ``_POLISH_ENTRIES // n`` at a time (at least one), and no row's result
    depends on the batch it is polished in.
    """
    missing = np.asarray(missing_mask, dtype=bool)
    vals = np.asarray(values, dtype=np.complex128)
    if vals.shape != missing.shape or vals.ndim != 2:
        raise ValueError("values and missing mask must share a (B, n) shape")
    B, n = vals.shape
    if n < 1:
        raise ValueError("rows must have a positive width n")
    tol = _strict_float(tol, "tol")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    max_iter = _int_at_least(max_iter, "max_iter", 0)
    obs = ~missing
    b = np.where(obs, vals, 0.0 + 0.0j)
    if not np.all(np.isfinite(b)):
        raise ValueError("observed values must be finite")

    # fully observed rows invert directly, and all-zero data has the zero vector as
    # its unique minimizer. sols holds the inverse z0, and the DR iterate where DR runs on
    # a view of it; a row's entries there become its result when it is done, after which
    # no iterate reads them
    sols = _idft(b)
    scale = np.abs(sols).max(axis=1)
    full = obs.all(axis=1)
    conv = full | (scale == 0.0)
    sols[conv & ~full] = 0.0  # +0 whatever signs of zero the data had
    resid = np.zeros(B, dtype=float)
    if full.any():
        resid[full] = _observed_residual(sols[full], b[full], obs[full])
    iters = np.zeros(B, dtype=int)

    # the first check polishes the entry arrays, every unsolved row a candidate, and only
    # the rows it leaves are gathered for DR; nothing has moved yet, so nothing settles there
    orig, z, bb, oo, sc, done = np.arange(B), sols, b, obs, scale, conv.copy()
    feas = tol * np.maximum(1.0, np.abs(b).max(axis=1))
    it, check_every, chunk, delta = 0, 8, max(1, _POLISH_ENTRIES // n), np.inf
    while orig.size:
        cand = np.nonzero(~done & ((delta < 0.3 * sc) | (it == 0) | (it >= max_iter)))[0]
        for lo in range(0, cand.size, chunk):
            i = cand[lo:lo + chunk]
            # at the first check z is still _idft(b), shrunk here as a step would, and the
            # polish reads it in place where i is one run, or makes its own
            mag = np.abs(_shrink(_rows(z, i), sc[i]) if it == 0 else _rows(x, i))
            for k, c, r in _polish(mag, _rows(bb, i), _rows(oo, i), feas[i],
                                   _run(z, i) if it == 0 else None):
                sols[orig[i[k]]], resid[orig[i[k]]], done[i[k]] = c, r, True
        # rows the polish did not take settle on the DR iterate once it stalls
        settled = ~done & (delta <= DEFAULT_CONV_TOL * sc)
        if settled.any():
            sols[orig[settled]] = y[settled]
            resid[orig[settled]] = _observed_residual(y[settled], bb[settled], oo[settled])
            done |= settled
        if done.any():
            conv[orig[done]], iters[orig[done]] = True, it
            keep = np.nonzero(~done)[0]
            orig, z, bb, oo, sc, feas = (_rows(a, keep) for a in (orig, z, bb, oo, sc, feas))
        if it >= max_iter or not orig.size:
            break
        done = np.zeros(orig.size, dtype=bool)
        steps = min(check_every, max_iter - it)
        for _ in range(steps):
            x, y = _dr_step(z, sc, bb, oo)
            dz = y - x
            z += dz
        it += steps
        delta = np.abs(dz).max(axis=1)

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
    or None when the iteration budget runs out before convergence. The
    polish before the first step is not an iteration, so at ``max_iter=0``
    this is the row that polish certifies, or None where it does not.
    """
    n = _int_at_least(n, "n")
    missing = _strict_ints(missing, "missing position")
    if any(not (0 <= m < n) for m in missing):
        raise ValueError("missing positions must lie in range(n)")
    expected = set(range(n)) - missing
    keys = _strict_ints(observed.keys(), "observed key")
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
    Returns ``(signals, converged, residuals)``, each residual the returned row's
    max-modulus observed mismatch (a fully observed row's too, not 0).

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
    n = _int_at_least(n, "n")
    support = sorted(_strict_ints(support, "support position"))
    missing = _strict_ints(missing, "missing position")
    if support and not (0 <= support[0] and support[-1] < n):
        raise ValueError("support positions must lie in range(n)")
    if missing and not (0 <= min(missing) and max(missing) < n):
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

def _recover_many(b: np.ndarray, mask: np.ndarray, supports: Optional[np.ndarray],
                  col_maxes: Optional[list], tol=DEFAULT_FEAS_TOL, max_iter=DEFAULT_MAX_ITER):
    """:func:`recover_rows`, or given ``col_maxes`` :func:`recover_two_stage`, on a stack of grids.

    ``b`` (zero where missing) and ``mask`` are ``(G, t, n)``, ``supports`` the row
    supports ``(G, t)`` or None, and ``col_maxes`` each grid's column bound (at
    least 1, or None to attempt unbounded) or None for no column stage. One engine call
    solves every row, or given supports only the certified ones (the rest fail
    unsolved), and one more the columns of grids that attempt the repair; the engine
    solves each as it would alone. Returns per grid the signals zeroed off rows ``ok``,
    ``ok``, their max residual (the engine's, recomputed where columns replaced rows),
    both guarantee flags and whether the column stage ran.
    """
    grids, t, n = mask.shape
    if b.shape != mask.shape:
        raise ValueError("values and missing mask must share a (G, t, n) shape")
    m_counts = mask.sum(axis=2)
    # erasure-free rows are certified unconditionally, others by their supports
    cert = m_counts == 0
    if supports is not None:
        cert |= ds_condition(supports, m_counts, n)
    solve = cert | (supports is None)
    rows = np.nonzero(solve.ravel())[0]
    solved = l1_recover_many(*(_rows(a.reshape(-1, n), rows) for a in (b, mask)), tol=tol,
                             max_iter=max_iter)
    if rows.size < solve.size:  # the rows left out fail unsolved
        out, converged, resid = (np.zeros(solve.shape + a.shape[1:], a.dtype) for a in solved)
        out[solve], converged[solve], resid[solve] = solved
    else:  # every row solved: the engine's arrays are the stack's
        out, converged, resid = (a.reshape(solve.shape + a.shape[1:]) for a in solved)
    ok = converged & (m_counts < n)
    row_guarantee = ~(ok & ~cert).any(axis=1)
    certified = column_stage = np.zeros(grids, dtype=bool)
    if col_maxes is not None:
        bounded = np.array([c is not None for c in col_maxes], dtype=bool)
        bounds = np.array([0 if c is None else c for c in col_maxes])
        certified = bounded & ds_condition((~ok).sum(axis=1), bounds, t)
        # each grid's columns share its missing rows: solve the columns of every attempting
        # grid at once, and repair a grid's failed rows only if all of its columns converged
        column_stage = ~ok.all(axis=1)
        i = np.flatnonzero((certified | ~bounded) & ok.any(axis=1) & column_stage)
        if i.size:
            cols, conv, _ = l1_recover_many(out[i].transpose(0, 2, 1).reshape(-1, t),
                                            np.repeat(~ok[i], n, axis=0),
                                            L1Domain.MinimizeFreqL1, tol, max_iter)
            repaired = ~ok[i] & conv.reshape(-1, n).all(axis=1)[:, None]
            out[i] = np.where(repaired[:, :, None], cols.reshape(-1, n, t).swapaxes(1, 2), out[i])
            resid[i] = _observed_residual(out[i], b[i], ~mask[i])
            # repaired rows must match their own observations
            demoted = repaired & (resid[i] > tol * np.maximum(1.0, np.abs(b[i]).max(axis=2)))
            ok[i] |= repaired & ~demoted
            certified[i] &= ~demoted.any(axis=1)
    out[~ok] = 0.0
    residual = np.where(ok, resid, 0.0).max(axis=1)
    return out, ok, residual, row_guarantee, certified, column_stage


def _report(problem: RecoveryProblem, profile, col_maxes, tol, max_iter) -> RecoveryReport:
    """:func:`_recover_many` on one problem's grid; ``recovered`` is None if no row is."""
    if problem.kind is not TransformKind.GaborRow:
        raise ValueError(f"row recovery expects GaborRow data, got {problem.kind.value}")
    mask = problem.pattern.mask[None]
    supports = None if profile is None else np.array([profile.row_supports], dtype=int)
    if supports is not None and supports.shape != mask.shape[:2]:
        raise ValueError("profile row count does not match grid")
    out, ok, residual, row_guarantee, col_guarantee, column_stage = (
        grid[0] for grid in _recover_many(np.where(mask, 0.0 + 0.0j, problem.observed_values),
                                          mask, supports, col_maxes, tol, max_iter))
    return RecoveryReport(
        stage=RecoveryStage.RowThenColumn if column_stage else RecoveryStage.RowOnly,
        row_status=tuple(RowStatus.Recovered if r else RowStatus.Failed for r in ok),
        residual=float(residual),
        guarantee_held=(bool(row_guarantee), bool(col_guarantee))[:1 + column_stage],
        recovered=Signal2D(dims=problem.dims, values=out) if ok.any() else None,
    )


def recover_rows(problem: RecoveryProblem, profile=None, tol: float = DEFAULT_FEAS_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> RecoveryReport:
    """Recover every row of a row-transform grid independently.

    Each row with erasures is solved by signal-side L1 minimization against
    its surviving transform values. With a support profile supplied, only rows
    whose certificate ``support * missing < n/2`` holds are solved, and one is
    Recovered when its solve converged; the rest are Failed unsolved. Without
    one, any converged feasible row counts as Recovered (and the row-stage
    guarantee flag reflects that only erasure-free rows were certified). Rows
    with nothing observed are Failed. This is :func:`_recover_many` on one grid.
    """
    return _report(problem, profile, None, tol, max_iter)


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
    bound = col_transform_support_max
    bound = None if bound is None else _int_at_least(bound, "col_transform_support_max")
    return _report(problem, None, [bound], tol, max_iter)


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
