"""Dense two-phase simplex: slack-basis start, Dantzig pricing, Bland fallback.

Solves  min c.x  s.t.  A_ub x <= b_ub,  lo <= x <= hi
where bounds may be infinite. The solver is dimensioned for the small problems
this package produces (a few hundred variables); swap in another
implementation via the ``solver`` argument of ``lp.solve`` if that stops being
true.

- **Start.** After standardization every row with rhs >= 0 starts with its
  slack basic. Only the rows with a negative rhs get an artificial column,
  and the phase-1 cost row sums those rows only. An LP that is feasible at
  the shifted origin skips phase 1. The slack block gives the constraint
  matrix full row rank, so every artificial left basic after phase 1 can
  pivot on a structural column.
- **Entering column.** Dantzig's rule: the most negative reduced cost, first
  index on ties. After ``DEGENERATE_LIMIT`` consecutive degenerate pivots
  (zero step) the solver takes Bland's smallest-index entering rule until the
  next nondegenerate pivot, which excludes cycling (Bland 1977, "New finite
  pivoting rules for the simplex method").
- **Leaving row.** The minimum ratio, smallest basis index on ties (Bland's
  leaving rule). The ratio test scans Python floats in row order, and a pivot
  updates only the columns where the pivot row is nonzero.
- **Limits.** ``max_iters`` pivots over both phases; an optional ``deadline``
  (a ``time.monotonic()`` value) is checked every ``DEADLINE_EVERY`` pivots
  and stops the solve with status "time-limit".

Every run is deterministic, and the pivot sequence is part of the contract:
the entering column, the leaving row, the pivot count and the bytes of the
solution must not change, because the synthesized inputs, and so every
report, follow from them. ``tests/test_simplex.py::TestPivotPathGolden`` pins
them on two fixed-seed LP families, re-recorded for this pivot rule.

No scipy (HiGHS) backend is used. On a 2-vCPU x86 virtual machine (Python
3.11, scipy 1.17.1), importing ``scipy.optimize`` after this package took
0.6 s and raised the peak RSS from 29 MB to 77 MB, far past the benchmark's
10% RSS bound; and a different solver lands on other optimal vertices, which
changes the reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

PIVOT_TOL = 1e-9
DEFAULT_MAX_ITERS = 10_000
DEGENERATE_LIMIT = 10  # consecutive degenerate pivots before Bland's entering rule
DEADLINE_EVERY = 50  # pivots between two looks at the deadline


@dataclass
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration-limit" | "time-limit"
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int


def _as_2d(a, ncols: int) -> np.ndarray:
    if a is None:
        return np.zeros((0, ncols))
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return arr


def _standardize(c, A_ub, b_ub, bounds):
    """Rewrite into  min c_std.y  s.t.  A y <= b, y >= 0.

    Returns the standard-form pieces plus the affine map x = offset + M y that
    recovers the original variables.
    """
    c = np.asarray(c, dtype=np.float64)
    n = c.size
    A_ub = _as_2d(A_ub, n)
    b_ub = np.asarray(b_ub, dtype=np.float64) if b_ub is not None else np.zeros(0)
    if bounds is None:
        bounds = [(None, None)] * n

    cols: list[tuple[int, float]] = []  # (original var, sign) per standard column
    offset = np.zeros(n)
    extra_rows: list[tuple[int, float]] = []  # (std col, rhs) for y <= rhs rows
    for j, (lo, hi) in enumerate(bounds):
        lo_f = -np.inf if lo is None else float(lo)
        hi_f = np.inf if hi is None else float(hi)
        if np.isfinite(lo_f):
            offset[j] = lo_f
            cols.append((j, 1.0))
            if np.isfinite(hi_f):
                extra_rows.append((len(cols) - 1, hi_f - lo_f))
        elif np.isfinite(hi_f):
            offset[j] = hi_f
            cols.append((j, -1.0))
        else:
            cols.append((j, 1.0))
            cols.append((j, -1.0))

    n_std = len(cols)
    M = np.zeros((n, n_std))
    for col, (j, sign) in enumerate(cols):
        M[j, col] = sign

    c_std = c @ M
    A_ub_std = A_ub @ M
    b_ub_std = b_ub - A_ub @ offset
    if extra_rows:
        rows = np.zeros((len(extra_rows), n_std))
        rhs = np.zeros(len(extra_rows))
        for r, (col, bound) in enumerate(extra_rows):
            rows[r, col] = 1.0
            rhs[r] = bound
        A_ub_std = np.vstack([A_ub_std, rows])
        b_ub_std = np.concatenate([b_ub_std, rhs])
    return c_std, A_ub_std, b_ub_std, M, offset


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    # Columns where the pivot row is zero would only have zero subtracted.
    cols = np.flatnonzero(T[row])
    factors = T[:, col].copy()
    factors[row] = 0.0
    T[:, cols] -= factors[:, None] * T[row, cols]
    basis[row] = col


def _enter(cost_row: np.ndarray, bland: bool) -> Optional[int]:
    """Dantzig: the most negative reduced cost, first index on ties.
    Bland: the first negative reduced cost. None when no cost is negative."""
    if bland:
        neg = np.flatnonzero(cost_row < -PIVOT_TOL)
        return int(neg[0]) if neg.size else None
    col = int(np.argmin(cost_row))
    return col if cost_row[col] < -PIVOT_TOL else None


def _leave(T: np.ndarray, basis: np.ndarray, col: int, m: int) -> tuple[Optional[int], float]:
    """Minimum-ratio row, smallest basis index on ties, and its ratio."""
    # One conversion to Python numbers per pivot; indexing numpy scalars row
    # by row costs more than the scan itself.
    column, rhs, basis = T[:m, col].tolist(), T[:m, -1].tolist(), basis.tolist()
    best_row, best_ratio = None, 0.0
    for i, a in enumerate(column):
        if a > PIVOT_TOL:
            ratio = rhs[i] / a
            if (
                best_row is None
                or ratio < best_ratio - PIVOT_TOL
                or (abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < basis[best_row])
            ):
                best_row, best_ratio = i, ratio
    return best_row, best_ratio


def _run_phase(T, basis, m, allowed, obj_row, max_iters, iters, deadline):
    """Pivot until optimal / unbounded / iteration or time limit. Returns (status, iters)."""
    degenerate = 0  # consecutive pivots that left the point where it was
    while True:
        if iters >= max_iters:
            return "iteration-limit", iters
        if deadline is not None and iters % DEADLINE_EVERY == 0 and time.monotonic() > deadline:
            return "time-limit", iters
        col = _enter(T[obj_row, :allowed], bland=degenerate >= DEGENERATE_LIMIT)
        if col is None:
            return "optimal", iters
        row, ratio = _leave(T, basis, col, m)
        if row is None:
            return "unbounded", iters
        degenerate = degenerate + 1 if ratio <= PIVOT_TOL else 0
        _pivot(T, basis, row, col)
        iters += 1


def solve_lp(
    c,
    A_ub=None,
    b_ub=None,
    bounds=None,
    max_iters: int = DEFAULT_MAX_ITERS,
    deadline: Optional[float] = None,
) -> SimplexResult:
    """Minimize c.x subject to inequality rows and variable bounds.

    ``deadline`` is a ``time.monotonic()`` value; once it has passed, the
    solve stops with status "time-limit" (checked every ``DEADLINE_EVERY``
    pivots).
    """
    c_std, A_ub_s, b, M, offset = _standardize(c, A_ub, b_ub, bounds)
    n_std = c_std.size
    A = np.hstack([A_ub_s, np.eye(b.size)])
    m, n_struct = A.shape
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    # A row with rhs >= 0 starts with its slack basic; a negated row gets an
    # artificial column.
    art_rows = np.flatnonzero(neg)
    n_art = art_rows.size

    # Tableau: structural columns, the artificials, rhs; below the constraints
    # sit the phase-2 cost row and the phase-1 cost row (summing the
    # artificial rows only).
    T = np.zeros((m + 2, n_struct + n_art + 1))
    T[:m, :n_struct] = A
    T[art_rows, n_struct + np.arange(n_art)] = 1.0
    T[:m, -1] = b
    T[m, :n_std] = c_std
    T[m + 1, :n_struct] = -A[art_rows].sum(axis=0)
    T[m + 1, -1] = -b[art_rows].sum()
    basis = np.arange(n_std, n_std + m)
    basis[art_rows] = n_struct + np.arange(n_art)

    status, iters = _run_phase(T, basis, m, n_struct + n_art, m + 1, max_iters, 0, deadline)
    if status != "optimal":
        return SimplexResult(status, None, None, iters)
    if -T[m + 1, -1] > 1e-7:
        return SimplexResult("infeasible", None, None, iters)

    # Drive leftover (zero-valued) artificials out of the basis.
    for i in np.flatnonzero(basis >= n_struct):
        piv_cols = np.flatnonzero(np.abs(T[i, :n_struct]) > PIVOT_TOL)
        _pivot(T, basis, i, int(piv_cols[0]))
    T = np.delete(T, np.s_[n_struct : T.shape[1] - 1], axis=1)  # artificial columns
    T = T[: m + 1]  # drop the phase-1 cost row

    status, iters = _run_phase(T, basis, m, n_struct, m, max_iters, iters, deadline)
    if status != "optimal":
        return SimplexResult(status, None, None, iters)

    y = np.zeros(n_struct)
    y[basis] = T[:m, -1]
    x = offset + M @ y[:n_std]
    objective = float(np.asarray(c, dtype=np.float64) @ x)
    return SimplexResult("optimal", x, objective, iters)
