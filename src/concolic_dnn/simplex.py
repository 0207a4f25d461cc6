"""Dense two-phase simplex with Bland's rule.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  lo <= x <= hi
where bounds may be infinite. Bland's smallest-index pivoting rule is used for
both the entering and the leaving variable, which excludes cycling and makes
every run deterministic. The solver is dimensioned for the small problems this
package produces (a few hundred variables); swap in another implementation via
the ``solver`` argument of ``lp.solve`` if that stops being true.

The pivot sequence is part of the contract: the entering column, the leaving
row, the pivot count and the bytes of the solution must not change, because
the synthesized inputs, and so every report, follow from them.
``tests/test_simplex.py::TestPivotPathGolden`` pins them on two fixed-seed LP
families. Speed-ups therefore keep the arithmetic: the ratio test scans Python
floats in row order, and a pivot updates only the columns where the pivot row
is nonzero (elsewhere it would subtract zero).

No scipy (HiGHS) backend is used. On a 2-vCPU x86 virtual machine (Python
3.11, scipy 1.17.1), importing ``scipy.optimize`` after this package took
0.6 s and raised the peak RSS from 29 MB to 77 MB, far past the benchmark's
10% RSS bound; and a different solver lands on other optimal vertices, which
changes the reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

PIVOT_TOL = 1e-9
DEFAULT_MAX_ITERS = 10_000


@dataclass
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration-limit"
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


def _standardize(c, A_ub, b_ub, A_eq, b_eq, bounds):
    """Rewrite into  min c_std.y  s.t.  A y = b, y >= 0  (after adding slacks).

    Returns the standard-form pieces plus the affine map x = offset + M y that
    recovers the original variables.
    """
    c = np.asarray(c, dtype=np.float64)
    n = c.size
    A_ub = _as_2d(A_ub, n)
    b_ub = np.asarray(b_ub, dtype=np.float64) if b_ub is not None else np.zeros(0)
    A_eq = _as_2d(A_eq, n)
    b_eq = np.asarray(b_eq, dtype=np.float64) if b_eq is not None else np.zeros(0)
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
    A_eq_std = A_eq @ M
    b_eq_std = b_eq - A_eq @ offset
    if extra_rows:
        rows = np.zeros((len(extra_rows), n_std))
        rhs = np.zeros(len(extra_rows))
        for r, (col, bound) in enumerate(extra_rows):
            rows[r, col] = 1.0
            rhs[r] = bound
        A_ub_std = np.vstack([A_ub_std, rows])
        b_ub_std = np.concatenate([b_ub_std, rhs])
    return c_std, A_ub_std, b_ub_std, A_eq_std, b_eq_std, M, offset


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    # Columns where the pivot row is zero would only have zero subtracted.
    cols = np.flatnonzero(T[row])
    factors = T[:, col].copy()
    factors[row] = 0.0
    T[:, cols] -= factors[:, None] * T[row, cols]
    basis[row] = col


def _bland_enter(cost_row: np.ndarray, allowed: int) -> Optional[int]:
    neg = np.nonzero(cost_row[:allowed] < -PIVOT_TOL)[0]
    return int(neg[0]) if neg.size else None


def _bland_leave(T: np.ndarray, basis: np.ndarray, col: int, m: int) -> Optional[int]:
    # One conversion to Python numbers per pivot; indexing numpy scalars row
    # by row costs more than the scan itself.
    column, rhs, basis = T[:m, col].tolist(), T[:m, -1].tolist(), basis.tolist()
    best_row, best_ratio = None, None
    for i, a in enumerate(column):
        if a > PIVOT_TOL:
            ratio = rhs[i] / a
            if (
                best_ratio is None
                or ratio < best_ratio - PIVOT_TOL
                or (abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < basis[best_row])
            ):
                best_row, best_ratio = i, ratio
    return best_row


def _run_phase(T, basis, m, allowed, obj_row, max_iters, start_iter):
    """Pivot until optimal / unbounded / iteration limit. Returns (status, iters)."""
    iters = start_iter
    while True:
        if iters >= max_iters:
            return "iteration-limit", iters
        col = _bland_enter(T[obj_row], allowed)
        if col is None:
            return "optimal", iters
        row = _bland_leave(T, basis, col, m)
        if row is None:
            return "unbounded", iters
        _pivot(T, basis, row, col)
        iters += 1


def solve_lp(
    c,
    A_ub=None,
    b_ub=None,
    A_eq=None,
    b_eq=None,
    bounds=None,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SimplexResult:
    """Minimize c.x subject to inequality/equality rows and variable bounds."""
    c_std, A_ub_s, b_ub_s, A_eq_s, b_eq_s, M, offset = _standardize(
        c, A_ub, b_ub, A_eq, b_eq, bounds
    )
    n_std = c_std.size
    n_slack = A_ub_s.shape[0]
    A = np.vstack(
        [
            np.hstack([A_ub_s, np.eye(n_slack)]),
            np.hstack([A_eq_s, np.zeros((A_eq_s.shape[0], n_slack))]),
        ]
    )
    b = np.concatenate([b_ub_s, b_eq_s])
    m, n_struct = A.shape
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # Tableau: structural columns, one artificial per row, rhs; below the
    # constraints sit the phase-2 cost row and the phase-1 cost row.
    T = np.zeros((m + 2, n_struct + m + 1))
    T[:m, :n_struct] = A
    T[:m, n_struct : n_struct + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n_std] = c_std
    T[m + 1, :n_struct] = -A.sum(axis=0)
    T[m + 1, -1] = -b.sum()
    basis = np.arange(n_struct, n_struct + m)

    status, iters = _run_phase(T, basis, m, n_struct + m, m + 1, max_iters, 0)
    if status == "iteration-limit":
        return SimplexResult("iteration-limit", None, None, iters)
    if -T[m + 1, -1] > 1e-7:
        return SimplexResult("infeasible", None, None, iters)

    # Drive leftover artificials out of the basis; rows that cannot pivot on a
    # structural column are redundant and get dropped.
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n_struct:
            piv_cols = np.nonzero(np.abs(T[i, :n_struct]) > PIVOT_TOL)[0]
            if piv_cols.size:
                _pivot(T, basis, i, int(piv_cols[0]))
            else:
                keep[i] = False
    if not keep.all():
        T = np.vstack([T[:m][keep], T[m : m + 2]])
        basis = basis[keep]
        m = int(keep.sum())
    T = np.delete(T, np.s_[n_struct : T.shape[1] - 1], axis=1)  # artificial columns
    T = T[: m + 1]  # drop the phase-1 cost row

    status, iters = _run_phase(T, basis, m, n_struct, m, max_iters, iters)
    if status != "optimal":
        return SimplexResult(status, None, None, iters)

    y = np.zeros(n_struct)
    y[basis] = T[:m, -1]
    x = offset + M @ y[:n_std]
    objective = float(np.asarray(c, dtype=np.float64) @ x)
    return SimplexResult("optimal", x, objective, iters)
