"""Dense two-phase bounded-variable simplex: slack-basis start, Dantzig
pricing, Bland fallback.

Solves  min c.x  s.t.  A_ub x <= b_ub,  lo <= x <= hi
where bounds may be infinite. The solver is dimensioned for the small problems
this package produces (a few hundred variables); ``lp.solve`` calls it by
its module name, ``lp.solve_lp``, so another implementation can be put in its
place there if that stops being true.

- **Standard form.** The bounds, (lo, hi) pairs with None or an (n, 2)
  float array with -inf/inf, become ``lo`` and ``hi`` arrays. Each variable
  becomes standard columns 0 <= y <= u: a finite lower bound is shifted to 0
  and keeps the width hi - lo as u; a variable with only an upper bound is
  mirrored; a free variable is split into two unbounded columns. A variable
  with lo == hi gets no column, so it never enters. Each column is a pick of
  its variable's column of ``A_ub``, negated when mirrored or the second of
  a split, written once into the tableau.
- **Bounded variables** (Dantzig 1955, "Upper bounds, secondary constraints
  and block triangularity in linear programming"; Chvátal 1983, *Linear
  Programming*, ch. 8). A finite u is no tableau row. A variable at its upper
  bound is held there by complementing its column: it is replaced by
  y' = u - y, which is 0 there, so every column the tableau holds lies in
  [0, u] and the rhs column holds the basic values.
- **Start.** After standardization every row with rhs >= 0 starts with its
  slack basic. Only the rows with a negative rhs get an artificial column,
  and the phase-1 cost row sums those rows only. An LP that is feasible with
  every column at its lower bound skips phase 1. The slack block gives the
  constraint matrix full row rank, so every artificial left basic after
  phase 1 can pivot on a structural column. Phase 2 works on the same
  tableau without its phase-1 cost row and prices the structural columns
  only, so the artificial columns stay in place and never enter.
- **Entering column.** Dantzig's rule: the most negative reduced cost, first
  index on ties. After ``DEGENERATE_LIMIT`` consecutive degenerate steps
  (zero step) the solver takes Bland's smallest-index entering rule until the
  next nondegenerate step, which excludes cycling (Bland 1977, "New finite
  pivoting rules for the simplex method").
- **Leaving row.** The minimum ratio, smallest basis index on ties (Bland's
  leaving rule). A basic variable limits the step where it falls to 0 or,
  if it has a finite u, where it rises to u; in the second case its row is
  complemented and it leaves at its upper bound. The entering column's own
  u limits the step too: when it is the tightest limit (ties included), the
  step is a bound flip, which complements the column and makes no pivot.
  The ratio test scans Python floats in row order: a tie chain's outcome
  depends on that order, and on these small tableaux (a few dozen rows) the
  scan beat a numpy ratio test. The basis and each row's basic upper bound
  are Python lists that every pivot updates, so the scan converts only the
  entering column and the rhs. A pivot is one dense rank-one update of the
  whole tableau; where the pivot row holds +-0 it subtracts +-0, which can
  flip the sign of a zero and nothing else, and no comparison here sees
  that sign.
- **Iterations and limits.** ``SimplexResult.iterations`` counts pivots and
  bound flips over both phases; ``max_iters`` caps that count, and an
  optional ``deadline`` (a ``time.monotonic()`` value) is checked every
  ``DEADLINE_EVERY`` iterations and stops the solve with status
  "time-limit".

Every run is deterministic, and the pivot sequence is part of the contract:
the entering column, the leaving row, the flips, the iteration count and
the bytes of the solution must not change, because the synthesized inputs, and so every
report, follow from them. ``tests/test_simplex.py::TestPivotPathGolden`` pins
them on four fixed-seed LP families: random small LPs, and the NC, SSC/NBC
and conv-maxpool synthesis LPs of small nets.

No scipy (HiGHS) backend is used. On a 2-vCPU x86 virtual machine (Python
3.11, scipy 1.17.1), importing ``scipy.optimize`` after this package took
0.6 s and raised the peak RSS from 29 MB to 77 MB, far past the benchmark's
10% RSS bound; and a different solver lands on other optimal vertices, which
changes the reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

PIVOT_TOL = 1e-9
DEFAULT_MAX_ITERS = 10_000
DEGENERATE_LIMIT = 10  # consecutive degenerate steps before Bland's entering rule
DEADLINE_EVERY = 50  # iterations between two looks at the deadline


@dataclass
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration-limit" | "time-limit"
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int  # pivots plus bound flips


def _as_2d(a, ncols: int) -> np.ndarray:
    if a is None:
        return np.zeros((0, ncols))
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return arr


def _standardize(c, A_ub, b_ub, bounds):
    """Rewrite into  min c_std.y  s.t.  A y <= b,  0 <= y <= upper.

    Returns the standard-form pieces, each standard column's upper bound
    (``inf`` where it has none), original variable and negation, and the
    offsets: x is the offset plus each column's signed y, summed per
    variable. A variable with lo == hi is fixed: it gets no column, only its
    offset.
    """
    c = np.asarray(c, dtype=np.float64)
    n = c.size
    A_ub = _as_2d(A_ub, n)
    b_ub = np.asarray(b_ub, dtype=np.float64) if b_ub is not None else np.zeros(0)
    # either bounds form as one (n, 2) array; None reads as nan: no bound
    pairs = np.array([(None, None)] * n if bounds is None else bounds, dtype=np.float64).reshape(n, 2)
    np.copyto(pairs, (-math.inf, math.inf), where=np.isnan(pairs))
    lo, hi = pairs.T
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    if has_lo.all():  # no column mirrored or split: pick the unfixed ones
        var = np.flatnonzero(hi != lo)
        return c[var], A_ub[:, var], b_ub - A_ub @ lo, (hi - lo)[var], var, np.zeros(var.size, bool), lo
    offset = np.where(has_lo, lo, np.where(has_hi, hi, 0.0))
    free = ~has_lo & ~has_hi
    # columns per variable: boxed or lower-bounded 1 (0 when fixed),
    # upper-only 1 (mirrored), free 2 (split)
    counts = np.where(has_lo, hi != lo, 1 + free)
    var = np.repeat(np.arange(n), counts)
    negate = ~has_lo[var]
    negate[(np.cumsum(counts) - counts)[free]] = False  # the free split's first column
    upper = np.where(has_lo, hi - lo, math.inf)[var]
    A = A_ub[:, var]
    np.negative(A, out=A, where=negate)
    c_std = c[var]
    np.negative(c_std, out=c_std, where=negate)
    return c_std, A, b_ub - A_ub @ offset, upper, var, negate, offset


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    # Where the pivot row holds +-0 this subtracts +-0: only a zero's sign can change.
    T -= factors[:, None] * T[row]
    basis[row] = col


def _enter(cost_row: np.ndarray, bland: bool) -> Optional[int]:
    """Dantzig: the most negative reduced cost, first index on ties.
    Bland: the first negative reduced cost. None when no cost is negative
    (or there is no column at all: every variable fixed and no row)."""
    if bland or not cost_row.size:
        neg = (cost_row < -PIVOT_TOL).nonzero()[0]
        return int(neg[0]) if neg.size else None
    col = int(cost_row.argmin())
    return col if cost_row[col] < -PIVOT_TOL else None


def _leave(
    T: np.ndarray, basis: list[int], caps: list[float], col: int, m: int
) -> tuple[Optional[int], float, bool]:
    """The row whose basic variable first reaches a bound as the entering
    column rises: minimum ratio, smallest basis index on ties. ``caps`` holds
    each row's basic upper bound. Returns the row, its ratio, and whether the
    basic variable reaches its upper bound (a negative entry) rather than 0
    (a positive one)."""
    # One conversion to Python numbers per pivot; indexing numpy scalars row
    # by row costs more than the scan itself.
    column, rhs = T[:m, col].tolist(), T[:m, -1].tolist()
    tol, inf = PIVOT_TOL, math.inf
    best_row, best_ratio, best_up = None, 0.0, False
    beats = 0.0  # best_ratio - tol: a ratio below it beats the best row outright
    for i, a in enumerate(column):
        if a > tol:
            ratio, up = rhs[i] / a, False
        elif a < -tol and caps[i] != inf:
            ratio, up = (caps[i] - rhs[i]) / -a, True
        else:
            continue
        if (
            best_row is None
            or ratio < beats
            or (basis[i] < basis[best_row] and abs(ratio - best_ratio) <= tol)
        ):
            best_row, best_ratio, best_up = i, ratio, up
            beats = ratio - tol
    return best_row, best_ratio, best_up


def _complement(T: np.ndarray, flipped: np.ndarray, col: int, width: float) -> None:
    """Move nonbasic column ``col`` to its other bound: substitute y = width - y'
    in every row, the cost rows included."""
    T[:, -1] -= width * T[:, col]
    T[:, col] *= -1.0
    flipped[col] = not flipped[col]


def _complement_basic(T: np.ndarray, flipped: np.ndarray, row: int, col: int, width: float) -> None:
    """Substitute y = width - y' for the variable basic in ``row`` (column
    ``col``): its row is negated and reads y' - ... = width - value. The
    variable's column is zero in every other row, so no other row changes."""
    T[row] *= -1.0
    T[row, col] = 1.0
    T[row, -1] += width
    flipped[col] = not flipped[col]


def _run_phase(T, basis, caps, upper, flipped, m, allowed, obj_row, max_iters, iters, deadline):
    """Step until optimal / unbounded / iteration or time limit. ``basis``,
    ``caps`` (each row's basic upper bound) and ``upper`` (each column's)
    are lists; each pivot updates the first two. Returns (status, iters)."""
    degenerate = 0  # consecutive steps that left the point where it was
    cost_row = T[obj_row, :allowed]  # a view: every step updates T in place
    while True:
        if iters >= max_iters:
            return "iteration-limit", iters
        if deadline is not None and iters % DEADLINE_EVERY == 0 and time.monotonic() > deadline:
            return "time-limit", iters
        col = _enter(cost_row, bland=degenerate >= DEGENERATE_LIMIT)
        if col is None:
            return "optimal", iters
        row, step, at_upper = _leave(T, basis, caps, col, m)
        if row is None or upper[col] <= step:
            if upper[col] == math.inf:
                return "unbounded", iters
            # the entering variable's own bound is the tightest limit: a bound flip
            step = upper[col]
            _complement(T, flipped, col, step)
        else:
            if at_upper:
                _complement_basic(T, flipped, row, basis[row], caps[row])
            _pivot(T, basis, row, col)
            caps[row] = upper[col]
        degenerate = degenerate + 1 if step <= PIVOT_TOL else 0
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

    ``bounds`` are (lo, hi) pairs, None for no bound, or an (n, 2) float
    array with -inf/inf; None leaves every variable free. ``deadline`` is a
    ``time.monotonic()`` value; once it has passed, the solve stops with
    status "time-limit" (checked every ``DEADLINE_EVERY`` iterations).
    """
    c_std, A_std, b, upper, var, negate, offset = _standardize(c, A_ub, b_ub, bounds)
    if np.any(upper < 0):  # a lower bound above its upper bound
        return SimplexResult("infeasible", None, None, 0)
    m, n_std = A_std.shape
    n_struct = n_std + m  # the standard columns, then one slack per row
    # A row with rhs >= 0 starts with its slack basic; a row with a negative
    # rhs is negated and gets an artificial column.
    art_rows = np.flatnonzero(b < 0)
    n_art = art_rows.size

    # Tableau: structural columns, the artificials, rhs; below the constraints
    # sit the phase-2 cost row and the phase-1 cost row (summing the
    # artificial rows only). Every variable starts at its lower bound 0.
    T = np.zeros((m + 2, n_struct + n_art + 1))
    T[:m, :n_std] = A_std
    T[np.arange(m), n_std + np.arange(m)] = 1.0
    T[:m, -1] = b
    T[art_rows] *= -1.0
    T[art_rows, n_struct + np.arange(n_art)] = 1.0
    T[m, :n_std] = c_std
    T[m + 1, :n_struct] = -T[art_rows, :n_struct].sum(axis=0)
    T[m + 1, -1] = -T[art_rows, -1].sum()
    basis = list(range(n_std, n_std + m))
    for k, i in enumerate(art_rows.tolist()):
        basis[i] = n_struct + k
    cap = upper.tolist() + [math.inf] * (m + n_art)
    caps = [math.inf] * m  # every slack and artificial is unbounded above
    flipped = np.zeros(len(cap), dtype=bool)  # column holds y' = cap - y

    status, iters = _run_phase(T, basis, caps, cap, flipped, m, n_struct + n_art, m + 1, max_iters, 0, deadline)
    if status != "optimal":
        return SimplexResult(status, None, None, iters)
    if -T[m + 1, -1] > 1e-7:
        return SimplexResult("infeasible", None, None, iters)

    # Drive leftover (zero-valued) artificials out of the basis.
    for i in [i for i, j in enumerate(basis) if j >= n_struct]:
        col = int(np.flatnonzero(np.abs(T[i, :n_struct]) > PIVOT_TOL)[0])
        _pivot(T, basis, i, col)
        caps[i] = cap[col]
    # Phase 2 prices the structural columns only and leaves the phase-1 cost
    # row behind; the artificial columns stay in place, never to enter.
    T = T[: m + 1]

    status, iters = _run_phase(T, basis, caps, cap, flipped, m, n_struct, m, max_iters, iters, deadline)
    if status != "optimal":
        return SimplexResult(status, None, None, iters)

    y = np.zeros(n_struct)
    y[basis] = T[:m, -1]
    y = np.where(flipped[:n_std], upper - y[:n_std], y[:n_std])
    x = offset + np.bincount(var, weights=np.where(negate, -y, y), minlength=offset.size)
    objective = float(np.asarray(c, dtype=np.float64) @ x)
    return SimplexResult("optimal", x, objective, iters)
