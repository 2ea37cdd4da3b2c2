"""Self-contained dense-tableau linear programming and LP decoding.

The solver maximizes a linear objective over { x >= 0 : rows }, rows being
sparse equality or <= constraints.  It runs the textbook two-phase simplex on
a dense numpy tableau: phase one drives artificial variables out, phase two
optimizes the real objective.  Entering columns follow the largest-reduced-
cost rule until the iteration stalls on degenerate pivots, after which the
solver switches permanently to Bland's rule, which guarantees termination.
The leaving row is the one with the least ratio rhs / column entry over the
entries above 1e-9; among the rows whose ratio lies within 1e-9 of that
least one, it is the row whose basic variable is smallest.

One kernel, ``_simplex``, runs every simplex: it optimizes a stack of
tableaux that share a shape, one pivot per running problem per round, each
problem with its own Bland's-rule switch, stall count and iteration cap.
Phase one and ``solve`` run it as a stack of one, which, like the last
running problem of a larger stack, takes its rounds with scalar indices on
its 2-D tableau.  A problem that fails (the iteration cap, or an optimum
that fails the drift re-check) fails alone.

Phase one runs on the presolved problem (Andersen & Andersen, "Presolving in
linear programming", 1995).  The presolve fixes the variables that same-sign
rows with zero rhs force to zero, merges the pairs that (c x_a - c x_b = 0)
rows tie and drops rows that every x >= 0 satisfies, shrinking e.g. the
degree-8 fixed-point-free involution LP from a 38x65 tableau to 9x29.  Phase
two folds the objective onto the merged columns and expands the optimum back
to every variable.  Vertex enumeration (``permlp.polytope``) starts from the
same standard form: the presolved rows plus one slack per ``le`` row.

LP decoding maximizes trace(C^T X) with C = y s^T over the code polytope
(Birkhoff rows plus the constraint system).  An integral optimum is the
maximum-likelihood codeword; a fractional optimum is a decoding failure.

A decode first tries a certificate.  When s and y have well-separated
distinct entries, the rearrangement inequality makes the sort-matching
permutation X* (the i-th smallest entry of s goes to the row of the i-th
smallest entry of y) the unique maximizer over the whole Birkhoff polytope
(Slepian, "Permutation modulation", 1965).  If X* satisfies the code's rows,
it is the unique LP optimum and the ML codeword, so no simplex runs.
Otherwise the decode falls through to the simplex.  The polytope depends on
the constraint system alone, so phase one runs once per system and is
cached.  ``lp_decode_batch`` runs the certificate on all received words at
once and sends the words it misses to phase two as one stack of copies of
that feasible tableau, up to ``_CHUNK`` at a time; ``lp_decode`` is a batch
of one.  Phase one never reads the objective, and the kernel treats each
problem of a stack alike, so a fall-through makes the same pivots, and
returns the same result, as a cold two-phase solve.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .codebook import Code
from .constraints import ConstraintSystem, Relation
from .perm import PermutationMatrix, var_index

_EPS = 1e-9


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPProblem:
    """Maximize objective . x subject to sparse rows and x >= 0."""

    num_vars: int
    objective: np.ndarray
    rows: tuple[tuple[tuple[tuple[int, float], ...], Relation, float], ...]

    @classmethod
    def make(cls, num_vars, objective, rows) -> "LPProblem":
        packed = []
        for coeffs, rel, rhs in rows:
            items = coeffs.items() if hasattr(coeffs, "items") else coeffs
            pairs = tuple(sorted((int(p), float(c)) for p, c in items))
            if any(not 1 <= p <= num_vars for p, _ in pairs):
                raise ValueError("row references a variable outside [1, num_vars]")
            if len({p for p, _ in pairs}) != len(pairs):
                raise ValueError("duplicate variable position in constraint row")
            packed.append((pairs, rel, float(rhs)))
        obj = np.asarray(objective, dtype=float)
        if obj.shape != (num_vars,):
            raise ValueError("objective length does not match num_vars")
        return cls(num_vars, obj, tuple(packed))


@dataclass(frozen=True)
class LPSolution:
    status: LPStatus
    x: Optional[np.ndarray]
    objective_value: float


# Outcome of each problem of a stack: an optimum, an unbounded ray, or a
# solver failure (the iteration cap, or an optimum that fails the re-check).
_OPTIMAL, _UNBOUNDED, _CAPPED, _DRIFTED = range(4)
_FAILURES = {
    _UNBOUNDED: "the simplex found a ray in a bounded LP",
    _CAPPED: "simplex failed to terminate within the iteration cap",
    _DRIFTED: "simplex returned an infeasible point",
}


def _limits(m: int, ncols: int) -> tuple[int, int]:
    """``(stall budget, iteration cap)`` of an m-row problem with ncols columns.

    A run of more degenerate pivots than the budget switches the problem to
    Bland's rule for good; a problem still running after the cap's pivots
    has failed.
    """
    return 5 * (m + ncols), 200 * (m + ncols) + 2000


def _pivot(stack, factors, pivot_rows, basis, basis_at, cols) -> None:
    """Pivot each problem of a contiguous (k, m+1, W) stack on one entry, in place.

    ``factors`` (k, m+1) holds each problem's pivot column, ``pivot_rows``
    the pivot rows as indices into the stack's (k(m+1), W) rows and
    ``basis_at`` the same rows as flat indices into the (k, m) ``basis``,
    whose entries become ``cols``.
    """
    rows = stack.reshape(-1, stack.shape[2])
    pivot = rows.take(pivot_rows, axis=0)
    pivot /= factors.take(pivot_rows)[:, None]
    # The pivot row's own update is overwritten next, so every row is
    # updated as one block; a zero factor subtracts zero.
    stack -= factors[:, :, None] * pivot[:, None, :]
    rows[pivot_rows] = pivot
    basis.put(basis_at, cols)


class _Simplex(NamedTuple):
    """Per problem of a stack: outcome code and the kernel's counters."""

    status: np.ndarray  # _OPTIMAL, _UNBOUNDED or _CAPPED
    pivots: np.ndarray
    degenerate: np.ndarray  # pivots whose ratio was within _EPS of zero
    blands: np.ndarray  # whether the stall switch to Bland's rule engaged


def _stack_views(t: np.ndarray):
    """Views and gather offsets of a contiguous (k, m+1, W) working stack."""
    k, height, width = t.shape
    m = height - 1
    first_row = np.arange(k) * height
    # flat index of entry (r, 0) of each problem, cost row included
    entries = (first_row[:, None] + np.arange(height)) * width
    return t.reshape(-1), t[:, m, : width - 1], t[:, :m, -1], first_row, entries, np.arange(k) * m


def _simplex(tableau: np.ndarray, basis: np.ndarray) -> _Simplex:
    """Optimize each tableau of a contiguous (B, m+1, W) stack in place, each on its own.

    The last column is the rhs and the last row the reduced costs; ``basis``
    (B, m) holds each row's basic column.  Every running problem takes one
    pivot per round, with its own Bland's-rule switch, stall count and
    iteration cap.  Problems that end leave the working stack, which then
    runs on a smaller copy; their final tableaux are written back.  The last
    running problem, and so a stack of one, takes its rounds alone on its
    2-D tableau with scalar indices: the same rules and arithmetic without
    the numpy calls that address a stack.
    """
    size, height, width = tableau.shape
    m, ncols = height - 1, width - 1
    status = np.full(size, _CAPPED, dtype=np.int8)
    pivots = np.zeros(size, dtype=np.int64)
    degenerate = np.zeros(size, dtype=np.int64)
    blands = np.zeros(size, dtype=bool)
    if ncols == 0:  # the presolve fixed every variable
        status[:] = _OPTIMAL
        return _Simplex(status, pivots, degenerate, blands)
    stall_budget, cap = _limits(m, ncols)
    live = np.arange(size)  # the problem on each row of the working stack
    t, b = tableau, basis
    stalled = np.zeros(size, dtype=np.int64)
    flat = np.zeros(size, dtype=np.int64)
    bland = np.zeros(size, dtype=bool)
    any_bland = False
    it = 0
    if size > 1:
        flat_t, reduced, rhs, first_row, entries, first_ratio = _stack_views(t)
    while len(live) > 1 and it < cap:
        col = reduced.argmax(axis=1)
        if any_bland:
            col = np.where(bland, (reduced > _EPS).argmax(axis=1), col)
        factors = flat_t.take(entries + col[:, None])  # column col, cost row last
        column = factors[:, :m]
        ratio = np.divide(rhs, column, out=np.full(column.shape, np.inf), where=column > _EPS)
        least = ratio.min(axis=1)
        optimal = factors[:, m] <= _EPS
        ended = optimal | (least == np.inf)
        if np.count_nonzero(ended):
            done = live[ended]
            status[done] = np.where(optimal[ended], _OPTIMAL, _UNBOUNDED)
            pivots[done] = it
            degenerate[done] = flat[ended]
            blands[done] = bland[ended]
            if t is not tableau:
                tableau[done] = t[ended]
                basis[done] = b[ended]
            going = ~ended
            live, t, b = live[going], t[going], b[going]
            stalled, flat, bland = stalled[going], flat[going], bland[going]
            if len(live) <= 1:
                break
            col, factors, ratio, least = col[going], factors[going], ratio[going], least[going]
            flat_t, reduced, rhs, first_row, entries, first_ratio = _stack_views(t)
        # Leaving row: the least ratio, then among the rows within _EPS of
        # it the one whose basic variable is smallest.
        row = np.where(ratio - least[:, None] <= _EPS, b, width).argmin(axis=1)
        at = first_ratio + row
        degen = ratio.take(at) <= _EPS
        _pivot(t, factors, first_row + row, b, at, col)
        flat += degen
        stalled += 1
        stalled *= degen
        it += 1
        if it > stall_budget:  # before that no run of stalls can exceed the budget
            bland |= stalled > stall_budget
            any_bland = bool(bland.any())
    if len(live) == 1:
        t1, b1 = t[0], b[0]
        stall, flats, bl = int(stalled[0]), int(flat[0]), bool(bland[0])
        cost, rhs1 = t1[m, :ncols], t1[:m, -1]
        outcome = _CAPPED
        while it < cap:
            if bl:
                col = int((cost > _EPS).argmax())
            else:
                col = int(cost.argmax())
            if cost[col] <= _EPS:
                outcome = _OPTIMAL
                break
            column = t1[:m, col]
            rows = (column > _EPS).nonzero()[0]
            if not rows.size:
                outcome = _UNBOUNDED
                break
            ratios = rhs1[rows] / column[rows]
            near = (ratios - ratios.min() <= _EPS).nonzero()[0]
            pick = near[0] if near.size == 1 else near[b1[rows[near]].argmin()]
            row = int(rows[pick])
            pivot = t1[row] / column[row]
            t1 -= t1[:, col, None] * pivot
            t1[row] = pivot
            b1[row] = col
            it += 1
            if ratios[pick] <= _EPS:
                flats += 1
                stall += 1
                bl = bl or stall > stall_budget
            else:
                stall = 0
        j = live[0]
        status[j], pivots[j], degenerate[j], blands[j] = outcome, it, flats, bl
        if t is not tableau:
            tableau[j] = t1
            basis[j] = b1
        return _Simplex(status, pivots, degenerate, blands)
    pivots[live] = it
    degenerate[live] = flat
    blands[live] = bland
    if t is not tableau:
        tableau[live] = t
        basis[live] = b
    return _Simplex(status, pivots, degenerate, blands)


def _pack(problem: LPProblem):
    """The problem's rows as dense arrays: coefficients, rhs, and which rows are equalities."""
    dense = np.zeros((len(problem.rows), problem.num_vars), dtype=float)
    for r, (coeffs, _, _) in enumerate(problem.rows):
        for p, c in coeffs:
            dense[r, p - 1] = c
    rhs = np.array([b for _, _, b in problem.rows], dtype=float)
    eq = np.array([rel is Relation.EQ for _, rel, _ in problem.rows], dtype=bool)
    return dense, rhs, eq


def _pack_system(cs: ConstraintSystem):
    """Dense rows of the code polytope: the Birkhoff rows, then cs.rows.

    The order is ``build_decoding_lp``'s, so phase one pivots alike on both.
    """
    zeros = np.zeros(cs.n)
    return _pack(build_decoding_lp(cs, zeros, zeros))


def _presolve(rows: np.ndarray, rhs: np.ndarray, eq: np.ndarray):
    """Fix entries forced to zero, merge tied entries and drop redundant rows.

    The rules run until nothing changes, and each drops the row it reads:

    * zero rhs and all coefficients positive (``le`` or ``eq``), or all
      negative (``eq``): every entry of the row is zero;
    * zero rhs, ``eq``, two entries with coefficients c and -c: the entries
      are equal, and the higher one's column is added to the lower one's;
    * ``le``, all coefficients negative and rhs >= 0: every x >= 0 holds it;
    * no entry left: the row holds, or the system is inconsistent.

    Returns ``(columns, rows, rhs, eq)``: ``columns[v]`` is the reduced column
    of entry v (-1 when it is fixed at zero), reduced columns follow the order
    of their lowest entries, and the rest are the surviving rows over them.
    Returns None when a row is inconsistent.
    """
    a = np.array(rows)
    nv = a.shape[1]
    parent = list(range(nv))  # a merged entry points to a lower one; -1 marks fixed
    alive = np.ones(len(a), dtype=bool)
    changed = True
    while changed:
        changed = False
        for r in np.flatnonzero(alive).tolist():
            live = np.flatnonzero(a[r])
            coeffs = a[r, live]
            if live.size == 0:
                if (rhs[r] != 0) if eq[r] else (rhs[r] < 0):
                    return None
                alive[r] = False
            elif not eq[r] and rhs[r] >= 0 and (coeffs < 0).all():
                alive[r] = False
            elif rhs[r] != 0:
                continue
            elif (coeffs > 0).all() or (eq[r] and (coeffs < 0).all()):
                a[:, live] = 0
                for v in live.tolist():
                    parent[v] = -1
                alive[r] = False
                changed = True
            elif eq[r] and live.size == 2 and coeffs[0] == -coeffs[1]:
                lo, hi = live.tolist()
                # Coefficients that cancel to float noise are zero: a residue
                # read as signed would fix or drop a row that no longer binds.
                merged = a[:, lo] + a[:, hi]
                merged[np.abs(merged) <= _EPS * (np.abs(a[:, lo]) + np.abs(a[:, hi]))] = 0
                a[:, lo] = merged
                a[:, hi] = 0
                parent[hi] = lo
                alive[r] = False
                changed = True

    roots = [v for v in range(nv) if parent[v] == v]
    columns = np.full(nv, -1, dtype=np.intp)
    columns[roots] = np.arange(len(roots))
    for v in range(nv):
        # parent[v] < v, so its column is already final.
        if 0 <= parent[v] < v:
            columns[v] = columns[parent[v]]
    return columns, a[alive][:, roots], rhs[alive], eq[alive]


def _standard_form(rows: np.ndarray, rhs: np.ndarray, eq: np.ndarray):
    """The presolved rows plus one slack column per ``le`` row, in row order.

    Returns ``_presolve``'s tuple with the rows so extended, or None.
    """
    pre = _presolve(rows, rhs, eq)
    if pre is None:
        return None
    columns, a, b, is_eq = pre
    return columns, np.hstack([a, np.eye(len(a))[:, ~is_eq]]), b, is_eq


@dataclass(frozen=True)
class _FeasibleTableau:
    """A problem's rows after presolve and phase one, ready for any objective.

    ``tableau`` holds the reduced and slack columns plus the rhs, with
    redundant rows dropped, the artificial columns removed (phase two keeps
    them at zero, so they never influence another entry) and a zero objective
    row.  ``columns`` maps each variable to its reduced column (-1 when the
    presolve fixed it at zero) and ``width`` counts the reduced columns.
    ``rows``, ``rhs`` and ``eq`` are the problem's rows as given, for the
    final feasibility re-check.  ``fold`` sums an objective onto the reduced
    columns: level k pairs each column that has a k-th entry with that entry,
    entries in increasing order.  The arrays are read-only; phase two works on
    copies.
    """

    tableau: np.ndarray
    basis: np.ndarray
    columns: np.ndarray
    width: int
    rows: np.ndarray
    rhs: np.ndarray
    eq: np.ndarray
    fold: tuple[tuple[np.ndarray, np.ndarray], ...]


def _fold_levels(columns: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``_FeasibleTableau.fold`` for the column map of a presolve."""
    entries = np.flatnonzero(columns >= 0)
    rank = np.zeros(len(columns), dtype=np.intp)
    seen: dict[int, int] = {}
    for v in entries.tolist():
        c = int(columns[v])
        seen[c] = seen.get(c, -1) + 1
        rank[v] = seen[c]
    levels = []
    for level in range(max(seen.values(), default=-1) + 1):
        at = entries[rank[entries] == level]
        levels.append((columns[at], at))
    return tuple(levels)


def _phase_one(rows: np.ndarray, rhs: np.ndarray, eq: np.ndarray) -> Optional[_FeasibleTableau]:
    """A feasible basis of the presolved rows, or None when they are infeasible.

    Phase one never reads the objective.
    """
    std = _standard_form(rows, rhs, eq)
    if std is None:
        return None
    columns, a, b, is_eq = std
    m, width = a.shape
    nv = width - int(np.count_nonzero(~is_eq))

    # Rows with negative rhs are negated, so their slack enters with -1; they
    # and the equalities start on an artificial column, the rest on their slack.
    flip = b < 0
    art = is_eq | flip
    n_art = int(np.count_nonzero(art))
    tableau = np.zeros((m + 1, width + n_art + 1), dtype=float)
    tableau[:m, :width] = np.where(flip[:, None], -a, a)
    tableau[:m, -1] = np.where(flip, -b, b)
    tableau[art.nonzero()[0], width + np.arange(n_art)] = 1.0
    basis = np.where(art, width + np.cumsum(art) - 1, nv + np.cumsum(~is_eq) - 1)

    # Maximize -(sum of artificials); with none, the zero objective is optimal.
    tableau[-1, width:-1] = -1.0
    for r in art.nonzero()[0].tolist():
        tableau[-1] += tableau[r]
    status = _simplex(tableau[None], basis[None]).status[0]
    if status != _OPTIMAL:  # pragma: no cover - bounded by construction; the cap is defensive
        raise RuntimeError(_FAILURES[status])
    if tableau[-1, -1] > 1e-7:
        return None
    # Pivot lingering artificials out; a row with no real coefficient is
    # redundant and dropped.
    keep = np.ones(m, dtype=bool)
    for r in np.flatnonzero(basis >= width).tolist():  # a pivot on r changes basis[r] only
        real = np.flatnonzero(np.abs(tableau[r, :width]) > 1e-7)
        if real.size:
            c = int(real[0])
            at = np.array([r])
            _pivot(tableau[None], tableau[None, :, c].copy(), at, basis[None], at, c)
        else:
            keep[r] = False

    tableau = np.delete(tableau[np.append(keep, True)], np.s_[width:-1], axis=1)
    tableau[-1] = 0.0
    basis = basis[keep]
    fold = _fold_levels(columns)
    for arr in (tableau, basis, columns, rows, rhs, eq, *(a for level in fold for a in level)):
        arr.setflags(write=False)
    return _FeasibleTableau(tableau, basis, columns, nv, rows, rhs, eq, fold)


def _phase_two(feasible: _FeasibleTableau, objectives: np.ndarray) -> tuple[np.ndarray, _Simplex]:
    """Optimize each row of ``objectives`` from the feasible basis, as one stack.

    Returns each problem's x and the kernel's ``_Simplex``, whose status also
    reads ``_DRIFTED`` for an optimum that fails the re-check; x is
    meaningful only where the status is ``_OPTIMAL``.
    """
    size = len(objectives)
    nv = feasible.width
    start = feasible.tableau  # its cost row is zero
    cost = np.zeros((size, start.shape[1]))
    # A merged column carries the summed objective of its entries, added to
    # zero in entry order; level 0 holds every column's first entry.
    for level, (cols, entries) in enumerate(feasible.fold):
        if level:
            cost[:, cols] += objectives.take(entries, axis=1)
        else:
            np.add(objectives.take(entries, axis=1), 0.0, out=cost[:, :nv])
    # Basis columns are exact unit vectors, so subtracting row r changes no
    # other basic cost: the costs read up front are the ones a sequential
    # elimination would read.  subtract.reduce over the rows axis keeps the
    # subtractions in row order; a row whose cost is zero subtracts zero.
    if feasible.basis.size:
        terms = cost.take(feasible.basis, axis=1)[:, :, None] * start[:-1]
        np.subtract(cost, terms[:, 0], out=terms[:, 0])
        np.subtract.reduce(terms, axis=1, out=cost)
        del terms
    tableau = np.repeat(start[None], size, axis=0)
    tableau[:, -1] = cost
    basis = np.repeat(feasible.basis[None], size, axis=0)
    run = _simplex(tableau, basis)

    # Basic values by column; slot nv collects the slacks and slot nv + 1
    # stays 0, which is where the presolve's fixed entries (column -1) read.
    reduced = np.zeros((size, nv + 2), dtype=float)
    at = np.minimum(basis, nv) + (np.arange(size) * (nv + 2))[:, None]
    reduced.reshape(-1).put(at, tableau[:, :-1, -1])
    x = reduced.take(feasible.columns, axis=1)

    # Cheap internal revalidation against drift, on the rows as given.
    dev = x @ feasible.rows.T - feasible.rhs
    np.abs(dev, out=dev, where=feasible.eq)
    drifted = (dev.max(axis=1, initial=-np.inf) > 1e-6) & (run.status == _OPTIMAL)
    run.status[drifted] = _DRIFTED
    return x, run


def solve(problem: LPProblem) -> LPSolution:
    """Two-phase simplex.  The optimal x is a vertex of the feasible region.

    Phase two runs as a stack of one.  Raises ``RuntimeError`` when the
    simplex hits its iteration cap or its optimum fails the drift re-check.
    """
    feasible = _phase_one(*_pack(problem))
    if feasible is None:
        return LPSolution(LPStatus.INFEASIBLE, None, float("nan"))
    x, run = _phase_two(feasible, problem.objective[None])
    status = run.status[0]
    if status == _UNBOUNDED:
        return LPSolution(LPStatus.UNBOUNDED, None, float("nan"))
    if status != _OPTIMAL:
        raise RuntimeError(_FAILURES[status])
    return LPSolution(LPStatus.OPTIMAL, x[0], float(problem.objective @ x[0]))


# ---------------------------------------------------------------------------
# LP decoding
# ---------------------------------------------------------------------------


def birkhoff_rows(n: int):
    """Row-sum and column-sum equalities defining doubly stochastic matrices."""
    rows = []
    for i in range(1, n + 1):
        rows.append(({var_index(i, j, n): 1.0 for j in range(1, n + 1)}, Relation.EQ, 1.0))
    for j in range(1, n + 1):
        rows.append(({var_index(i, j, n): 1.0 for i in range(1, n + 1)}, Relation.EQ, 1.0))
    return rows


def build_decoding_lp(cs: ConstraintSystem, s: Sequence[float], y: Sequence[float]) -> LPProblem:
    """Maximize trace(C^T X) = y . (X s) with C = y s^T over the code polytope."""
    n = cs.n
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if s.shape != (n,) or y.shape != (n,):
        raise ValueError("initial vector and received vector must have length n")
    objective = np.outer(y, s).reshape(n * n)
    rows = birkhoff_rows(n)
    for row in cs.rows:
        rows.append((dict(row.coeffs), row.relation, float(row.rhs)))
    return LPProblem.make(n * n, objective, rows)


class InfeasibleCodeError(ValueError):
    """The code polytope is empty: no doubly stochastic matrix fits the rows."""


@dataclass(frozen=True)
class DecodeResult:
    """LP decoding outcome: a codeword, or a declared failure.

    ``stats`` counts the simplex's work on this word: phase-two ``pivots``,
    ``degenerate`` pivots (ratio zero) and whether the stall switch to
    ``blands`` rule engaged; all zero for a certified answer.
    """

    matrix: Optional[PermutationMatrix]
    word: Optional[np.ndarray]
    fractional: Optional[np.ndarray]
    objective_value: float
    certified: bool = False  # answered by the sort certificate, no simplex
    stats: Optional[dict[str, int | bool]] = field(default=None, compare=False)

    @property
    def is_codeword(self) -> bool:
        return self.matrix is not None


# An LP optimum is treated as integral when every entry sits within this
# distance of 0 or 1; the rounded matrix is then validated exactly.
INTEGRALITY_TOL = 1e-6

# The sort certificate answers only when min gap(sorted y) * min gap(sorted s)
# exceeds this.  That product bounds from below how much worse than X* every
# other permutation is, and it sits well above what the simplex's 1e-9
# reduced-cost tolerance, summed over the n^2 entries, could let it miss, so
# the simplex would stop at X* too.
_CERT_MARGIN = 1e-6

# Received words that miss the certificate go to the simplex in stacks of at
# most this many, which bounds a stack's tableaux to a few MB.
_CHUNK = 512

# ``_ml_scan`` walks the codebook this many rows at a time, so that one block's
# inner products with a chunk of ``_CHUNK`` received words stay at 4 MB.
_ML_BLOCK = 1024


@dataclass(frozen=True)
class _CodePolytope:
    """What LP decoding needs of a constraint system, whatever s and y are.

    ``feasible`` is phase one of the decoding LP (None when the polytope is
    empty).  ``cube`` and ``bound`` hold the system's rows as exact int64
    ``<=`` rows, each equality written as two of them: ``cube[i, j]`` is the
    column of coefficients of entry (i, j), so checking a permutation matrix
    is a gather of n entries and one comparison.
    """

    feasible: Optional[_FeasibleTableau]
    cube: np.ndarray
    bound: np.ndarray

    def admits(self, rows: np.ndarray, cols: np.ndarray):
        """Whether the permutation matrix with ones at (rows[..., k], cols[..., k]) satisfies cs.

        One-dimensional index arrays give one answer, two-dimensional ones an
        answer per row.
        """
        return (self.cube[rows, cols].sum(axis=-2) <= self.bound).all(axis=-1)


@functools.lru_cache(maxsize=64)
def _code_polytope(cs: ConstraintSystem) -> _CodePolytope:
    n = cs.n
    rows, rhs, eq = _pack_system(cs)
    # Phase one never reads the objective, so one basis serves every s and y.
    feasible = _phase_one(rows, rhs, eq)
    # The system's own rows follow the 2n Birkhoff rows; their entries are integers.
    rows, rhs, eq = rows[2 * n :].astype(np.int64), rhs[2 * n :].astype(np.int64), eq[2 * n :]
    bound = np.concatenate([rhs, -rhs[eq]])
    cube = np.ascontiguousarray(np.vstack([rows, -rows[eq]]).T.reshape(n, n, bound.size))
    for a in (cube, bound):
        a.setflags(write=False)
    return _CodePolytope(feasible, cube, bound)


def _sort_certificate(polytope: _CodePolytope, s: np.ndarray, ys: np.ndarray):
    """``(hit, perm)`` for each row y of ys: whether the sort-matching X* is certified.

    X* puts the column of the i-th smallest entry of s in the row of the i-th
    smallest entry of y; ``perm[k]`` is its column-to-row map (0-based),
    meaningful only where ``hit[k]``.  X* is certified only when it beats
    every other permutation by the margin and satisfies every row of the
    code exactly; repeated entries, near-ties and non-finite inputs miss.
    """
    order_s = s.argsort()
    ss = s[order_s]
    finite = np.isfinite(ys).all(axis=1)
    if np.count_nonzero(finite) < len(ys):
        ys = np.where(finite[:, None], ys, 0.0)  # zeroed so that no arithmetic meets them
    order_y = ys.argsort(axis=1)
    perm = np.empty_like(order_y)
    perm[:, order_s] = order_y
    gap_s = (ss[1:] - ss[:-1]).min(initial=np.inf) if np.isfinite(ss).all() else 0.0
    if not gap_s > 0:
        return np.zeros(len(ys), dtype=bool), perm
    sy = np.sort(ys, axis=1)
    gap_y = (sy[:, 1:] - sy[:, :-1]).min(axis=1, initial=np.inf)
    hit = finite & (gap_y * gap_s > _CERT_MARGIN) & polytope.admits(order_y, order_s)
    return hit, perm


class _Misses(NamedTuple):
    """Phase two of the received words the certificate missed, one row each.

    ``run`` is ``_phase_two``'s; ``x`` is each optimum and ``objectives``
    each row's objective, both over the n^2 entries.  Where ``codeword`` is
    set, the optimum is a permutation matrix that satisfies the code and
    ``perm`` is its column-to-row map.
    """

    run: _Simplex
    x: np.ndarray
    objectives: np.ndarray
    codeword: np.ndarray
    perm: np.ndarray


def _decode_misses(polytope: _CodePolytope, s: np.ndarray, ys: np.ndarray) -> _Misses:
    """Phase two for each row of ys (finite, at most ``_CHUNK`` rows) as one stack.

    The objective of row y is y s^T, entry by entry as ``build_decoding_lp``
    forms it.  An optimum counts as a codeword when it is within
    ``INTEGRALITY_TOL`` of a permutation matrix that satisfies the code.
    """
    size, n = ys.shape
    objectives = (ys[:, :, None] * s).reshape(size, n * n)
    x, run = _phase_two(polytope.feasible, objectives)
    # The candidate matrix puts each column's 1 at its largest entry.  An
    # optimum within the tolerance of it rounds to it, and its rows are then
    # distinct: the drift re-check holds every row sum within 1e-6 of 1.
    perm = x.reshape(size, n, n).argmax(axis=1)
    onehot = perm[:, None, :] == np.arange(n)[:, None]
    codeword = (
        (run.status == _OPTIMAL)
        & (np.abs(x - onehot.reshape(size, n * n)).max(axis=1) <= INTEGRALITY_TOL)
        & polytope.admits(perm, np.arange(n))
    )
    return _Misses(run, x, objectives, codeword, perm)


def _check_finite(s: np.ndarray, ys: np.ndarray) -> None:
    if not (np.isfinite(s).all() and np.isfinite(ys).all()):
        raise ValueError("initial vector and received vector must be finite")


def lp_decode_batch(
    cs: ConstraintSystem, s: Sequence[float], ys: np.ndarray
) -> list[DecodeResult]:
    """``lp_decode`` of every row of ys, as one batch.

    One certificate pass covers every row, and the rows it misses run through
    the simplex in stacks of up to ``_CHUNK``.  Each result equals
    ``lp_decode(cs, s, y)`` of its row.  A row whose simplex fails raises
    ``RuntimeError``; non-finite entries raise ``ValueError``.
    """
    n = cs.n
    s = np.asarray(s, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if s.shape != (n,) or ys.ndim != 2 or ys.shape[1:] != (n,):
        raise ValueError("initial vector and received vector must have length n")
    polytope = _code_polytope(cs)
    if polytope.feasible is None:
        raise InfeasibleCodeError("empty code polytope")
    _check_finite(s, ys)
    hit, perm = _sort_certificate(polytope, s, ys)
    results: list[Optional[DecodeResult]] = [None] * len(ys)
    for k in hit.nonzero()[0].tolist():
        x = PermutationMatrix(tuple((perm[k] + 1).tolist()))
        word = x.apply(s)
        results[k] = DecodeResult(
            matrix=x, word=word, fractional=None, objective_value=float(ys[k] @ word),
            certified=True, stats={"pivots": 0, "degenerate": 0, "blands": False},
        )
    misses = (~hit).nonzero()[0]
    for start in range(0, len(misses), _CHUNK):
        rows = misses[start : start + _CHUNK]
        out = _decode_misses(polytope, s, ys[rows])
        run = out.run
        for j, k in enumerate(rows.tolist()):
            if run.status[j] != _OPTIMAL:
                raise RuntimeError(_FAILURES[run.status[j]])
            stats = {"pivots": int(run.pivots[j]), "degenerate": int(run.degenerate[j]),
                     "blands": bool(run.blands[j])}
            value = float(out.objectives[j] @ out.x[j])
            if out.codeword[j]:
                x = PermutationMatrix(tuple((out.perm[j] + 1).tolist()))
                results[k] = DecodeResult(matrix=x, word=x.apply(s), fractional=None,
                                          objective_value=value, stats=stats)
            else:
                results[k] = DecodeResult(matrix=None, word=None,
                                          fractional=out.x[j].reshape(n, n).copy(),
                                          objective_value=value, stats=stats)
    return results


def lp_decode(cs: ConstraintSystem, s: Sequence[float], y: Sequence[float]) -> DecodeResult:
    """LP decoding of y against the code (cs, s), as a batch of one.

    The sort certificate is tried first: when it holds, X* is returned with
    ``certified`` set and objective y . (X* s), without a simplex.  Otherwise
    phase two runs from the phase-one basis cached per constraint system,
    which gives the same result as ``solve(build_decoding_lp(cs, s, y))``.
    The two agree on every certified input too, up to the last bits of the
    objective.  Non-finite entries in s or y raise ``ValueError``; a simplex
    that hits its iteration cap or drifts raises ``RuntimeError``.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (cs.n,):
        raise ValueError("initial vector and received vector must have length n")
    return lp_decode_batch(cs, s, y[None])[0]


def ml_decode_detail(code: Code, y: Sequence[float]) -> tuple[int, np.ndarray, bool]:
    """Exhaustive ML decoding: (1-based index, codeword, tie flag).

    Every codeword c is a permutation of s, so |c - y|^2 = |s|^2 + |y|^2 - 2 c.y
    and the nearest codeword is the one with the largest inner product with y.
    Ties resolve to the lowest codeword index; the flag is set when another
    codeword is within 1e-12 in squared distance.  Non-finite entries in y or
    s raise ``ValueError``.
    """
    if len(code) == 0:
        raise ValueError("empty code")
    y = np.asarray(y, dtype=float)
    if y.shape != (code.n,):
        raise ValueError("received vector length does not match the code degree")
    # Every codeword is a rearrangement of s, so the first one stands for s.
    if not (np.isfinite(y).all() and np.isfinite(code.codewords[0]).all()):
        raise ValueError("received vector and initial vector must be finite")
    g = code.codewords @ y
    k = int(np.argmax(g))
    tie = bool(np.count_nonzero(g >= g[k] - 0.5e-12) > 1)
    return k + 1, code.codewords[k].copy(), tie


def _ml_scan(words: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """For each row of ys, the index of the row of words with the largest inner product.

    ``words`` is a code's codeword array and ys is finite.  The scan takes
    ``_ML_BLOCK`` rows of words at a time, one matrix product against all of
    ys per block, and keeps the lowest index on exact ties, as
    ``ml_decode_detail`` does (0-based here).
    """
    cols = np.arange(len(ys))
    best = np.full(len(ys), -np.inf)
    at = np.zeros(len(ys), dtype=np.intp)
    for lo in range(0, len(words), _ML_BLOCK):
        g = words[lo : lo + _ML_BLOCK] @ ys.T
        k = g.argmax(axis=0)
        top = g[k, cols]
        # Strictly greater: a later block's tie leaves the earlier index.
        better = top > best
        best[better] = top[better]
        at[better] = k[better] + lo
    return at


def ml_decode(code: Code, y: Sequence[float]) -> np.ndarray:
    """Maximum-likelihood codeword for y under AWGN (argmin Euclidean distance)."""
    _, word, _ = ml_decode_detail(code, y)
    return word
