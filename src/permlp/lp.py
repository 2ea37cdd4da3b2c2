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
to every variable.  ``_code_polytope`` compiles a constraint system with one
presolve, and phase one and vertex enumeration (``permlp.polytope``) read its
one standard form: the presolved rows plus one slack per ``le`` row.

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
the constraint system alone, so phase one runs at most once per system, when
a simplex first needs it, and is cached.  One chunk decoder,
``_decode_chunk``, serves both ``lp_decode_batch`` and the Monte-Carlo of
``permlp.channel``: it runs the certificate on up to ``_CHUNK`` received
words at once and sends the words it misses to phase two as one stack of
copies of that feasible tableau.  Given a code, a miss that ran through
phase two takes its word as the ML answer when the final tableau's reduced
costs rule out every other codeword, and the remaining misses take the
codebook argmax, a block of them per product with the whole codebook.
``lp_decode_batch`` runs it on slices of ``_CHUNK`` rows, and ``lp_decode``
is a batch of one.  Phase one never reads the objective, and the kernel
treats each problem of a stack alike, so a fall-through makes the same
pivots, and returns the same result, as a cold two-phase solve.
"""

from __future__ import annotations

import enum
import functools
import math
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
    final feasibility re-check.  The arrays are read-only; phase two works
    on copies.
    """

    tableau: np.ndarray
    basis: np.ndarray
    columns: np.ndarray
    width: int
    rows: np.ndarray
    rhs: np.ndarray
    eq: np.ndarray


def _phase_one(std, rows, rhs, eq) -> Optional[_FeasibleTableau]:
    """A feasible basis of ``std``, the rows' standard form, or None when they are infeasible.

    Phase one never reads the objective.
    """
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
    for arr in (tableau, basis, columns, rows, rhs, eq):
        arr.setflags(write=False)
    return _FeasibleTableau(tableau, basis, columns, nv, rows, rhs, eq)


def _phase_two(
    feasible: _FeasibleTableau, objectives: np.ndarray
) -> tuple[np.ndarray, _Simplex, np.ndarray, np.ndarray]:
    """Optimize each row of ``objectives`` from the feasible basis, as one stack.

    Returns ``(x, run, tableau, basis)``: each problem's x, the kernel's
    ``_Simplex``, whose status also reads ``_DRIFTED`` for an optimum that
    fails the re-check, and the final (k, m+1, W) tableaux and (k, m) bases
    that ``_reduced_cost_gap`` reads.  x is meaningful only where the status
    is ``_OPTIMAL``.
    """
    size = len(objectives)
    nv = feasible.width
    start = feasible.tableau  # its cost row is zero
    cost = np.zeros((size, start.shape[1]))
    # A merged column carries the summed objective of its entries, added to
    # zero in entry order: add.at is unbuffered and walks the entries in order.
    live = feasible.columns >= 0
    np.add.at(cost, (slice(None), feasible.columns[live]), objectives[:, live])
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
    return x, run, tableau, basis


def _reduced_cost_gap(tableau: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Per final tableau of a phase-two stack: the least -d_j over its nonbasic columns j.

    d is the cost row.  Every feasible point of the standard form scores the
    optimum plus the sum of d_j times its entry j over the nonbasic j, so a
    point with a nonbasic entry of at least 1 scores at least the gap below
    the optimum.  inf when every column is basic.
    """
    cost = tableau[:, -1, :-1].copy()
    np.put_along_axis(cost, basis, -np.inf, axis=1)
    return -cost.max(axis=1, initial=-np.inf)


def solve(problem: LPProblem) -> LPSolution:
    """Two-phase simplex.  The optimal x is a vertex of the feasible region.

    Phase two runs as a stack of one.  Raises ``RuntimeError`` when the
    simplex hits its iteration cap or its optimum fails the drift re-check.
    """
    packed = _pack(problem)
    feasible = _phase_one(_standard_form(*packed), *packed)
    if feasible is None:
        return LPSolution(LPStatus.INFEASIBLE, None, float("nan"))
    x, run, _, _ = _phase_two(feasible, problem.objective[None])
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
# the simplex would stop at X* too.  ``_decode_chunk`` holds the reduced-cost
# gap of phase two's optimum to the same margin before taking it as ML.
_CERT_MARGIN = 1e-6

# ``_decode_chunk`` takes at most this many received words, which bounds a
# stack of phase-two tableaux to a few MB.
_CHUNK = 512

# ``_ml_scan`` multiplies as many received words at a time by the whole codebook
# as keep one block's inner products within this many entries (8 MB).
_ML_SCORES = 1 << 20

# An ML-only decode on a Birkhoff face answers its certificate misses by a
# scan when the code has at most this many codewords, and from phase two above
# it.  ML-only at 0/4/8 dB (2,000 trials per point, medians of five calls in
# three processes, one core of a shared Xeon), the scan ran 1.2-1.7x phase
# two's trials/s on derangement(5), 1.7-2.1x on (6) to (8), and 0.5-0.6x on
# derangement(9), where a scanning call also builds 11-19 ms of float codebook.
_ML_SCAN_MAX = 35_000


@dataclass(frozen=True)
class _CodePolytope:
    """A constraint system compiled by one presolve, for LP decoding and vertex enumeration.

    ``std`` is the standard form of the Birkhoff rows and cs.rows (None when
    inconsistent), whose presolve fixed ``fixed`` entries at zero and merged
    ``merged`` into another; ``method`` is how ``permlp.polytope`` walks its
    vertices: "face" (only the Birkhoff rows left, nothing merged), "row"
    (one row more), "symmetric" (see ``_is_symmetric``) or "screen" (any
    other); ``packed`` holds those rows as given (``_pack``'s arrays).
    ``cube`` and ``bound`` hold cs.rows as exact int64 ``<=`` rows, an equality
    as two, ``cube[i, j]`` holding entry (i, j)'s coefficients: checking a
    permutation matrix is one gather and one comparison.  Arrays are read-only.
    """

    std: Optional[tuple]
    fixed: int
    merged: int
    method: str
    packed: tuple
    cube: np.ndarray
    bound: np.ndarray

    @functools.cached_property
    def feasible(self) -> Optional[_FeasibleTableau]:
        """Phase one on ``std`` (None: empty polytope), run on first use.

        Phase one never reads the objective, so one basis serves every s and
        y.  Vertex enumeration and ML decoding without phase two never read it.
        """
        return _phase_one(self.std, *self.packed)

    def admits(self, rows: np.ndarray, cols: np.ndarray):
        """Whether the permutation matrix with ones at (rows[..., k], cols[..., k]) satisfies cs.

        One-dimensional index arrays give one answer, two-dimensional ones an
        answer per row.
        """
        return (self.cube[rows, cols].sum(axis=-2) <= self.bound).all(axis=-1)


def _is_symmetric(columns: np.ndarray, n: int) -> bool:
    """Whether a presolve's ``columns`` map leaves the symmetric doubly stochastic matrices.

    Every off-diagonal entry shares its reduced column with its transpose
    and with no other entry, and the diagonal is either all fixed at zero or
    all free, each entry in a column of its own.  With only the Birkhoff rows
    left over those columns, the polytope is the symmetric doubly stochastic
    matrices, with a zero diagonal where it is fixed.
    """
    grid = columns.reshape(n, n)
    off = grid[~np.eye(n, dtype=bool)]
    diag = np.diagonal(grid)
    if (off < 0).any() or not np.array_equal(grid, grid.T):
        return False
    if (diag < 0).any() and not (diag < 0).all():
        return False
    entries = np.bincount(columns[columns >= 0])
    return bool((entries[off] == 2).all() and (entries[diag[diag >= 0]] == 1).all())


@functools.lru_cache(maxsize=64)
def _code_polytope(cs: ConstraintSystem) -> _CodePolytope:
    n = cs.n
    # build_decoding_lp's rows, Birkhoff first, so phase one pivots alike here and in solve.
    rows, rhs, eq = _pack(build_decoding_lp(cs, np.zeros(n), np.zeros(n)))
    std = _standard_form(rows, rhs, eq)
    columns = np.arange(n * n) if std is None else std[0]  # None fixes and merges nothing
    fixed = int(np.count_nonzero(columns < 0))
    merged = n * n - fixed - (int(columns.max()) + 1)
    # The 2n Birkhoff rows survive the presolve; with nothing merged and no row
    # besides, the polytope is a Birkhoff face, and one more row cuts that face.
    extra = None if std is None else len(std[1]) - 2 * n
    if not merged:
        method = {0: "face", 1: "row"}.get(extra, "screen")
    else:
        method = "symmetric" if extra == 0 and _is_symmetric(columns, n) else "screen"
    packed = (rows, rhs, eq)
    # The system's own rows follow the 2n Birkhoff rows; their entries are integers.
    rows, rhs, eq = rows[2 * n :].astype(np.int64), rhs[2 * n :].astype(np.int64), eq[2 * n :]
    bound = np.concatenate([rhs, -rhs[eq]])
    cube = np.ascontiguousarray(np.vstack([rows, -rows[eq]]).T.reshape(n, n, bound.size))
    for a in (cube, bound, *packed, *(std or ())):
        a.setflags(write=False)
    return _CodePolytope(std, fixed, merged, method, packed, cube, bound)


def _sort_certificate(polytope: _CodePolytope, s: np.ndarray, ys: np.ndarray):
    """``(hit, perm)`` for each row y of ys: whether the sort-matching X* is certified.

    X* puts the column of the i-th smallest entry of s in the row of the i-th
    smallest entry of y; ``perm[k]`` is its column-to-row map (0-based),
    meaningful only where ``hit[k]``.  X* is certified only when it beats
    every other permutation by the margin and satisfies every row of the
    code exactly; repeated entries and near-ties miss.  s and ys are finite.
    """
    order_s = s.argsort()
    ss = s[order_s]
    order_y = ys.argsort(axis=1)
    perm = np.empty_like(order_y)
    perm[:, order_s] = order_y
    gap_s = (ss[1:] - ss[:-1]).min(initial=np.inf)
    if not gap_s > 0:
        return np.zeros(len(ys), dtype=bool), perm
    sy = np.sort(ys, axis=1)
    gap_y = (sy[:, 1:] - sy[:, :-1]).min(axis=1, initial=np.inf)
    hit = (gap_y * gap_s > _CERT_MARGIN) & polytope.admits(order_y, order_s)
    return hit, perm


class _Chunk(NamedTuple):
    """The LP and ML decoding of a chunk of received words.

    Per word: ``hit`` marks the words the sort certificate answered, and
    ``perm`` is the LP answer's column-to-row map (0-based), X* where ``hit``
    and phase two's rounded optimum elsewhere.  ``codeword`` is set where
    that map is an LP optimum within ``INTEGRALITY_TOL`` of a permutation
    matrix that satisfies the code; ``perm`` means nothing elsewhere.  Per
    miss, in word order: phase two's ``run``, optimum ``x`` and
    ``objectives``, both over the n^2 entries; None when phase two did not
    run.  ``ml`` is each word's ML codeword, None without a code: X* s where
    ``hit``, the LP's word where ``_decode_chunk`` rules out every other
    codeword, and the codebook argmax (``_ml_scan``) elsewhere.
    """

    hit: np.ndarray
    perm: np.ndarray
    codeword: np.ndarray
    run: Optional[_Simplex]
    x: Optional[np.ndarray]
    objectives: Optional[np.ndarray]
    ml: Optional[np.ndarray]


def _check_scale(s: np.ndarray, ys: Optional[np.ndarray] = None) -> None:
    """Refuse non-finite entries, and magnitudes whose products can overflow.

    Every objective and inner product the decoders form sums n terms
    y_i s_j, so max|y| * max|s| * n bounds them.  Nothing is rescaled, so
    every accepted input decodes with the same floats as before.  Without
    ys, s is checked for the pair terms of its images (the polytope's
    pseudo distances and union bounds): every image entry lies within
    max|s| of zero, so |x|^2, v.x and |v - x|^2 are at most 4 n max|s|^2.
    """
    # Python floats: an overflow gives inf without a numpy warning, and a
    # NaN or inf entry makes the bound NaN or inf too.
    top = float(np.abs(s).max(initial=0.0))
    if ys is None:
        bound = 4.0 * len(s) * top * top
    else:
        bound = float(np.abs(ys).max(initial=0.0)) * top * len(s)
    if math.isfinite(bound):
        return
    if ys is None:
        if not math.isfinite(top):
            raise ValueError("initial vector must be finite")
        raise ValueError("initial vector is too large: 4 n max|s|^2 overflows")
    if not (np.isfinite(s).all() and np.isfinite(ys).all()):
        raise ValueError("initial vector and received vector must be finite")
    raise ValueError("initial vector and received vector are too large: "
                     "max|y| * max|s| * n overflows")


def _decode_chunk(
    polytope: _CodePolytope, s: np.ndarray, ys: np.ndarray, lp: bool, code: Optional[Code]
) -> _Chunk:
    """Decode each row of ys (at most ``_CHUNK`` rows) against the code (polytope, s).

    Inputs that ``_check_scale`` refuses raise ``ValueError`` before anything
    runs.  The sort certificate runs on every row; a certified X* is the
    unique argmax of codewords @ y, so it is the ML answer too.  The rows it
    misses run through phase two as one stack, the objective of row y being
    y s^T entry by entry as ``build_decoding_lp`` forms it, when ``lp`` is
    set.  Without ``lp`` they run through it only on a Birkhoff face
    (``polytope.method == "face"``), whose every vertex is a permutation
    matrix (Birkhoff-von Neumann), over an s with distinct entries, and for
    a code of more than ``_ML_SCAN_MAX`` codewords, which is slower to scan.

    With ``code``, a miss takes the LP's word as its ML answer when phase
    two's optimum is a codeword and every nonbasic reduced cost of its final
    tableau lies more than ``_CERT_MARGIN`` below zero.  The rows and rhs are
    integers, so any other codeword has a nonbasic entry of at least 1 (an
    entry of X, or an integer slack) and scores at least that margin below
    the optimum: the LP's word is the unique argmax, the one ``_ml_scan``
    returns.  The other misses (no phase two, fractional optima, failed
    solves and small gaps, among them most misses over an s with repeats,
    where another matrix of the code maps s to the same word and the gap is
    0) take the codebook argmax, the lowest index on ties, from one
    ``_ml_scan`` of ``code.codewords``, which is built only then.
    """
    _check_scale(s, ys)
    hit, perm = _sort_certificate(polytope, s, ys)
    misses = (~hit).nonzero()[0]
    codeword = hit.copy()
    known = hit  # the words whose ML answer is X s for X = perm
    run = x = objectives = None
    # ML alone runs phase two only on a face over distinct s (repeats leave a
    # gap of 0) whose codebook is too large to scan more cheaply.
    ml_lp = (code is not None and polytope.method == "face" and len(set(s.tolist())) == len(s)
             and len(code) > _ML_SCAN_MAX)
    if len(misses) and (lp or ml_lp):
        size, n = len(misses), len(s)
        objectives = (ys[misses, :, None] * s).reshape(size, n * n)
        x, run, tableau, basis = _phase_two(polytope.feasible, objectives)
        # The candidate matrix puts each column's 1 at its largest entry.  An
        # optimum within the tolerance of it rounds to it, and its rows are then
        # distinct: the drift re-check holds every row sum within 1e-6 of 1.
        found = x.reshape(size, n, n).argmax(axis=1)
        onehot = found[:, None, :] == np.arange(n)[:, None]
        codeword[misses] = (
            (run.status == _OPTIMAL)
            & (np.abs(x - onehot.reshape(size, n * n)).max(axis=1) <= INTEGRALITY_TOL)
            & polytope.admits(found, np.arange(n))
        )
        perm[misses] = found
        if code is not None:
            known = codeword.copy()
            known[misses] &= _reduced_cost_gap(tableau, basis) > _CERT_MARGIN
    ml = None
    if code is not None:
        ml = np.empty_like(ys)
        np.put_along_axis(ml, perm, s, axis=1)
        scan = (~known).nonzero()[0]
        if len(scan):
            ml[scan] = code.codewords[_ml_scan(code.codewords, ys[scan])]
    return _Chunk(hit, perm, codeword, run, x, objectives, ml)


def lp_decode_batch(
    cs: ConstraintSystem, s: Sequence[float], ys: np.ndarray
) -> list[DecodeResult]:
    """``lp_decode`` of every row of ys, as one batch.

    The rows run through ``_decode_chunk`` in slices of ``_CHUNK``: one
    certificate pass per slice, and one simplex stack of the rows it misses.
    Each result equals ``lp_decode(cs, s, y)`` of its row.  A row whose
    simplex fails raises ``RuntimeError``; non-finite entries, or entries so
    large that max|y| * max|s| * n overflows, raise ``ValueError``.
    """
    n = cs.n
    s = np.asarray(s, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if s.shape != (n,) or ys.ndim != 2 or ys.shape[1:] != (n,):
        raise ValueError("initial vector and received vector must have length n")
    polytope = _code_polytope(cs)
    if polytope.feasible is None:
        raise InfeasibleCodeError("empty code polytope")
    results = []
    for start in range(0, len(ys), _CHUNK):
        chunk = ys[start : start + _CHUNK]
        out = _decode_chunk(polytope, s, chunk, True, None)
        j = 0  # the row's place among the chunk's misses
        for k, y in enumerate(chunk):
            x = PermutationMatrix(tuple((out.perm[k] + 1).tolist())) if out.codeword[k] else None
            word = None if x is None else x.apply(s)
            if out.hit[k]:
                results.append(DecodeResult(
                    matrix=x, word=word, fractional=None, objective_value=float(y @ word),
                    certified=True, stats={"pivots": 0, "degenerate": 0, "blands": False}))
                continue
            run = out.run
            if run.status[j] != _OPTIMAL:
                raise RuntimeError(_FAILURES[run.status[j]])
            stats = {"pivots": int(run.pivots[j]), "degenerate": int(run.degenerate[j]),
                     "blands": bool(run.blands[j])}
            results.append(DecodeResult(
                matrix=x, word=word,
                fractional=None if x is not None else out.x[j].reshape(n, n).copy(),
                objective_value=float(out.objectives[j] @ out.x[j]), stats=stats))
            j += 1
    return results


def lp_decode(cs: ConstraintSystem, s: Sequence[float], y: Sequence[float]) -> DecodeResult:
    """LP decoding of y against the code (cs, s), as a batch of one.

    The sort certificate is tried first: when it holds, X* is returned with
    ``certified`` set and objective y . (X* s), without a simplex.  Otherwise
    phase two runs from the phase-one basis cached per constraint system,
    which gives the same result as ``solve(build_decoding_lp(cs, s, y))``.
    The two agree on every certified input too, up to the last bits of the
    objective.  Non-finite entries in s or y, or entries so large that
    max|y| * max|s| * n overflows, raise ``ValueError``; a simplex that hits
    its iteration cap or drifts raises ``RuntimeError``.
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
    s, or entries so large that max|y| * max|s| * n overflows, raise
    ``ValueError``.
    """
    if len(code) == 0:
        raise ValueError("empty code")
    y = np.asarray(y, dtype=float)
    if y.shape != (code.n,):
        raise ValueError("received vector length does not match the code degree")
    # Every codeword is a rearrangement of s, so the first one stands for s.
    _check_scale(code.codewords[0], y)
    g = code.codewords @ y
    k = int(np.argmax(g))
    tie = bool(np.count_nonzero(g >= g[k] - 0.5e-12) > 1)
    return k + 1, code.codewords[k].copy(), tie


def _ml_scan(words: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """For each row of ys, the index of the row of words with the largest inner product.

    ``words`` is a code's codeword array and ys is finite.  Each product
    takes as many rows of ys as keep its scores within ``_ML_SCORES``
    entries; ``argmax`` keeps the lowest index on exact ties, as
    ``ml_decode_detail`` does (0-based here).
    """
    at = np.empty(len(ys), dtype=np.intp)
    step = max(1, _ML_SCORES // len(words))
    for lo in range(0, len(ys), step):
        at[lo : lo + step] = (ys[lo : lo + step] @ words.T).argmax(axis=1)
    return at


def ml_decode(code: Code, y: Sequence[float]) -> np.ndarray:
    """Maximum-likelihood codeword for y under AWGN (argmin Euclidean distance)."""
    _, word, _ = ml_decode_detail(code, y)
    return word
