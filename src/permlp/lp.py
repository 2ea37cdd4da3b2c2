"""Self-contained dense-tableau linear programming and LP decoding.

The solver maximizes a linear objective over { x >= 0 : rows }, rows being
sparse equality or <= constraints.  It runs the textbook two-phase simplex on
a dense numpy tableau: phase one drives artificial variables out, phase two
optimizes the real objective.  Entering columns follow the largest-reduced-
cost rule until the iteration stalls on degenerate pivots, after which the
solver switches permanently to Bland's rule, which guarantees termination.

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
cached; the decode starts phase two from a copy of that feasible tableau.
Phase one never reads the objective, so a fall-through makes the same
pivots, and returns the same result, as a cold two-phase solve.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Optional, Sequence

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


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    # Rows with a zero factor would only have zero subtracted from them.
    hit = factors.nonzero()[0]
    tableau[hit] -= factors[hit, None] * pivot_row
    basis[row] = col


def _choose_leaving(tableau: np.ndarray, basis: np.ndarray, col: int, m: int):
    """Minimum-ratio row; ties broken towards the smallest basis variable."""
    column = tableau[:m, col]
    rows = (column > _EPS).nonzero()[0]
    ratios = tableau[rows, -1] / column[rows]
    best_row, best_ratio = -1, np.inf
    for r, ratio in zip(rows.tolist(), ratios.tolist()):
        if ratio < best_ratio - _EPS or (
            abs(ratio - best_ratio) <= _EPS
            and (best_row < 0 or basis[r] < basis[best_row])
        ):
            best_row, best_ratio = r, ratio
    return best_row, best_ratio


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, ncols: int, m: int) -> LPStatus:
    """Optimize the tableau in place.  Returns OPTIMAL or UNBOUNDED."""
    if ncols == 0:  # the presolve fixed every variable
        return LPStatus.OPTIMAL
    stall_budget = 5 * (m + ncols)
    stalled = 0
    blands = False
    max_iters = 200 * (m + ncols) + 2000
    for _ in range(max_iters):
        reduced = tableau[-1, :ncols]
        if blands:
            candidates = (reduced > _EPS).nonzero()[0]
            if candidates.size == 0:
                return LPStatus.OPTIMAL
            col = int(candidates[0])
        else:
            col = int(reduced.argmax())
            if reduced[col] <= _EPS:
                return LPStatus.OPTIMAL
        row, ratio = _choose_leaving(tableau, basis, col, m)
        if row < 0:
            return LPStatus.UNBOUNDED
        _pivot(tableau, basis, row, col)
        if ratio <= _EPS:
            stalled += 1
            if not blands and stalled > stall_budget:
                blands = True
        else:
            stalled = 0
    raise RuntimeError("simplex failed to terminate within the iteration cap")


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
    final feasibility re-check.  The arrays are read-only; phase two works on
    copies.
    """

    tableau: np.ndarray
    basis: np.ndarray
    columns: np.ndarray
    width: int
    rows: np.ndarray
    rhs: np.ndarray
    eq: np.ndarray


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
    status = _run_simplex(tableau, basis, tableau.shape[1] - 1, m)
    if status is not LPStatus.OPTIMAL:  # pragma: no cover - bounded by construction
        raise RuntimeError("phase one cannot be unbounded")
    if tableau[-1, -1] > 1e-7:
        return None
    # Pivot lingering artificials out; a row with no real coefficient is
    # redundant and dropped.
    keep = np.ones(m, dtype=bool)
    for r in np.flatnonzero(basis >= width).tolist():  # a pivot on r changes basis[r] only
        real = np.flatnonzero(np.abs(tableau[r, :width]) > 1e-7)
        if real.size:
            _pivot(tableau, basis, r, int(real[0]))
        else:
            keep[r] = False

    tableau = np.delete(tableau[np.append(keep, True)], np.s_[width:-1], axis=1)
    tableau[-1] = 0.0
    basis = basis[keep]
    for arr in (tableau, basis, columns, rows, rhs, eq):
        arr.setflags(write=False)
    return _FeasibleTableau(tableau, basis, columns, nv, rows, rhs, eq)


def _phase_two(feasible: _FeasibleTableau, objective: np.ndarray) -> LPSolution:
    """Optimize the objective from the feasible basis (the tables are copied)."""
    tableau = feasible.tableau.copy()
    basis = feasible.basis.copy()
    m = basis.size
    nv = feasible.width
    # A merged column carries the summed objective of its entries.
    fixed = feasible.columns < 0
    tableau[-1, :nv] = np.bincount(
        feasible.columns[~fixed], weights=objective[~fixed], minlength=nv
    )
    # Basis columns are exact unit vectors, so subtracting row r changes no
    # other basic cost: the costs read up front are the ones a sequential
    # elimination would read, and the subtractions keep their order.
    costs = tableau[-1, basis]
    for r in costs.nonzero()[0].tolist():
        tableau[-1] -= costs[r] * tableau[r]
    status = _run_simplex(tableau, basis, tableau.shape[1] - 1, m)
    if status is LPStatus.UNBOUNDED:
        return LPSolution(LPStatus.UNBOUNDED, None, float("nan"))

    reduced = np.zeros(nv + 1, dtype=float)  # the last slot reads 0 for fixed entries
    real = basis < nv
    reduced[basis[real]] = tableau[:m, -1][real]
    x = reduced[feasible.columns]
    value = float(objective @ x)

    # Cheap internal revalidation against drift, on the rows as given.
    dev = feasible.rows @ x - feasible.rhs
    if np.any(np.where(feasible.eq, np.abs(dev), dev) > 1e-6):  # pragma: no cover - defensive
        raise RuntimeError("simplex returned an infeasible point")
    return LPSolution(LPStatus.OPTIMAL, x, value)


def solve(problem: LPProblem) -> LPSolution:
    """Two-phase simplex.  The optimal x is a vertex of the feasible region."""
    feasible = _phase_one(*_pack(problem))
    if feasible is None:
        return LPSolution(LPStatus.INFEASIBLE, None, float("nan"))
    return _phase_two(feasible, problem.objective)


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
    """LP decoding outcome: a codeword, or a declared failure."""

    matrix: Optional[PermutationMatrix]
    word: Optional[np.ndarray]
    fractional: Optional[np.ndarray]
    objective_value: float
    certified: bool = False  # answered by the sort certificate, no simplex

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

    def admits(self, rows: np.ndarray, cols: np.ndarray) -> bool:
        """Whether the permutation matrix with ones at (rows[k], cols[k]) satisfies cs."""
        return bool((self.cube[rows, cols].sum(axis=0) <= self.bound).all())


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


def _sort_certificate(polytope: _CodePolytope, s: np.ndarray, y: np.ndarray):
    """Column-to-row map (0-based) of the sort-matching X*, or None.

    X* puts the column of the i-th smallest entry of s in the row of the i-th
    smallest entry of y.  It is returned only when it beats every other
    permutation by the margin and satisfies every row of the code exactly;
    repeated entries, near-ties and non-finite inputs return None.
    """
    order_s, order_y = s.argsort(), y.argsort()
    ss, ys = s[order_s], y[order_y]
    # NaN sorts last, so finite ends mean finite entries.
    if not np.isfinite((ys[0], ys[-1], ss[0], ss[-1])).all():
        return None
    gap = (ys[1:] - ys[:-1]).min(initial=np.inf) * (ss[1:] - ss[:-1]).min(initial=np.inf)
    if not gap > _CERT_MARGIN or not polytope.admits(order_y, order_s):
        return None
    perm = np.empty_like(order_s)
    perm[order_s] = order_y
    return perm


def lp_decode(cs: ConstraintSystem, s: Sequence[float], y: Sequence[float]) -> DecodeResult:
    """LP decoding of y against the code (cs, s).

    The sort certificate is tried first: when it holds, X* is returned with
    ``certified`` set and objective y . (X* s), without a simplex.  Otherwise
    phase two runs from the phase-one basis cached per constraint system,
    which gives the same result as ``solve(build_decoding_lp(cs, s, y))``.
    The two agree on every certified input too, up to the last bits of the
    objective.  Non-finite entries in s or y raise ``ValueError``.
    """
    n = cs.n
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    if s.shape != (n,) or y.shape != (n,):
        raise ValueError("initial vector and received vector must have length n")
    polytope = _code_polytope(cs)
    if polytope.feasible is None:
        raise InfeasibleCodeError("empty code polytope")
    perm = _sort_certificate(polytope, s, y)
    if perm is not None:
        x = PermutationMatrix(tuple((perm + 1).tolist()))
        word = x.apply(s)
        return DecodeResult(
            matrix=x, word=word, fractional=None, objective_value=float(y @ word), certified=True
        )
    # The certificate refuses non-finite entries, so only a miss pays this check.
    if not (np.isfinite(s).all() and np.isfinite(y).all()):
        raise ValueError("initial vector and received vector must be finite")
    sol = _phase_two(polytope.feasible, np.outer(y, s).reshape(n * n))
    if sol.status is not LPStatus.OPTIMAL:  # pragma: no cover - polytope is bounded
        raise RuntimeError(f"unexpected LP status {sol.status}")
    frac = sol.x.reshape(n, n)
    rounded = np.rint(frac)
    if np.max(np.abs(frac - rounded)) <= INTEGRALITY_TOL:
        try:
            x = PermutationMatrix.from_dense(rounded.astype(np.int8))
        except ValueError:
            x = None
        if x is not None and polytope.admits(np.array(x.perm) - 1, np.arange(n)):
            return DecodeResult(
                matrix=x,
                word=x.apply(s),
                fractional=None,
                objective_value=sol.objective_value,
            )
    return DecodeResult(
        matrix=None, word=None, fractional=frac, objective_value=sol.objective_value
    )


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


def ml_decode(code: Code, y: Sequence[float]) -> np.ndarray:
    """Maximum-likelihood codeword for y under AWGN (argmin Euclidean distance)."""
    _, word, _ = ml_decode_detail(code, y)
    return word
