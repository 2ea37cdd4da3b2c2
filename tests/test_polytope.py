"""Exact vertex enumeration: feasibility, extremality, and known geometry."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from permlp.codebook import CodeSpec, build_code
from permlp.constraints import (
    _MAGNITUDE_CAP,
    ConstraintRow,
    ConstraintSystem,
    Relation,
    block,
    cyclic,
    derangement,
    involution,
    pure_involution,
    transposition,
)
from permlp import lp, polytope
from permlp.lp import LPProblem, LPStatus, _code_polytope, birkhoff_rows, lp_decode, solve
from permlp.perm import PermutationMatrix, var_index
from permlp.polytope import (
    BasisBudgetError,
    RationalMatrix,
    enumerate_vertices,
    min_pseudo_distance,
    pseudo_distance,
)


def _trace_cs(n, value):
    row = ConstraintRow.make(
        {var_index(i, i, n): 1 for i in range(1, n + 1)}, Relation.EQ, value
    )
    return ConstraintSystem(n, (row,))


def _screened(cs, n):
    """``(vertices, stats)`` of the basis-walk screen, the structured methods' oracle."""
    return polytope._screen(n, _code_polytope(cs), polytope.DEFAULT_BASIS_BUDGET)


# ---------------------------------------------------------------------------
# Exactness oracles applied to every enumerated vertex
# ---------------------------------------------------------------------------


def _row_vector(row, n):
    vec = [Fraction(0)] * (n * n)
    for p, c in row.coeffs:
        vec[p - 1] = Fraction(c)
    return vec


def _active_rows(cs, v):
    """All equality rows active at v, in exact arithmetic."""
    n = v.n
    flat = [v.entries[i][j] for i in range(n) for j in range(n)]
    rows = []
    for i in range(n):  # row sums
        vec = [Fraction(0)] * (n * n)
        for j in range(n):
            vec[i * n + j] = Fraction(1)
        rows.append(vec)
    for j in range(n):  # column sums
        vec = [Fraction(0)] * (n * n)
        for i in range(n):
            vec[i * n + j] = Fraction(1)
        rows.append(vec)
    for row in cs.rows:
        lhs = sum(Fraction(c) * flat[p - 1] for p, c in row.coeffs)
        if row.relation is Relation.EQ or lhs == row.rhs:
            rows.append(_row_vector(row, n))
    return flat, rows


def _is_extreme(cs, v):
    """Rank test: active rows restricted to the support must pin v uniquely."""
    flat, rows = _active_rows(cs, v)
    support = [p for p, val in enumerate(flat) if val != 0]
    reduced = [[r[p] for p in support] for r in rows]
    rank = 0
    width = len(support)
    for col in range(width):
        pivot = next((r for r in range(rank, len(reduced)) if reduced[r][col] != 0), None)
        if pivot is None:
            return False  # a free direction exists: not a vertex
        reduced[rank], reduced[pivot] = reduced[pivot], reduced[rank]
        inv = Fraction(1) / reduced[rank][col]
        reduced[rank] = [x * inv for x in reduced[rank]]
        for r in range(len(reduced)):
            if r != rank and reduced[r][col] != 0:
                factor = reduced[r][col]
                reduced[r] = [a - factor * b for a, b in zip(reduced[r], reduced[rank])]
        rank += 1
    return rank == width


CASES = [
    (_trace_cs(3, 1), 3),
    (derangement(3), 3),
    (derangement(4), 4),
    (involution(4), 4),
    (block(4, 2), 4),
    (cyclic(4), 4),
]


def _assert_satisfies_exactly(cs, v):
    n = v.n
    flat = [v.entries[i][j] for i in range(n) for j in range(n)]
    for row in cs.rows:
        lhs = sum(Fraction(c) * flat[p - 1] for p, c in row.coeffs)
        if row.relation is Relation.EQ:
            assert lhs == row.rhs
        else:
            assert lhs <= row.rhs
    for i in range(n):  # exact double stochasticity
        assert sum(v.entries[i]) == 1
        assert sum(r[i] for r in v.entries) == 1
        assert all(e >= 0 for e in v.entries[i])


@pytest.mark.parametrize("cs,n", CASES)
def test_vertices_satisfy_all_rows_exactly(cs, n):
    vs = enumerate_vertices(cs, n)
    assert len(vs) > 0
    for v in vs.vertices:
        _assert_satisfies_exactly(cs, v)


@st.composite
def _small_systems(draw):
    """Raw systems at n <= 4, many with zero-rhs rows the presolve acts on."""
    n = draw(st.integers(2, 4))
    positions = st.integers(1, n * n)
    rows = []
    for _ in range(draw(st.integers(1, 3 if n < 4 else 2))):
        kind = draw(st.sampled_from(["tie", "same_sign", "general"]))
        if kind == "tie":
            a, b = draw(st.lists(positions, min_size=2, max_size=2, unique=True))
            c, d = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
            coeffs, rhs = {a: c, b: -d}, 0  # c != d ties nothing
        else:
            pos = draw(st.lists(positions, min_size=1, max_size=4, unique=True))
            sign = draw(st.sampled_from([1, -1]))
            signs = st.just(sign) if kind == "same_sign" else st.sampled_from([1, -1])
            coeffs = {p: draw(signs) * draw(st.integers(1, 2)) for p in pos}
            rhs = 0 if kind == "same_sign" else draw(st.integers(-1, 2))
        rows.append(ConstraintRow.make(coeffs, draw(st.sampled_from(list(Relation))), rhs))
    return ConstraintSystem(n, tuple(rows))


@settings(max_examples=40)
@given(_small_systems())
def test_random_system_vertices_are_exact_extreme_points(cs):
    n = cs.n
    vs = enumerate_vertices(cs, n)
    for v in vs.vertices:
        _assert_satisfies_exactly(cs, v)
        assert _is_extreme(cs, v)
    got = {v.to_permutation().perm for v in vs.integral}
    want = {m.perm for m in build_code(CodeSpec(n, cs, tuple(map(float, range(n))))).matrices}
    assert got == want


@pytest.mark.parametrize("cs,n", CASES)
def test_vertices_are_extreme_points(cs, n):
    vs = enumerate_vertices(cs, n)
    for v in vs.vertices:
        assert _is_extreme(cs, v)


@pytest.mark.parametrize("cs,n", CASES)
def test_integral_vertices_equal_brute_force_code(cs, n):
    vs = enumerate_vertices(cs, n)
    got = {v.to_permutation().perm for v in vs.integral}
    want = {m.perm for m in build_code(CodeSpec(n, cs, tuple(map(float, range(n))))).matrices}
    assert got == want


@pytest.mark.parametrize("cs,n", CASES)
def test_random_lp_optima_land_on_enumerated_vertices(cs, n):
    # Soundness of completeness: the simplex terminates at a vertex for any
    # objective, and that vertex must already be in the enumerated set.
    vs = enumerate_vertices(cs, n)
    as_float = np.array([v.to_float() for v in vs.vertices])
    rows = birkhoff_rows(n) + [
        (dict(r.coeffs), r.relation, float(r.rhs)) for r in cs.rows
    ]
    dense = np.zeros((len(rows), n * n))
    for r, (coeffs, _, _) in enumerate(rows):
        dense[r, [p - 1 for p in coeffs]] = list(coeffs.values())
    rhs = np.array([b for _, _, b in rows])
    eq = np.array([rel is Relation.EQ for _, rel, _ in rows])
    a_eq, b_eq = dense[eq], rhs[eq]
    a_ub, b_ub = (dense[~eq], rhs[~eq]) if (~eq).any() else (None, None)
    rng = np.random.default_rng(3)
    for _ in range(30):
        c = rng.normal(size=n * n)
        sol = solve(LPProblem.make(n * n, c, rows))
        assert sol.status is LPStatus.OPTIMAL
        # scipy's dual simplex, an oracle that shares no presolve with solve,
        # must stop on an enumerated vertex too.
        ref = linprog(-c, A_eq=a_eq, b_eq=b_eq, A_ub=a_ub, b_ub=b_ub, method="highs-ds")
        assert ref.status == 0
        for x in (sol.x, ref.x):
            errs = np.abs(as_float - x.reshape(n, n)).reshape(len(as_float), -1).max(axis=1)
            assert errs.min() < 1e-7


def test_enumeration_deterministic():
    a = enumerate_vertices(involution(4), 4)
    b = enumerate_vertices(involution(4), 4)
    assert [v.entries for v in a.vertices] == [v.entries for v in b.vertices]


def test_infeasible_system_has_no_vertices():
    assert len(enumerate_vertices(_trace_cs(2, 5), 2)) == 0
    assert len(enumerate_vertices(derangement(1), 1)) == 0


def test_basis_budget_guard():
    with pytest.raises(BasisBudgetError):
        enumerate_vertices(derangement(5), 5, max_bases=10)


# ---------------------------------------------------------------------------
# RationalMatrix behaviour
# ---------------------------------------------------------------------------


def test_rational_matrix_validation():
    h = Fraction(1, 2)
    RationalMatrix(((h, h), (h, h)))
    with pytest.raises(ValueError):
        RationalMatrix(((Fraction(1), Fraction(0)), (Fraction(1), Fraction(0))))
    with pytest.raises(ValueError):
        RationalMatrix(((Fraction(2), Fraction(-1)), (Fraction(-1), Fraction(2))))


def test_rational_matrix_round_trips_permutations():
    x = PermutationMatrix((3, 1, 2))
    rm = RationalMatrix.from_permutation(x)
    assert rm.is_integral
    assert rm.to_permutation().perm == x.perm
    s = (0.0, 1.0, 2.0)
    assert np.allclose(rm.image(s), x.apply(np.asarray(s)))


def test_rational_matrix_image_exact():
    h = Fraction(1, 2)
    rm = RationalMatrix(((h, h), (h, h)))
    assert np.allclose(rm.image((0.0, 1.0)), [0.5, 0.5])
    with pytest.raises(ValueError):
        rm.to_permutation()


# ---------------------------------------------------------------------------
# Pseudo distance
# ---------------------------------------------------------------------------


def test_pseudo_distance_between_permutations_is_half_gap():
    s = np.array([0.0, 1.0, 2.0, 3.0])
    for p, q in itertools.combinations(itertools.permutations((1, 2, 3, 4)), 2):
        x, y = PermutationMatrix(p), PermutationMatrix(q)
        if np.allclose(x.apply(s), y.apply(s)):
            continue
        want = float(np.linalg.norm(y.apply(s) - x.apply(s))) / 2.0
        assert pseudo_distance(x, y, s) == pytest.approx(want, abs=1e-12)


def test_pseudo_distance_is_not_symmetric_in_general():
    n = 3
    vs = enumerate_vertices(_trace_cs(3, 1), 3)
    s = (0.0, 1.0, 2.0)
    frac = vs.fractional[0]
    integral = vs.integral[0]
    d1 = pseudo_distance(integral, frac, s)
    d2 = pseudo_distance(frac, integral, s)
    assert d1 != pytest.approx(d2, abs=1e-6)


def test_pseudo_distance_rejects_identical_images():
    s = (0.0, 1.0, 2.0)
    x = PermutationMatrix((1, 2, 3))
    with pytest.raises(ValueError):
        pseudo_distance(x, x, s)


def test_min_pseudo_distance_brute_force_small():
    cs = derangement(4)
    s = (0.0, 1.0, 2.0, 3.0)
    vs = enumerate_vertices(cs, 4)
    want = min(
        pseudo_distance(x, v, s)
        for x in vs.integral
        for v in vs.vertices
        if v.entries != x.entries
    )
    assert min_pseudo_distance(vs, cs, s) == pytest.approx(want, abs=1e-12)


def test_min_pseudo_distance_rejects_vertices_of_another_system():
    vs = enumerate_vertices(_trace_cs(3, 1), 3)
    s = (0.0, 1.0, 2.0)
    # Of the integral vertices (1,3,2), (3,2,1) and (2,1,3), only the first
    # has X11 = 1, so one violating vertex among valid ones must be caught.
    x11_zero = ConstraintSystem(3, (ConstraintRow.make({var_index(1, 1, 3): 1}, Relation.EQ, 0),))
    for other in (derangement(3), x11_zero):
        with pytest.raises(ValueError, match="integral vertex violates the constraint system"):
            min_pseudo_distance(vs, other, s)
    with pytest.raises(ValueError, match="degree mismatch"):
        min_pseudo_distance(vs, derangement(4), s)
    assert min_pseudo_distance(vs, _trace_cs(3, 1), s) > 0


def test_vertex_set_float_stack_and_images():
    vs = enumerate_vertices(_trace_cs(3, 1), 3)
    s = (0.0, 1.0, 2.0)
    assert vs.float_stack.shape == (5, 3, 3)
    for v, m, integral, img in zip(vs.vertices, vs.float_stack, vs.integral_mask, vs.images(s)):
        assert np.array_equal(m, v.to_float())
        assert integral == v.is_integral
        assert np.array_equal(img, v.image(s))
    assert vs.float_stack is vs.float_stack  # built once
    with pytest.raises(ValueError, match="vector length"):
        vs.images((0.0, 1.0))
    empty = polytope.VertexSet(3, ())
    assert empty.float_stack.shape == (0, 3, 3) and empty.integral_mask.shape == (0,)


def _fraction_gauss_jordan(mat, rhs):
    """Gauss-Jordan elimination of mat @ x = rhs in Fraction arithmetic: the kernel's oracle.

    It pivots as ``polytope._gauss_jordan`` does, on the first nonzero row at
    or below the pivots so far, swapped up, and divides each pivot row by its
    pivot.  Returns ``(pivots, rows, 1)``: the rows are Fractions whose common
    denominator is 1, so the screen reads them as it reads the kernel's.
    Returns None when a row left without a pivot has a nonzero rhs.
    """
    a = [[Fraction(c) for c in row] + [Fraction(b)] for row, b in zip(mat, rhs)]
    origin = list(range(len(a)))
    pivots = []
    for col in range(len(mat[0])):
        k = len(pivots)
        piv = next((i for i in range(k, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[k], a[piv] = a[piv], a[k]
        origin[k], origin[piv] = origin[piv], origin[k]
        pv = a[k][col]
        a[k] = [x / pv for x in a[k]]
        for i in range(len(a)):
            if i != k and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
        pivots.append((origin[k], col))
    if any(row[-1] != 0 for row in a[len(pivots):]):
        return None
    return pivots, a, 1


def _exact_bases(cs):
    """``(cols, x)`` for every column basis of the standard form's independent rows.

    x maps each basic column to its value, solved in Fractions, or is None
    when the basis is singular.  An inconsistent system has no basis.
    """
    std = _code_polytope(cs).std
    if std is None:
        return
    _, rows, rhs, _ = std
    a, b = rows.astype(np.int64), rhs.astype(np.int64).tolist()
    reduced = _fraction_gauss_jordan(a.tolist(), b)
    if reduced is None:
        return
    kept = sorted(r for r, _ in reduced[0])
    a, b = a[kept], [b[r] for r in kept]
    for cols in itertools.combinations(range(a.shape[1]), len(kept)):
        solved = _fraction_gauss_jordan(a[:, cols].tolist(), b)
        if solved is None or len(solved[0]) < len(kept):
            yield cols, None
        else:  # pivot k sits in basis column k
            yield cols, {cols[k]: row[-1] for (_, k), row in zip(solved[0], solved[1])}


def _exact_basis_counts(cs):
    """(bases, nonsingular, feasible) over every column basis, solved in Fractions."""
    counts = [0, 0, 0]
    for _, x in _exact_bases(cs):
        counts[0] += 1
        if x is not None:
            counts[1] += 1
            counts[2] += min(x.values()) >= 0
    return tuple(counts)


def test_vertex_set_stats_count_the_enumeration():
    # Acceptance 4's trace-1 polytope: every count of the float screen agrees
    # with an exact solve of each of its 84 bases.
    cs = _trace_cs(3, 1)
    _, stats = _screened(cs, 3)
    assert stats == {"bases": 84, "nonsingular": 74, "feasible": 56, "solved": 5,
                     "fixed": 0, "merged": 0}
    assert _exact_basis_counts(cs) == (84, 74, 56)
    # derangement(5) fixes its five diagonal entries; pure_involution(6)
    # fixes the diagonal and merges each entry with its transpose.
    assert _screened(derangement(5), 5)[1] == {
        "bases": 167_960, "nonsingular": 40_500, "feasible": 26_280, "solved": 44,
        "fixed": 5, "merged": 0}
    assert _screened(pure_involution(6), 6)[1] == {
        "bases": 5005, "nonsingular": 2530, "feasible": 1930, "solved": 25,
        "fixed": 6, "merged": 15}


def test_vertex_set_stats_leave_equality_and_hash_alone():
    vs = enumerate_vertices(_trace_cs(3, 1), 3)
    bare = polytope.VertexSet(3, vs.vertices)
    assert bare.stats is None and bare == vs and hash(bare) == hash(vs)
    # An inconsistent system still reports its (empty) walk.
    x11_two = ConstraintSystem(3, (ConstraintRow.make({var_index(1, 1, 3): 1}, Relation.EQ, 2),))
    assert enumerate_vertices(x11_two, 3).stats["feasible"] == 0


def test_pure_involution_polytope_n4_is_integral():
    vs = enumerate_vertices(pure_involution(4), 4)
    assert len(vs) == 3 and len(vs.fractional) == 0


def test_screen_chunk_size_does_not_change_vertices(monkeypatch):
    # The acceptance-3 families and the acceptance-4 trace polytope, screened
    # in batches of 7 bases, so every instance spans many batches.
    systems = [
        (cyclic(4), 4),
        (derangement(4), 4),
        (involution(4), 4),
        (transposition(4), 4),
        (transposition(4, with_symmetry=True), 4),
        (block(4, 2), 4),
        (block(4, 2, redundant=True), 4),
        (_trace_cs(3, 1), 3),
    ]
    want = [_screened(cs, n)[0] for cs, n in systems]
    monkeypatch.setattr(polytope, "_SCREEN_CHUNK", 7)
    got = [_screened(cs, n)[0] for cs, n in systems]
    assert got == want


# ---------------------------------------------------------------------------
# Structured methods: a Birkhoff face, cut by at most one row
# ---------------------------------------------------------------------------


def _fixpair_cs(n):
    row = ConstraintRow.make({var_index(1, 1, n): 1, var_index(n, n, n): 1}, Relation.EQ, 1)
    return ConstraintSystem(n, (row,))


def _assert_equals_screen(cs, n):
    vs = enumerate_vertices(cs, n)
    want, _ = _screened(cs, n)
    assert vs.vertices == want
    # Byte-identical too: the same entry strings, in the same order.
    assert [[str(e) for row in v.entries for e in row] for v in vs.vertices] == [
        [str(e) for row in v.entries for e in row] for v in want
    ]
    return vs


@pytest.mark.parametrize(
    "cs,n,method",
    [
        (_trace_cs(3, 1), 3, "row"),
        (_trace_cs(4, 2), 4, "row"),
        (derangement(4), 4, "face"),
        (derangement(5), 5, "face"),
        (transposition(4), 4, "row"),
        (transposition(4, with_symmetry=True), 4, "screen"),
        pytest.param(transposition(5), 5, "row", marks=pytest.mark.slow),
        (transposition(5, with_symmetry=True), 5, "screen"),
        pytest.param(_fixpair_cs(5), 5, "row", marks=pytest.mark.slow),
    ],
    ids=["trace1_n3", "trace2_n4", "derangement4", "derangement5", "transposition4",
         "transposition4_sym", "transposition5", "transposition5_sym", "fixpair5"],
)
def test_structured_methods_equal_the_screen(cs, n, method):
    # The screen takes about 10 s on each of the slow instances.
    assert _assert_equals_screen(cs, n).stats["method"] == method


def _one_row(n, coeffs, relation, rhs, fixed=()):
    rows = (ConstraintRow.make(coeffs, relation, rhs),)
    if fixed:
        rows += (ConstraintRow.make(dict.fromkeys(fixed, 1), Relation.EQ, 0),)
    return ConstraintSystem(n, rows)


@st.composite
def _one_row_systems(draw):
    """At most one general row beside a zero-rhs row fixing entries, at n <= 5.

    The fixed entries avoid an anchor permutation, so the face is never
    empty, and the row's rhs lies near the anchor's value on it.  At n = 5
    at least ten entries are fixed, so the screen walks at most C(16, 10)
    bases.
    """
    n = draw(st.integers(1, 5))
    anchor = draw(st.permutations(range(n)))  # the column of each row's one
    off = [i * n + j + 1 for i in range(n) for j in range(n) if anchor[i] != j]
    fixed = draw(st.lists(st.sampled_from(off), min_size=10 if n == 5 else 0,
                          max_size=12 if n == 5 else len(off) // 2, unique=True)) if off else []
    rows = []
    if fixed:
        rows.append(ConstraintRow.make(dict.fromkeys(fixed, 1), Relation.EQ, 0))
    if draw(st.integers(0, 3)):
        pos = draw(st.lists(st.integers(1, n * n), min_size=1, max_size=n * n, unique=True))
        coeffs = {p: draw(st.sampled_from([-3, -2, -1, 1, 2, 3])) for p in pos}
        value = sum(c for p, c in coeffs.items() if anchor[(p - 1) // n] == (p - 1) % n)
        rhs = value + draw(st.integers(-2, 2))
        rows.append(ConstraintRow.make(coeffs, draw(st.sampled_from(list(Relation))), rhs))
    return ConstraintSystem(n, tuple(rows))


@settings(max_examples=80, derandomize=True)
@given(_one_row_systems())
@example(_one_row(3, {1: 2, 5: -1, 9: 1}, Relation.EQ, 1))  # negative coefficient
@example(_one_row(4, {1: 1, 6: 1, 11: 1, 16: 1}, Relation.LE, 1))  # le row
@example(_one_row(4, {1: 1, 6: 1, 11: 1, 16: 1}, Relation.EQ, 2, fixed=(2, 5)))  # fixed beside it
@example(_one_row(4, {2: -1, 7: 2, 12: -1}, Relation.LE, -1, fixed=(1, 6, 11)))
@example(_one_row(3, {1: 1, 5: 1}, Relation.EQ, 5))  # infeasible row
@example(_one_row(3, {1: 1, 5: 1}, Relation.LE, -1))  # infeasible le row
def test_structured_methods_match_the_screen_on_random_rows(cs):
    _assert_equals_screen(cs, cs.n)


def test_structured_stats_count_candidates_and_pairs():
    assert enumerate_vertices(derangement(5), 5).stats == {
        "method": "face", "candidates": 44, "pairs": 0, "feasible": 44, "fixed": 5, "merged": 0}
    # fixpair5: of 120 permutations 36 lie on the row, 6 above it and 78 below;
    # 294 of the 6 * 78 pairs across it are edges.
    assert enumerate_vertices(_fixpair_cs(5), 5).stats == {
        "method": "row", "candidates": 414, "pairs": 468, "feasible": 330, "fixed": 0, "merged": 0}


# ---------------------------------------------------------------------------
# Symmetric polytopes: (P + P^T) / 2 by closed form
# ---------------------------------------------------------------------------

_INVOLUTION_COUNTS = [1, 2, 5, 14, 58, 238, 1_516, 9_020, 79_892, 635_984, 7_127_764, 70_757_968]
_PURE_INVOLUTION_COUNTS = [0, 1, 1, 3, 22, 25, 717, 1_057, 39_196, 98_829, 3_450_925, 13_067_659]


def test_symmetric_counts_follow_the_generating_function():
    for diagonal, counts in ((True, _INVOLUTION_COUNTS), (False, _PURE_INVOLUTION_COUNTS)):
        assert [polytope._symmetric_count(n, diagonal) for n in range(1, 13)] == counts
        for n in range(1, 9):
            perms = polytope._symmetric_permutations(n, diagonal)
            assert len(perms) == counts[n - 1]
            # Permutations, each matrix P + P^T once.
            assert (np.sort(perms, axis=1) == np.arange(n)).all()
            doubled = np.zeros((len(perms), n, n), dtype=np.int8)
            doubled[np.arange(len(perms))[:, None], np.arange(n), perms] += 1
            doubled = doubled + doubled.transpose(0, 2, 1)
            assert len(np.unique(doubled.reshape(len(perms), n * n), axis=0)) == len(perms)
            assert diagonal or not np.diagonal(doubled, axis1=1, axis2=2).any()


@pytest.mark.parametrize(
    "cs,n",
    [(involution(n), n) for n in range(2, 7)]
    + [(pure_involution(n), n) for n in range(2, 8)]
    + [pytest.param(pure_involution(8), 8, marks=pytest.mark.slow)],
    ids=[f"involution{n}" for n in range(2, 7)] + [f"pinv{n}" for n in range(2, 9)],
)
def test_symmetric_vertices_equal_the_screen(cs, n):
    # The screen takes about 4 s on pinv8.
    assert _assert_equals_screen(cs, n).stats["method"] == "symmetric"


def test_symmetric_edge_degrees():
    # involution(1) merges nothing, so it stays a face; pure_involution(1)
    # is empty; odd pure involutions have only fractional vertices.
    assert enumerate_vertices(involution(1), 1).stats["method"] == "face"
    assert len(_assert_equals_screen(involution(1), 1)) == 1
    assert len(_assert_equals_screen(pure_involution(1), 1)) == 0
    for n, count in ((3, 1), (5, 22), (7, 717)):
        vs = enumerate_vertices(pure_involution(n), n)
        assert (len(vs), len(vs.integral)) == (count, 0)
    third = enumerate_vertices(pure_involution(3), 3).vertices[0]
    half, zero = Fraction(1, 2), Fraction(0)
    assert third.entries == ((zero, half, half), (half, zero, half), (half, half, zero))


def test_symmetric_stats_and_large_degrees():
    assert enumerate_vertices(pure_involution(6), 6).stats == {
        "method": "symmetric", "counted": 25, "fixed": 6, "merged": 15}
    assert enumerate_vertices(involution(4), 4).stats == {
        "method": "symmetric", "counted": 14, "fixed": 0, "merged": 6}
    vs = enumerate_vertices(pure_involution(8), 8)
    assert (len(vs), len(vs.integral)) == (1_057, 105)
    vs = enumerate_vertices(involution(8), 8)
    assert (len(vs), len(vs.integral)) == (9_020, 764)
    for v in vs.vertices[::97]:
        _assert_satisfies_exactly(involution(8), v)
        assert _is_extreme(involution(8), v)


def _rows_cs(n, rows):
    return ConstraintSystem(n, tuple(ConstraintRow.make(c, Relation.EQ, 0) for c in rows))


def _tie(n, a, b):
    """x_a - x_b = 0, with a and b (i, j) pairs."""
    return {var_index(*a, n): 1, var_index(*b, n): -1}


def test_symmetric_tag_reads_the_presolve_not_the_family():
    n = 4
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, i)]
    # The symmetry rows flipped and reordered, and the zero diagonal as one
    # row per entry: still symmetric.
    flipped = [_tie(n, (j, i), (i, j)) for i, j in reversed(pairs)]
    assert _code_polytope(_rows_cs(n, flipped)).method == "symmetric"
    diag = [{var_index(i, i, n): 1} for i in range(1, n + 1)]
    assert _code_polytope(_rows_cs(n, flipped + diag)).method == "symmetric"
    # Near misses take the screen: one pair left unmerged, one diagonal
    # entry fixed, two diagonal entries tied, an entry tied to one that is
    # not its transpose, a row left beside the Birkhoff rows.
    assert _code_polytope(_rows_cs(n, flipped[1:])).method == "screen"
    assert _code_polytope(_rows_cs(n, flipped + diag[:1])).method == "screen"
    assert _code_polytope(_rows_cs(n, flipped + [_tie(n, (1, 1), (2, 2))])).method == "screen"
    assert _code_polytope(_rows_cs(n, flipped + [_tie(n, (1, 2), (1, 3))])).method == "screen"
    assert _code_polytope(transposition(n, with_symmetry=True)).method == "screen"
    cap = ConstraintRow.make({var_index(1, 1, n): 1}, Relation.LE, 1)
    assert _code_polytope(ConstraintSystem(n, involution(n).rows + (cap,))).method == "screen"


def test_symmetric_work_is_charged_before_listing(monkeypatch):
    # n^2 = 36 units per vertex: 25 vertices fit 900 units, not 899.
    assert len(enumerate_vertices(pure_involution(6), 6, max_bases=900)) == 25
    listed = []
    real = polytope._symmetric_permutations
    monkeypatch.setattr(polytope, "_symmetric_permutations",
                        lambda *args: listed.append(args) or real(*args))
    with pytest.raises(BasisBudgetError, match="900 units of work exceed the budget of 899"):
        enumerate_vertices(pure_involution(6), 6, max_bases=899)
    # involution(10): 635,984 vertices at 100 units each pass 6e6.
    with pytest.raises(BasisBudgetError, match="63598400 units"):
        enumerate_vertices(involution(10), 10)
    with pytest.raises(BasisBudgetError):
        enumerate_vertices(pure_involution(12), 12)
    assert listed == []


@pytest.mark.parametrize("cs", [pure_involution(6), _fixpair_cs(5)],
                         ids=["pure_involution6", "fixpair5"])
def test_each_system_is_presolved_once(cs, monkeypatch):
    # Decoding, vertex enumeration and the pseudo distance's membership check
    # all read one compiled polytope.
    calls = []
    real = lp._presolve

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lp, "_presolve", counted)
    lp._code_polytope.cache_clear()
    s = np.random.default_rng(5).normal(size=cs.n)
    lp_decode(cs, s, s[::-1])
    vs = enumerate_vertices(cs, cs.n)
    assert min_pseudo_distance(vs, cs, s) > 0
    assert len(calls) == 1


def test_phase_one_runs_only_for_a_simplex(monkeypatch):
    # Vertex enumeration and ML decoding off a face run no simplex, so the
    # compiled polytope runs phase one only when an LP decode first needs it.
    calls = []
    real = lp._phase_one

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lp, "_phase_one", counted)
    lp._code_polytope.cache_clear()
    cs = pure_involution(6)
    s = np.arange(6.0)
    code = build_code(CodeSpec(6, cs, tuple(s)))
    ys = code.codewords[np.arange(40) % len(code)] + np.random.default_rng(8).normal(size=(40, 6))
    enumerate_vertices(cs, 6)
    ml_only = lp._decode_chunk(_code_polytope(cs), s, ys, False, code)
    assert calls == [] and not ml_only.hit.all()
    lp_decode(cs, s, ys[0])
    both = lp._decode_chunk(_code_polytope(cs), s, ys, True, code)
    assert len(calls) == 1 and np.array_equal(both.ml, ml_only.ml)


def test_structured_work_is_charged_to_the_budget():
    # n^2 = 25 units per candidate, one per pair tested.
    enumerate_vertices(derangement(5), 5, max_bases=44 * 25)
    with pytest.raises(BasisBudgetError):
        enumerate_vertices(derangement(5), 5, max_bases=44 * 25 - 1)
    work = 25 * 120 + 468 + 25 * 294
    assert len(enumerate_vertices(_fixpair_cs(5), 5, max_bases=work)) == 330
    for budget in (work - 1, 25 * 120 + 467):
        with pytest.raises(BasisBudgetError, match="units of work"):
            enumerate_vertices(_fixpair_cs(5), 5, max_bases=budget)
    # derangement(10) has 1,334,961 permutations, past 6e6 / 100; the count
    # stops at the first 60,001.
    with pytest.raises(BasisBudgetError, match="over 60000 permutations"):
        enumerate_vertices(derangement(10), 10)


def test_derangement_6_polytope_is_its_code():
    vs = enumerate_vertices(derangement(6), 6)
    assert len(vs) == 265 and len(vs.fractional) == 0
    want = {m.perm for m in build_code(CodeSpec(6, derangement(6), tuple(map(float, range(6))))).matrices}
    assert {v.to_permutation().perm for v in vs.vertices} == want


def test_one_row_polytopes_past_the_screen():
    vs = enumerate_vertices(transposition(6), 6)
    assert (len(vs), len(vs.integral)) == (409, 15)
    assert len(enumerate_vertices(_fixpair_cs(6), 6)) == 6456


def _low_rank(rng, rows, cols, rank):
    """Integer rows x cols matrix of rank at most `rank`, as nested lists."""
    left = rng.integers(-2, 3, size=(rows, rank))
    right = rng.integers(-2, 3, size=(rank, cols))
    return (left @ right).tolist()


# The fraction-free kernel and its Fraction oracle, each tested on its own.
_ELIMINATIONS = (polytope._gauss_jordan, _fraction_gauss_jordan)


def test_gauss_jordan_keeps_independent_rows():
    rng = np.random.default_rng(3)
    for _ in range(60):
        rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        mat = _low_rank(rng, rows, cols, int(rng.integers(1, min(rows, cols) + 1)))
        rhs = (np.array(mat) @ rng.integers(0, 3, size=cols)).tolist()  # consistent
        for eliminate in _ELIMINATIONS:
            pivots, _, _ = eliminate(mat, rhs)
            kept = sorted(r for r, _ in pivots)
            assert len(set(kept)) == len(kept) == np.linalg.matrix_rank(np.array(mat))
            assert np.linalg.matrix_rank(np.array(mat)[kept]) == len(kept)
            assert [c for _, c in pivots] == sorted({c for _, c in pivots})


def test_gauss_jordan_rejects_an_inconsistent_dependent_row():
    mat = [[1, 2, 0], [0, 1, 1], [1, 3, 1]]  # row 2 = row 0 + row 1
    for eliminate in _ELIMINATIONS:
        assert eliminate(mat, [1, 2, 3]) is not None
        assert eliminate(mat, [1, 2, 4]) is None


def test_gauss_jordan_solves_square_systems_exactly():
    rng = np.random.default_rng(5)
    solved = 0
    while solved < 40:
        r = int(rng.integers(1, 6))
        mat = rng.integers(-3, 4, size=(r, r)).tolist()
        if round(np.linalg.det(np.array(mat, dtype=float))) == 0:
            continue
        rhs = rng.integers(-5, 6, size=r).tolist()
        for eliminate in _ELIMINATIONS:
            pivots, reduced, den = eliminate(mat, rhs)
            assert sorted(c for _, c in pivots) == list(range(r))
            x = [Fraction(row[-1]) / den for row in reduced]  # pivot k in column k
            assert [sum(a * v for a, v in zip(row, x)) for row in mat] == rhs
        solved += 1


def test_gauss_jordan_leaves_a_singular_column_without_pivot():
    rng = np.random.default_rng(6)
    for _ in range(40):
        r = int(rng.integers(2, 6))
        mat = _low_rank(rng, r, r, r - 1)
        rhs = (np.array(mat) @ rng.integers(0, 3, size=r)).tolist()
        for eliminate in _ELIMINATIONS:
            pivots, _, _ = eliminate(mat, rhs)
            assert len(pivots) < r


@st.composite
def _integer_systems(draw):
    """Integer systems, up to 6 x 6: rank-deficient, inconsistent, with zero columns and
    negative entries, some with entries just under the constraint rows' magnitude cap."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    top = draw(st.sampled_from([3, _MAGNITUDE_CAP - 1]))
    entries = st.integers(-top, top)
    if draw(st.booleans()):  # rank at most r: r rows combined with small multipliers
        r = draw(st.integers(0, min(rows, cols)))
        basis = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                              min_size=r, max_size=r))
        mat = []
        for _ in range(rows):
            mix = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
            mat.append([sum(m * b[j] for m, b in zip(mix, basis)) for j in range(cols)])
    else:
        mat = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                            min_size=rows, max_size=rows))
    for j in draw(st.lists(st.integers(0, cols - 1), max_size=2)):  # all-zero columns
        for row in mat:
            row[j] = 0
    if draw(st.booleans()):  # consistent: the rhs of an integer point
        x = draw(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols))
        rhs = [sum(a * v for a, v in zip(row, x)) for row in mat]
    else:
        rhs = draw(st.lists(entries, min_size=rows, max_size=rows))
    return mat, rhs


@settings(max_examples=300, derandomize=True)
@given(_integer_systems())
@example(([[1, 2, 0], [0, 1, 1], [1, 3, 1]], [1, 2, 4]))  # inconsistent dependent row
@example(([[0, 0], [0, 0]], [0, 0]))  # no pivot at all
@example(([[0, 2, -4], [0, -3, 6]], [2, -3]))  # zero column, rank one
@example(([[_MAGNITUDE_CAP - 1, -(_MAGNITUDE_CAP - 1)], [_MAGNITUDE_CAP - 2, 1]], [1, -1]))
def test_gauss_jordan_matches_the_fraction_oracle(system):
    # Same pivots, the same reduced rows as Fractions (so the same solution),
    # and None on the same inputs.  Every division of the kernel is a floor
    # division, so agreement also shows that each one was exact.
    mat, rhs = system
    got, want = polytope._gauss_jordan(mat, rhs), _fraction_gauss_jordan(mat, rhs)
    assert (got is None) == (want is None)
    if got is None:
        return
    (pivots, rows, den), (want_pivots, want_rows, _) = got, want
    assert pivots == want_pivots
    assert type(den) is int and den != 0
    assert all(type(v) is int for row in rows for v in row)
    assert [[Fraction(v, den) for v in row] for row in rows] == want_rows


def _vertex_strings(vs):
    return [[str(e) for row in v.entries for e in row] for v in vs]


def _oracle_screen(run, *args):
    """run(*args) with the screen's eliminations done by the Fraction oracle."""
    with mock.patch.object(polytope, "_gauss_jordan", _fraction_gauss_jordan):
        return run(*args)


@pytest.mark.parametrize(
    "cs,method",
    [(involution(4), "symmetric"), (block(4, 2), "cuts"),
     (block(4, 2, redundant=True), "cuts"), (pure_involution(6), "symmetric")],
    ids=["involution4", "block4", "block4_2r", "pinv6"],
)
def test_screen_vertices_equal_those_of_the_fraction_oracle(cs, method):
    # The acceptance instances that took the screen, screened directly: the
    # same entry strings, in the same order, and the same stats.  They now
    # enumerate by closed form (symmetric) or by cutting the face (cuts), to
    # the same vertices.
    vertices, stats = _screened(cs, cs.n)
    want, want_stats = _oracle_screen(_screened, cs, cs.n)
    assert _vertex_strings(vertices) == _vertex_strings(want)
    assert stats == want_stats
    vs = enumerate_vertices(cs, cs.n)
    assert vs.stats["method"] == method
    assert _vertex_strings(vs.vertices) == _vertex_strings(vertices)


@settings(max_examples=40, derandomize=True)
@given(_small_systems())
def test_screen_on_random_systems_equals_the_fraction_oracle(cs):
    vertices, stats = _screened(cs, cs.n)
    want, want_stats = _oracle_screen(_screened, cs, cs.n)
    assert _vertex_strings(vertices) == _vertex_strings(want)
    assert stats == want_stats


def _exact_walk(cs):
    """Vertices of the code polytope: its feasible bases, each solved in Fractions."""
    n, verts = cs.n, {}
    for _, x in _exact_bases(cs):
        if x is None or min(x.values()) < 0:
            continue
        columns = _code_polytope(cs).std[0]  # -1, a fixed entry, is never basic: it reads 0
        v = RationalMatrix(tuple(tuple(Fraction(x.get(columns[i * n + j], 0)) for j in range(n))
                                 for i in range(n)))
        verts.setdefault(polytope._flat(v), v)
    return tuple(verts[k] for k in sorted(verts))


def _large_rows(rng, count, one_exponent=False):
    """n = 3 systems of two eq rows, coefficients and rhs c * 2^e + d, |c| <= 3, 40 <= e <= 48, |d| <= 2.

    Each coefficient draws its own e, or with one_exponent each row draws one.
    """
    def big(e=None):
        c = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        return c * 2 ** (int(rng.integers(40, 49)) if e is None else e) + int(rng.integers(-2, 3))

    for _ in range(count):
        rows = []
        for _ in range(2):
            pos = (rng.choice(9, size=3, replace=False) + 1).tolist()
            e = int(rng.integers(40, 49)) if one_exponent else None
            rows.append(ConstraintRow.make({p: big(e) for p in pos}, Relation.EQ, big(e)))
        yield ConstraintSystem(3, tuple(rows))


def test_screen_solves_exactly_the_bases_lapack_refuses():
    # LAPACK calls one of these bases singular although its float det
    # passes; the batched solve used to raise LinAlgError for all 36 bases.
    cs = ConstraintSystem(3, (
        ConstraintRow.make({3: 70368744177665, 4: -70368744177662, 9: 70368744177665},
                           Relation.EQ, -70368744177663),
        ConstraintRow.make({6: -8796093022209, 7: -17592186044416, 9: -17592186044415},
                           Relation.EQ, 8796093022207),
    ))
    vertices, stats = _screened(cs, 3)
    assert vertices == _exact_walk(cs) == enumerate_vertices(cs, 3).vertices == ()
    assert stats["bases"] == 36 and stats["solved"] >= 1


def test_screen_on_large_rows_equals_the_exact_walk(monkeypatch):
    # A seeded family of large-coefficient systems; LAPACK refuses a basis
    # in two of them (the 97th and the 109th).  They take the cuts, so the
    # screen is called directly.
    refused = []
    real = polytope._solve_batch

    def spy(*args):
        sols, mask = real(*args)
        refused.append(int(mask.sum()))
        return sols, mask

    monkeypatch.setattr(polytope, "_solve_batch", spy)
    for cs in _large_rows(np.random.default_rng(0), 120):
        assert _screened(cs, 3)[0] == _exact_walk(cs) == enumerate_vertices(cs, 3).vertices
    assert sum(refused) >= 2


# ---------------------------------------------------------------------------
# Cuts: a Birkhoff face cut by every row the presolve leaves
# ---------------------------------------------------------------------------


def _rows(n, *rows):
    """A system of (coeffs, relation, rhs) rows."""
    return ConstraintSystem(n, tuple(ConstraintRow.make(*row) for row in rows))


_EQ, _LE = Relation.EQ, Relation.LE
_CAP = ConstraintRow.make({var_index(1, 1, 4): 1, var_index(2, 2, 4): 1}, _LE, 1)


@pytest.mark.parametrize(
    "cs,n",
    [
        (block(4, 2), 4),
        (block(4, 2, redundant=True), 4),
        (ConstraintSystem(4, transposition(4).rows + (_CAP,)), 4),
        # Inconsistent, though each row alone is not: the second row cuts
        # away every vertex the first leaves.
        (_rows(3, ({1: 1, 5: 1}, _EQ, 2), ({1: 1, 5: 1}, _LE, 1)), 3),
        # A row repeated, and a row that every vertex of the first lies on.
        (_rows(3, ({1: 1, 5: 1}, _EQ, 1), ({1: 1, 5: 1}, _EQ, 1), ({1: 2, 5: 2}, _LE, 2)), 3),
        # Fixed entries beside two general rows.
        (_rows(4, ({2: 1, 7: 1, 12: 1}, _EQ, 0), ({1: 1, 6: 2, 11: -1}, _EQ, 1),
               ({3: 1, 8: 1, 16: 1}, _LE, 1)), 4),
        # An le row tight at the crossings of the first: they read x11 = 1/2.
        (_rows(3, ({1: 1, 5: 1}, _EQ, 1), ({1: 2}, _LE, 1)), 3),
        (_rows(4, ({1: 1, 6: 1, 11: 1}, _EQ, 2), ({1: 2, 6: -1}, _LE, 1), ({16: 2}, _LE, 1)), 4),
        (_rows(1, ({1: 1}, _EQ, 1), ({1: 2}, _LE, 2)), 1),
        (_rows(1, ({1: 1}, _LE, 1), ({1: 2}, _LE, 1)), 1),
        (_rows(2, ({1: 2, 4: 1}, _EQ, 2), ({1: 1}, _LE, 1)), 2),
        (_rows(2, ({1: 2}, _LE, 1), ({2: 2}, _LE, 1)), 2),
    ],
    ids=["block4", "block4_2r", "transposition4_cap", "inconsistent", "redundant", "fixed",
         "tight_le", "tight_le_n4", "n1", "n1_empty", "n2", "n2_half"],
)
def test_cuts_equal_the_screen(cs, n):
    vs = _assert_equals_screen(cs, n)
    assert vs.stats["method"] == "cuts"


def test_cuts_edge_cases_have_the_expected_vertices():
    # The inconsistent system is empty; the tight le row keeps the crossings
    # of the first row, where x11 = x22 = 1/2; n = 1 keeps its one vertex;
    # at n = 2 each pair of rows leaves one point between the two permutations.
    assert len(enumerate_vertices(_rows(3, ({1: 1, 5: 1}, _EQ, 2), ({1: 1, 5: 1}, _LE, 1)), 3)) == 0
    tight = enumerate_vertices(_rows(3, ({1: 1, 5: 1}, _EQ, 1), ({1: 2}, _LE, 1)), 3)
    assert Fraction(1, 2) in {v.entries[0][0] for v in tight.vertices}
    assert all(2 * v.entries[0][0] <= 1 for v in tight.vertices)
    assert len(enumerate_vertices(_rows(1, ({1: 1}, _EQ, 1), ({1: 2}, _LE, 2)), 1)) == 1
    assert len(enumerate_vertices(_rows(1, ({1: 1}, _LE, 1), ({1: 2}, _LE, 1)), 1)) == 0
    at_n2 = [((({1: 2, 4: 1}, _EQ, 2), ({1: 1}, _LE, 1)), Fraction(2, 3)),
             ((({1: 2}, _LE, 1), ({2: 2}, _LE, 1)), Fraction(1, 2))]
    for rows, x11 in at_n2:
        (vertex,) = enumerate_vertices(_rows(2, *rows), 2).vertices
        assert vertex.entries == ((x11, 1 - x11), (1 - x11, x11))


@st.composite
def _cut_systems(draw):
    """Two or three eq or le rows at n = 3 or two at n = 4, coefficients -2..3.

    Each rhs lies near an anchor permutation's value on its row, so most
    systems keep some vertices.
    """
    n = draw(st.integers(3, 4))
    anchor = draw(st.permutations(range(n)))
    rows = []
    for _ in range(draw(st.integers(2, 3 if n == 3 else 2))):
        pos = draw(st.lists(st.integers(1, n * n), min_size=2, max_size=n * n // 2, unique=True))
        coeffs = {p: draw(st.sampled_from([-2, -1, 1, 2, 3])) for p in pos}
        value = sum(c for p, c in coeffs.items() if anchor[(p - 1) // n] == (p - 1) % n)
        rhs = value + draw(st.integers(-1, 1))
        rows.append(ConstraintRow.make(coeffs, draw(st.sampled_from(list(Relation))), rhs))
    return ConstraintSystem(n, tuple(rows))


@settings(max_examples=40, derandomize=True)
@given(_cut_systems())
def test_cuts_match_the_screen_on_random_rows(cs):
    _assert_equals_screen(cs, cs.n)


def test_cuts_stats_count_candidates_and_pairs():
    # block4: 24 permutations; four rows add 52 crossings in all and leave
    # 28 vertices.  The redundant rows leave the 8 codewords.
    assert enumerate_vertices(block(4, 2), 4).stats == {
        "method": "cuts", "candidates": 76, "pairs": 320, "feasible": 28, "fixed": 0, "merged": 0}
    assert enumerate_vertices(block(4, 2, redundant=True), 4).stats == {
        "method": "cuts", "candidates": 76, "pairs": 372, "feasible": 8, "fixed": 0, "merged": 0}
    assert _code_polytope(block(4, 2)).method == "cuts"
    assert _code_polytope(_trace_cs(4, 2)).method == "row"


_FOUND_LARGE = [
    # The screen's float feasibility test discards this system's one vertex.
    _rows(3, ({2: 828497040764736, 8: -2485491122294212, 9: -2485491122294209}, _EQ,
              -2485491122294212),
          ({1: 2485491122294209, 4: 2485491122294211, 7: 2485491122294211}, _EQ,
           2485491122294209)),
    # The screen groups float solutions at 1e-9 and drops two of six vertices.
    _rows(3, ({2: 6597069766656, 8: 4398046511103, 9: 4398046511104}, _EQ, 4398046511106),
          ({1: 17592186044418, 5: -8796093022206, 9: 17592186044417}, _EQ, 8796093022207)),
]


def test_cuts_on_large_rows_equal_the_exact_walk():
    # The cuts take no float decision, so the entries' size does not matter.
    # The screen lists 0 of 1 and 4 of 6 vertices on the two systems it is
    # known to miss, and misses 3 of these 30 seeded systems.
    for cs, count in zip(_FOUND_LARGE, (1, 6)):
        vs = enumerate_vertices(cs, 3)
        assert vs.stats["method"] == "cuts"
        assert vs.vertices == _exact_walk(cs) and len(vs) == count
    screen_misses = 0
    for cs in _large_rows(np.random.default_rng(0), 30, one_exponent=True):
        want = _exact_walk(cs)
        assert enumerate_vertices(cs, 3).vertices == want
        screen_misses += _screened(cs, 3)[0] != want
    assert screen_misses >= 1


def test_cuts_charge_the_pair_test_before_running_it(monkeypatch):
    # block(6, 3) keeps 23,832 vertices after its first cut, and its second
    # would test 4.5e7 pairs against all of them; block(6, 2) is alike.
    tested = []
    real = polytope._adjacent
    monkeypatch.setattr(polytope, "_adjacent",
                        lambda zero, above, below: tested.append(len(above) * len(below))
                        or real(zero, above, below))
    for nu in (3, 2):
        with pytest.raises(BasisBudgetError, match="units of work exceed"):
            enumerate_vertices(block(6, nu), 6)
    assert sum(tested) == 0  # block(6, 2)'s second row has no pair across it
    # block4: 16 units for each of 24 permutations; the first row has 8 x 8
    # pairs across it, one unit each, and 48 crossings; the third has 16 x 16
    # pairs to test against 56 vertices of one word, and 4 crossings.
    work = 16 * 24 + 64 + 16 * 48 + math.ceil(256 * 56 / polytope._TESTS_PER_UNIT) + 16 * 4
    assert len(enumerate_vertices(block(4, 2), 4, max_bases=work)) == 28
    with pytest.raises(BasisBudgetError, match=f"{work} units of work exceed the budget"):
        enumerate_vertices(block(4, 2), 4, max_bases=work - 1)
