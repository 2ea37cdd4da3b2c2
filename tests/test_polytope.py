"""Exact vertex enumeration: feasibility, extremality, and known geometry."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from permlp.codebook import CodeSpec, build_code
from permlp.constraints import (
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
from permlp import polytope
from permlp.lp import LPProblem, LPStatus, birkhoff_rows, solve
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
    want = [enumerate_vertices(cs, n).vertices for cs, n in systems]
    monkeypatch.setattr(polytope, "_SCREEN_CHUNK", 7)
    got = [enumerate_vertices(cs, n).vertices for cs, n in systems]
    assert got == want
