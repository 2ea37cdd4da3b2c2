"""Simplex solver against scipy, plus the LP/ML decoders."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from permlp import lp
from permlp.constraints import (
    ConstraintRow,
    ConstraintSystem,
    Relation,
    block,
    derangement,
    involution,
    pure_involution,
    satisfies,
)
from permlp.codebook import CodeSpec, build_code
from permlp.lp import (
    InfeasibleCodeError,
    LPProblem,
    LPStatus,
    birkhoff_rows,
    build_decoding_lp,
    lp_decode,
    ml_decode,
    ml_decode_detail,
    solve,
)
from permlp.perm import PermutationMatrix, var_index


def test_simplex_tiny_known_optimum():
    prob = LPProblem.make(
        2,
        [3.0, 2.0],
        [({1: 1, 2: 1}, Relation.LE, 4), ({1: 1}, Relation.LE, 2)],
    )
    sol = solve(prob)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(10.0)  # x = (2, 2)
    assert np.allclose(sol.x, [2.0, 2.0])


def test_simplex_infeasible():
    prob = LPProblem.make(
        1, [1.0], [({1: 1}, Relation.EQ, 1), ({1: 1}, Relation.EQ, 2)]
    )
    assert solve(prob).status is LPStatus.INFEASIBLE


def test_simplex_negative_rhs_normalization():
    # -x1 <= -2 i.e. x1 >= 2, minimizing direction bounded by x1 <= 3.
    prob = LPProblem.make(
        1, [-1.0], [({1: -1}, Relation.LE, -2), ({1: 1}, Relation.LE, 3)]
    )
    sol = solve(prob)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(-2.0)


def test_problem_rejects_duplicate_positions():
    # Packing pairs into a dense row used to keep only the last duplicate: the
    # first LP below is unbounded, the second is feasible at x = (0, 0).
    with pytest.raises(ValueError, match="duplicate"):
        LPProblem.make(2, [1.0, 1.0], [([(1, 1.0), (1, -1.0), (2, 1.0)], Relation.LE, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        LPProblem.make(2, [1.0, 1.0], [([(1, 1.0), (1, 1.0)], Relation.LE, 1)])


def test_simplex_unbounded():
    prob = LPProblem.make(2, [1.0, 0.0], [({2: 1}, Relation.LE, 1)])
    assert solve(prob).status is LPStatus.UNBOUNDED


def test_simplex_degenerate_equalities():
    # Duplicate and linearly dependent rows must not break phase one.
    prob = LPProblem.make(
        2,
        [1.0, 1.0],
        [
            ({1: 1, 2: 1}, Relation.EQ, 1),
            ({1: 1, 2: 1}, Relation.EQ, 1),
            ({1: 2, 2: 2}, Relation.EQ, 2),
        ],
    )
    sol = solve(prob)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(1.0)


@pytest.mark.parametrize("trial", range(40))
def test_simplex_matches_scipy_random(trial):
    rng = np.random.default_rng(1000 + trial)
    nv = int(rng.integers(2, 7))
    m = int(rng.integers(1, 6))
    obj = rng.normal(size=nv).round(3)
    rows = []
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for _ in range(m):
        coeffs = rng.normal(size=nv).round(3)
        nz = {p + 1: coeffs[p] for p in range(nv) if coeffs[p] != 0}
        if not nz:
            continue
        rhs = round(float(rng.normal()), 3)
        if rng.random() < 0.5:
            rows.append((nz, Relation.LE, rhs))
            a_ub.append(coeffs)
            b_ub.append(rhs)
        else:
            rows.append((nz, Relation.EQ, rhs))
            a_eq.append(coeffs)
            b_eq.append(rhs)
    # Keep the region bounded so both solvers agree on status.
    rows.append(({p + 1: 1.0 for p in range(nv)}, Relation.LE, 10.0))
    a_ub.append(np.ones(nv))
    b_ub.append(10.0)

    mine = solve(LPProblem.make(nv, obj, rows))
    ref = linprog(
        -obj,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=(0, None),
        method="highs",
    )
    if ref.status == 2:
        assert mine.status is LPStatus.INFEASIBLE
    elif ref.status == 3:
        assert mine.status is LPStatus.UNBOUNDED
    else:
        assert ref.status == 0
        assert mine.status is LPStatus.OPTIMAL
        assert mine.objective_value == pytest.approx(-ref.fun, abs=1e-6)


@pytest.mark.parametrize("n", [3, 4])
def test_birkhoff_optimum_is_permutation(n):
    # The Birkhoff polytope's vertices are permutation matrices, so every LP
    # optimum lands on one (assignment-problem integrality).
    rng = np.random.default_rng(7)
    for _ in range(50):
        c = rng.normal(size=n * n)
        sol = solve(LPProblem.make(n * n, c, birkhoff_rows(n)))
        assert sol.status is LPStatus.OPTIMAL
        x = sol.x.reshape(n, n)
        assert np.max(np.abs(x - np.rint(x))) < 1e-7
        PermutationMatrix.from_dense(np.rint(x).astype(np.int8))


def test_decoding_lp_objective_layout():
    cs = derangement(3)
    s = np.array([0.0, 1.0, 2.0])
    y = np.array([0.5, -1.0, 2.0])
    prob = build_decoding_lp(cs, s, y)
    want = np.outer(y, s).reshape(9)
    assert np.allclose(prob.objective, want)
    # trace(C^T X) must equal y . (X s) for any permutation matrix.
    for p in [(2, 3, 1), (3, 1, 2), (2, 1, 3)]:
        x = PermutationMatrix(p)
        assert float(prob.objective @ x.vec()) == pytest.approx(float(y @ x.apply(s)))


def test_lp_decode_two_symbol_example():
    res = lp_decode(derangement(2), np.array([0.0, 1.0]), np.array([0.9, 0.2]))
    assert res.is_codeword
    assert np.allclose(res.word, [1.0, 0.0])
    assert res.objective_value == pytest.approx(0.9, abs=1e-9)
    assert res.matrix.perm == (2, 1)


def test_lp_decode_failure_returns_fractional_point():
    # 2*X11 = 1 pins the corner entry to one half, so the polytope is
    # nonempty yet contains no permutation matrix: every decode fails.
    cs = ConstraintSystem(3, (ConstraintRow.make({var_index(1, 1, 3): 2}, Relation.EQ, 1),))
    res = lp_decode(cs, np.array([0.0, 1.0, 2.0]), np.array([1.5, 0.6, 1.0]))
    assert not res.is_codeword
    assert res.matrix is None and res.word is None
    frac = res.fractional
    assert frac.shape == (3, 3)
    assert np.allclose(frac.sum(axis=0), 1.0) and np.allclose(frac.sum(axis=1), 1.0)
    assert frac[0, 0] == pytest.approx(0.5)
    assert np.max(np.abs(frac - np.rint(frac))) > 0.2  # genuinely fractional


def test_lp_decode_infeasible_code():
    with pytest.raises(InfeasibleCodeError):
        lp_decode(derangement(1), np.array([1.0]), np.array([0.3]))


def test_lp_decode_rejects_bad_lengths():
    with pytest.raises(ValueError):
        lp_decode(derangement(3), np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0]))


def test_ml_decode_matches_argmin():
    code = build_code(CodeSpec(4, derangement(4), (0.0, 1.0, 2.0, 3.0)))
    rng = np.random.default_rng(5)
    for _ in range(100):
        y = rng.normal(scale=2.0, size=4)
        d2 = np.sum((code.codewords - y) ** 2, axis=1)
        want = code.codewords[int(np.argmin(d2))]
        assert np.array_equal(ml_decode(code, y), want)


def test_ml_decode_tie_flag():
    code = build_code(CodeSpec(2, derangement(2), (0.0, 1.0)))
    k, word, tie = ml_decode_detail(code, np.array([0.3, 0.7]))
    assert k == 1 and not tie
    # Equidistant point between two codewords of a larger code:
    code4 = build_code(CodeSpec(4, derangement(4), (0.0, 1.0, 2.0, 3.0)))
    mid = (code4.codewords[0] + code4.codewords[1]) / 2.0
    _, _, tie = ml_decode_detail(code4, mid)
    assert tie


def _ml_by_distance(code, y):
    """Oracle: argmin of squared distances, ties to the lowest index."""
    d2 = np.sum((code.codewords - y) ** 2, axis=1)
    k = int(np.argmin(d2))
    return k + 1, code.codewords[k], bool(np.any(np.delete(d2, k) <= d2[k] + 1e-12))


@pytest.mark.parametrize(
    "cs,s",
    [
        (derangement(6), tuple(float(v) for v in range(6))),
        (block(6, 3), tuple(float(v) for v in range(6))),
        (pure_involution(6), (-1.5, -0.5, 0.25, 1.0, 2.0, 4.0)),
        (derangement(5), (0.0, 0.0, 1.0, 1.0, 2.0)),  # singular: repeated words
    ],
    ids=["derangement6", "block6_3", "pure_involution6", "derangement5_singular"],
)
def test_ml_decode_matches_distance_oracle(cs, s):
    code = build_code(CodeSpec(cs.n, cs, s))
    rng = np.random.default_rng(17)
    ties = 0
    for t in range(600):
        if t % 2:
            # Half-integer points: many are equidistant from several codewords.
            y = rng.integers(-2, 2 * cs.n + 2, size=cs.n) / 2.0
        else:
            y = code.codewords[rng.integers(len(code))] + rng.normal(scale=0.8, size=cs.n)
        k, word, tie = ml_decode_detail(code, y)
        want_k, want_word, want_tie = _ml_by_distance(code, y)
        assert (k, tie) == (want_k, want_tie)
        assert np.array_equal(word, want_word)
        ties += tie
    assert ties > 5


def test_ml_certificate_small():
    # Whenever LP decoding returns a codeword it is an ML answer.
    spec = CodeSpec(4, derangement(4), (0.0, 1.0, 2.0, 3.0))
    code = build_code(spec)
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(200):
        sent = code.codewords[rng.integers(len(code))]
        y = sent + rng.normal(scale=0.7, size=4)
        res = lp_decode(spec.cs, np.asarray(spec.s), y)
        if not res.is_codeword:
            continue
        checked += 1
        d_lp = float(np.sum((res.word - y) ** 2))
        d_ml = float(np.min(np.sum((code.codewords - y) ** 2, axis=1)))
        assert d_lp == pytest.approx(d_ml, abs=1e-9)
    assert checked > 100


# ---------------------------------------------------------------------------
# Phase one cached per constraint system
# ---------------------------------------------------------------------------


def _same(a, b):
    return (
        a.is_codeword == b.is_codeword
        and a.objective_value == b.objective_value
        and a.matrix == b.matrix
        and (a.word is None and b.word is None or np.array_equal(a.word, b.word))
        and (
            a.fractional is None and b.fractional is None
            or np.array_equal(a.fractional, b.fractional)
        )
    )


def test_lp_decode_cache_is_not_mutated():
    cs = pure_involution(6)
    s = np.arange(6.0)
    rng = np.random.default_rng(3)
    y1, y2 = s + rng.normal(scale=1.5, size=6), s[::-1] + rng.normal(scale=1.5, size=6)
    first = lp_decode(cs, s, y1)
    lp_decode(cs, s, y2)
    assert _same(first, lp_decode(cs, s, y1))


def test_lp_decode_interleaved_systems_match_fresh_cache():
    a, b = derangement(5), block(6, 3)
    rng = np.random.default_rng(4)
    calls = [(a, rng.normal(size=5)), (b, rng.normal(size=6)), (a, rng.normal(size=5))]
    interleaved = [lp_decode(cs, np.arange(float(cs.n)), y) for cs, y in calls]
    for (cs, y), got in zip(calls, interleaved):
        lp._code_polytope.cache_clear()
        assert _same(got, lp_decode(cs, np.arange(float(cs.n)), y))


def test_lp_decode_infeasible_every_call():
    lp._code_polytope.cache_clear()
    for _ in range(3):
        with pytest.raises(InfeasibleCodeError):
            lp_decode(derangement(1), np.array([1.0]), np.array([0.3]))


def test_lp_decode_matches_cold_solve():
    cs = block(6, 3)
    s = np.arange(6.0)
    rng = np.random.default_rng(6)
    integral = 0
    for _ in range(60):
        y = s[rng.permutation(6)] + rng.normal(scale=1.0, size=6)
        res = lp_decode(cs, s, y)
        sol = solve(build_decoding_lp(cs, s, y))
        assert sol.status is LPStatus.OPTIMAL
        if res.is_codeword:
            integral += 1
            # A certified answer sums y . (X* s) in another order than the
            # simplex, so only the last bits of the objective may differ.
            assert res.objective_value == pytest.approx(sol.objective_value, rel=1e-12, abs=0)
            assert satisfies(cs, res.matrix)
            assert np.array_equal(res.matrix.vec(), np.rint(sol.x))
            assert np.array_equal(res.word, res.matrix.apply(s))
            if res.certified:
                assert res.objective_value == float(y @ res.word)
        else:
            assert res.objective_value == sol.objective_value
            assert np.array_equal(res.fractional, sol.x.reshape(6, 6))
    assert 0 < integral < 60


def test_constraint_system_hash_cached_and_shared():
    a, b = block(8, 2, redundant=True), block(8, 2, redundant=True)
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.n, a.rows))  # the dataclass hash, computed once
    lp._code_polytope.cache_clear()
    s = np.arange(8.0)
    lp_decode(a, s, s[::-1])
    lp_decode(b, s, s)
    info = lp._code_polytope.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


# ---------------------------------------------------------------------------
# Sort certificate
# ---------------------------------------------------------------------------


def _fixpair5():
    row = ConstraintRow.make({var_index(1, 1, 5): 1, var_index(5, 5, 5): 1}, Relation.EQ, 1)
    return ConstraintSystem(5, (row,))


ACCEPTANCE_SYSTEMS = {
    "derangement4": lambda: derangement(4),
    "derangement5": lambda: derangement(5),
    "fixpair5": _fixpair5,
    "involution4": lambda: involution(4),
    "block4": lambda: block(4, 2),
    "block4_2r": lambda: block(4, 2, redundant=True),
    "pure_involution6": lambda: pure_involution(6),
    "block6_3": lambda: block(6, 3),
    "pure_involution8": lambda: pure_involution(8),
    "block8_2r": lambda: block(8, 2, redundant=True),
}


def _assert_cold_equal(res, sol, n):
    """A decode that fell through to the simplex equals the cold solve bit for bit."""
    assert not res.certified
    assert res.objective_value == sol.objective_value
    if res.is_codeword:
        assert np.array_equal(res.matrix.vec(), np.rint(sol.x))
    else:
        assert np.array_equal(res.fractional, sol.x.reshape(n, n))


@pytest.mark.parametrize("name", sorted(ACCEPTANCE_SYSTEMS))
def test_sort_certificate_matches_cold_solve_and_argmax(name):
    cs = ACCEPTANCE_SYSTEMS[name]()
    n = cs.n
    s = np.arange(float(n))
    code = build_code(CodeSpec(n, cs, tuple(s)))
    rng = np.random.default_rng(31)
    certified = 0
    for t in range(60):
        sent = code.codewords[rng.integers(len(code))]
        y = sent + rng.normal(scale=(0.4, 0.7, 1.0)[t % 3], size=n)
        res = lp_decode(cs, s, y)
        sol = solve(build_decoding_lp(cs, s, y))
        if not res.certified:
            _assert_cold_equal(res, sol, n)
            continue
        certified += 1
        assert np.array_equal(res.matrix.vec(), np.rint(sol.x))
        assert np.array_equal(res.word, res.matrix.apply(s))
        assert res.objective_value == float(y @ res.word)
        assert res.objective_value == pytest.approx(sol.objective_value, rel=1e-12, abs=0)
        k, word, tie = ml_decode_detail(code, y)
        assert np.array_equal(word, res.word) and not tie
        assert code.find(res.matrix) == k - 1
    assert certified > 0


_TIE_SYSTEMS = [derangement(4), block(4, 2), pure_involution(4), derangement(5), _fixpair5()]


@given(
    st.sampled_from(_TIE_SYSTEMS),
    st.lists(st.floats(-4, 4, allow_nan=False), min_size=5, max_size=5),
    st.sampled_from(["y_tie", "s_tie", "y_near_tie"]),
    st.data(),
)
def test_sort_certificate_ties_fall_through(cs, values, kind, data):
    n = cs.n
    s = np.arange(float(n))
    y = np.array(values[:n])
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    if kind == "y_tie":
        y[j] = y[i]
    elif kind == "s_tie":
        s[j] = s[i]
    else:
        # Shift every other entry well away, so the only near-tie is i, j.
        y = np.arange(float(n)) * 0.5 + 0.01 * y
        y[j] = y[i] + 1e-12
    res = lp_decode(cs, s, y)
    _assert_cold_equal(res, solve(build_decoding_lp(cs, s, y)), n)


def test_sort_certificate_rejects_non_finite():
    polytope = lp._code_polytope(derangement(4))
    s = np.arange(4.0)
    assert lp._sort_certificate(polytope, s, np.array([3.0, 2.0, 1.0, 0.0])) is not None
    for bad in (np.nan, np.inf, -np.inf):
        assert lp._sort_certificate(polytope, s, np.array([3.0, 2.0, 1.0, bad])) is None


def test_sort_certificate_fails_outside_the_code():
    # y close to s itself sorts to the identity, which no derangement is.
    cs = derangement(5)
    s = np.arange(5.0)
    res = lp_decode(cs, s, s + 0.01)
    assert not res.certified
    _assert_cold_equal(res, solve(build_decoding_lp(cs, s, s + 0.01)), 5)
    # Away from the identity the same system certifies.
    assert lp_decode(cs, s, s[[1, 2, 3, 4, 0]]).certified
