"""Simplex solver against scipy, plus the LP/ML decoders."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from permlp import lp
from permlp.constraints import (
    ConstraintRow,
    ConstraintSystem,
    Relation,
    block,
    cyclic,
    derangement,
    involution,
    pure_involution,
    repetition,
    satisfies,
    transposition,
)
from permlp.codebook import CodeSpec, build_code
from permlp.lp import (
    InfeasibleCodeError,
    LPProblem,
    LPStatus,
    birkhoff_rows,
    build_decoding_lp,
    lp_decode,
    lp_decode_batch,
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


def _presolve_lp(rng):
    """A small bounded LP whose rows exercise every presolve rule.

    Row kinds: tie rows x_a = x_b, some scaled (2, -2), and skewed two-entry
    rows (1, -2), which tie nothing; same-sign rows with zero rhs, eq and le,
    whose all-negative le case must fix nothing; rows that a tie's merge
    cancels to nothing, consistent or not; a positive row over every
    variable, which fixes them all; and general rows.
    """
    nv = int(rng.integers(2, 6))
    rows, last_tie = [], None
    kinds = ["tie", "same_sign", "cancel", "fix_all", "general"]
    for kind in rng.choice(kinds, p=[0.3, 0.2, 0.15, 0.05, 0.3], size=rng.integers(1, 6)):
        rel = Relation.EQ if rng.random() < 0.5 else Relation.LE
        if kind == "tie" or (kind == "cancel" and last_tie is None):
            a, b = (int(v) for v in rng.choice(nv, size=2, replace=False) + 1)
            last_tie = (a, b)
            c, d = (float(v) for v in rng.choice([1.0, 2.0, 0.5], size=2))
            rows.append(({a: c, b: -c if rng.random() < 0.7 else -d}, Relation.EQ, 0.0))
        elif kind == "cancel":
            a, b = last_tie
            c = float(rng.choice([1.0, -2.0]))
            rows.append(({a: c, b: -c}, rel, float(rng.choice([0.0, 0.0, 1.0, -1.0]))))
        elif kind == "same_sign":
            k = int(rng.integers(1, nv + 1))
            pos = rng.choice(nv, size=k, replace=False) + 1
            sign = float(rng.choice([1.0, -1.0]))
            coeffs = {int(p): sign * float(rng.choice([1.0, 1.5, 2.0])) for p in pos}
            rows.append((coeffs, rel, 0.0))
        elif kind == "fix_all":
            rows.append(({p: 1.0 for p in range(1, nv + 1)}, rel, 0.0))
        else:
            coeffs = rng.normal(size=nv).round(2)
            rhs = round(float(rng.normal()), 2)
            rows.append(({p + 1: coeffs[p] for p in range(nv) if coeffs[p]}, rel, rhs))
    # Keep the region bounded so both solvers agree on status.
    rows.append(({p: 1.0 for p in range(1, nv + 1)}, Relation.LE, 10.0))
    return LPProblem.make(nv, rng.normal(size=nv).round(3), [r for r in rows if r[0]])


def _linprog(problem):
    dense = np.zeros((len(problem.rows), problem.num_vars))
    for r, (coeffs, _, _) in enumerate(problem.rows):
        for p, c in coeffs:
            dense[r, p - 1] = c
    rhs = np.array([b for _, _, b in problem.rows])
    eq = np.array([rel is Relation.EQ for _, rel, _ in problem.rows])
    return linprog(
        -problem.objective,
        A_ub=dense[~eq] if (~eq).any() else None,
        b_ub=rhs[~eq] if (~eq).any() else None,
        A_eq=dense[eq] if eq.any() else None,
        b_eq=rhs[eq] if eq.any() else None,
        bounds=(0, None),
        method="highs",
    )


def test_presolved_solve_matches_scipy():
    rng = np.random.default_rng(2024)
    fixed_all = merged = infeasible = 0
    for _ in range(400):
        problem = _presolve_lp(rng)
        mine, ref = solve(problem), _linprog(problem)
        if ref.status == 2:
            assert mine.status is LPStatus.INFEASIBLE
            infeasible += 1
        else:
            assert ref.status == 0
            assert mine.status is LPStatus.OPTIMAL
            assert mine.objective_value == pytest.approx(-ref.fun, abs=1e-6)
        pre = lp._presolve(*lp._pack(problem))
        if pre is not None:
            fixed_all += bool((pre[0] < 0).all())
            merged += len(set(pre[0][pre[0] >= 0].tolist())) < (pre[0] >= 0).sum()
    assert fixed_all >= 20 and merged >= 20 and infeasible >= 20


def test_presolve_negative_le_rows_fix_nothing():
    # -x1 - 2 x2 <= 0 holds for every x >= 0: it is dropped and fixes nothing.
    rows, rhs, eq = np.array([[-1.0, -2.0], [1.0, 1.0]]), np.array([0.0, 1.0]), np.zeros(2, bool)
    columns, red_rows, _, _ = lp._presolve(rows, rhs, eq)
    assert columns.tolist() == [0, 1] and red_rows.tolist() == [[1.0, 1.0]]
    # Below a negative rhs the row stays.
    columns, red_rows, _, _ = lp._presolve(rows, np.array([-1.0, 1.0]), eq)
    assert columns.tolist() == [0, 1] and red_rows.tolist() == rows.tolist()
    # As an equality with zero rhs it forces both entries to zero.
    columns, red_rows, _, _ = lp._presolve(rows, rhs, np.array([True, False]))
    assert columns.tolist() == [-1, -1] and red_rows.shape == (0, 0)


def test_presolve_zeroes_float_cancellation():
    # x1 = x2 = x3 merges the third row's 0.1, 0.2 and -0.3 into a float
    # residue of 5.6e-17; read as positive it would fix all three entries.
    problem = LPProblem.make(
        3,
        [1.0, 0.0, 0.0],
        [
            ({1: 1.0, 2: -1.0}, Relation.EQ, 0.0),
            ({1: 1.0, 3: -1.0}, Relation.EQ, 0.0),
            ({1: 0.1, 2: 0.2, 3: -0.3}, Relation.LE, 0.0),
            ({1: 1.0, 2: 1.0, 3: 1.0}, Relation.LE, 10.0),
        ],
    )
    mine, ref = solve(problem), _linprog(problem)
    assert ref.status == 0 and mine.status is LPStatus.OPTIMAL
    assert mine.objective_value == pytest.approx(-ref.fun, abs=1e-6)
    assert mine.objective_value == pytest.approx(10 / 3)
    columns, red_rows, _, _ = lp._presolve(*lp._pack(problem))
    assert columns.tolist() == [0, 0, 0] and red_rows.tolist() == [[3.0]]


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["s", "y"])
def test_decoders_reject_non_finite_input(bad, where):
    # derangement(5) with y[2] = NaN used to return codeword 1 from ML and a
    # "codeword" with a NaN objective from LP.
    s = np.arange(5.0)
    y = np.array([1.1, 0.2, 3.0, 4.1, 2.2])
    if where == "s":
        s[2] = bad
    else:
        y[2] = bad
    with pytest.raises(ValueError, match="finite"):
        lp_decode(derangement(5), s, y)
    code = build_code(CodeSpec(5, derangement(5), tuple(s)))
    with pytest.raises(ValueError, match="finite"):
        ml_decode_detail(code, y)
    with pytest.raises(ValueError, match="finite"):
        ml_decode(code, y)


@pytest.mark.parametrize("s,y", [
    ([0.0, 1.0, 2.0], [-1e308, 2.0, 1e308]),
    ([-1e308, 0.0, 1e308], [0.0, 1.0, 2.0]),
], ids=["huge_y", "huge_s"])
def test_decoders_refuse_products_that_overflow(s, y):
    # Finite entries whose products y_i s_j summed over n overflow: the LP
    # objective used to hold +-inf, numpy warned and the simplex ran to its
    # iteration cap (RuntimeError).  Now both decoders refuse up front.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            lp_decode(derangement(3), s, y)
        with pytest.raises(ValueError, match="overflows"):
            lp_decode_batch(derangement(3), s, np.array([[2.0, 0.0, 1.0], y]))
        code = build_code(CodeSpec(3, derangement(3), tuple(s)))
        with pytest.raises(ValueError, match="overflows"):
            ml_decode_detail(code, y)
    # Large but safe magnitudes still decode.
    assert lp_decode(derangement(3), s, np.asarray(y) * 1e-10).is_codeword


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


@pytest.mark.parametrize(
    "cs,count",
    [(derangement(9), 1000), (involution(9), 4500), (block(9, 3), 4500)],
    ids=["derangement9", "involution9", "block9_3"],
)
def test_ml_scan_matches_ml_decode_detail(cs, count):
    # 10^4 noisy words over the three codes, in chunks as the simulation sends them.
    code = build_code(CodeSpec(cs.n, cs, tuple(float(v) for v in range(cs.n))))
    rng = np.random.default_rng(23)
    sent = code.codewords[rng.integers(len(code), size=count)]
    sigma = rng.choice([0.3, 0.7, 1.0, 1.5], size=(count, 1))
    ys = sent + sigma * rng.normal(size=sent.shape)
    got = np.concatenate([lp._ml_scan(code.codewords, ys[lo : lo + lp._CHUNK])
                          for lo in range(0, count, lp._CHUNK)])
    for k, y in zip(got.tolist(), ys):
        want_k, word, tie = ml_decode_detail(code, y)
        assert np.array_equal(code.codewords[k], word)
        assert tie or k + 1 == want_k
    assert np.count_nonzero((code.codewords[got] != sent).any(axis=1)) > count // 10


@pytest.mark.parametrize(
    "cs,use_lp,scan_max,scans",
    [(derangement(6), False, None, "all"), (derangement(6), False, 0, "none"),
     (derangement(9), False, None, "none"), (block(6, 3), True, None, "some"),
     (pure_involution(6), True, None, "some")],
    ids=["derangement6_ml", "derangement6_ml_no_scan_limit", "derangement9_ml",
         "block6_3_both", "pure_involution6_both"],
)
def test_decode_chunk_ml_matches_codebook_argmax(cs, use_lp, scan_max, scans, monkeypatch):
    # 10^4 noisy words, in chunks as the simulation sends them.  Misses take
    # the LP's word with both decoders, and ML-only on faces past the scan
    # limit; fractional optima on the other polytopes still scan, and so do
    # the ML-only misses of a small face.
    if scan_max is not None:
        monkeypatch.setattr(lp, "_ML_SCAN_MAX", scan_max)
    s = np.arange(float(cs.n))
    code = build_code(CodeSpec(cs.n, cs, tuple(s)))
    words = code.codewords
    rng = np.random.default_rng(31)
    sent = words[rng.integers(len(code), size=10_000)]
    sigma = rng.choice([1.0, 0.7, 0.5], size=(len(sent), 1))
    ys = sent + sigma * rng.normal(size=sent.shape)
    scanned = []
    real = lp._ml_scan

    def spy(words, ys):
        scanned.append(len(ys))
        return real(words, ys)

    monkeypatch.setattr(lp, "_ml_scan", spy)
    polytope = lp._code_polytope(cs)
    got, misses = [], 0
    for lo in range(0, len(ys), lp._CHUNK):
        out = lp._decode_chunk(polytope, s, ys[lo : lo + lp._CHUNK], use_lp, code)
        got.append(out.ml)
        misses += np.count_nonzero(~out.hit)
    # The codebook argmax (the lowest index on ties), 16 words at a time.
    want = np.concatenate([words[np.argmax(ys[lo : lo + 16] @ words.T, axis=1)]
                           for lo in range(0, len(ys), 16)])
    assert np.array_equal(np.concatenate(got), want)
    assert misses > 1000
    if scans == "none":
        assert scanned == []
    elif scans == "all":
        assert sum(scanned) == misses
    else:
        assert 0 < sum(scanned) < misses // 4


def test_ml_ties_on_a_face_keep_the_lowest_index(monkeypatch):
    # Integer s and half-integer y tie distinct codewords exactly.  With no
    # scan limit, ML-only misses run through phase two; the LP stops at one
    # tied vertex, but its reduced-cost gap is then 0, so the word goes to the
    # scan, which keeps the lowest index.
    monkeypatch.setattr(lp, "_ML_SCAN_MAX", 0)
    cs = derangement(5)
    s = np.arange(5.0)
    code = build_code(CodeSpec(5, cs, tuple(s)))
    ys = np.random.default_rng(29).integers(-2, 12, size=(300, 5)) / 2.0
    out = lp._decode_chunk(lp._code_polytope(cs), s, ys, False, code)
    for ml, y in zip(out.ml, ys):
        assert np.array_equal(ml, ml_decode_detail(code, y)[1])
    lp_words = np.empty_like(ys)
    np.put_along_axis(lp_words, out.perm, s, axis=1)
    # Integral LP answers that are not the lowest tied index.
    assert np.count_nonzero(out.codeword & (lp_words != out.ml).any(axis=1)) > 20


@pytest.mark.parametrize("rows", [1, 7])
def test_ml_scan_exact_ties_in_row_blocks(rows, monkeypatch):
    code = build_code(CodeSpec(5, derangement(5), (0.0, 0.0, 1.0, 1.0, 2.0)))
    # A budget of rows * len(code) scores gives row blocks of that many words.
    monkeypatch.setattr(lp, "_ML_SCORES", rows * len(code))
    rng = np.random.default_rng(29)
    # Half-integer y against integer s: every inner product is exact.
    ys = rng.integers(-2, 12, size=(300, 5)) / 2.0
    got = lp._ml_scan(code.codewords, ys)
    ties = 0
    for k, y in zip(got.tolist(), ys):
        g = code.codewords @ y
        tied = np.flatnonzero(g == g.max())
        assert k == tied[0] == ml_decode_detail(code, y)[0] - 1
        ties += len(tied) > 1
    assert ties > 100


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


@pytest.mark.parametrize(
    "cs,shape",
    [
        (pure_involution(8), (9, 29)),
        (pure_involution(12), (13, 67)),
        (cyclic(8), (2, 9)),
        (repetition(8, 2), (8, 17)),
        (derangement(5), (10, 21)),
        (block(8, 2, redundant=True), (40, 65)),
        (block(6, 3), (16, 37)),
    ],
    ids=["pure_involution8", "pure_involution12", "cyclic8", "repetition8_2", "derangement5",
         "block8_2r", "block6_3"],
)
def test_presolve_shrinks_the_phase_one_tableau(cs, shape):
    # Rows after phase one plus the objective row, by reduced and slack
    # columns plus the rhs.  Without the presolve pure_involution(8) is 38x65.
    assert lp._code_polytope(cs).feasible.tableau.shape == shape


@pytest.mark.parametrize("cs", [cyclic(8), repetition(8, 2)], ids=["cyclic8", "repetition8_2"])
def test_phase_two_folds_objectives_in_entry_order(cs, monkeypatch):
    # solve and lp_decode share the fold, so only an oracle sees its order: a
    # merged column sums its entries' objectives one at a time onto zero, in
    # entry order, and the basic rows' costs are then subtracted in row order.
    feasible = lp._code_polytope(cs).feasible
    rng = np.random.default_rng(8)
    shape = (7, cs.n * cs.n)
    objectives = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 17, size=shape)
    objectives[:, ::9] = -0.0
    objectives[:, 5::11] = 1e-300
    seen = []
    real = lp._simplex

    def spy(tableau, basis):
        seen.append(tableau[:, -1].copy())
        return real(tableau, basis)

    monkeypatch.setattr(lp, "_simplex", spy)
    lp._phase_two(feasible, objectives)
    start = feasible.tableau
    for row, got in zip(objectives, seen[0]):
        folded = [0.0] * start.shape[1]
        for v, c in enumerate(feasible.columns.tolist()):
            if c >= 0:
                folded[c] = folded[c] + float(row[v])
        cost = np.array(folded)
        want = cost
        for r, b in enumerate(feasible.basis.tolist()):
            want = want - cost[b] * start[r]
        assert want.tobytes() == got.tobytes()


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
    cs = derangement(4)
    s = np.arange(4.0)
    ys = np.tile([3.0, 2.0, 1.0, 0.0], (lp._CHUNK + 5, 1))
    hit, perm = lp._sort_certificate(lp._code_polytope(cs), s, ys[:1])
    assert hit.tolist() == [True]
    assert perm[0].tolist() == [3, 2, 1, 0]
    # The certificate reads finite input only: a batch refuses a non-finite
    # row, also one past its first chunk, and a non-finite s.
    for bad in (np.nan, np.inf, -np.inf):
        past = ys.copy()
        past[lp._CHUNK + 2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            lp_decode_batch(cs, s, past)
        with pytest.raises(ValueError, match="finite"):
            lp_decode_batch(cs, np.array([0.0, 1.0, 2.0, bad]), ys[:1])
    # At n = 1 there is no gap to test, so only finiteness refuses.
    one = ConstraintSystem(1, ())
    assert lp._sort_certificate(lp._code_polytope(one), np.array([1.0]), np.array([[0.5]]))[
        0].tolist() == [True]
    with pytest.raises(ValueError, match="finite"):
        lp_decode_batch(one, [1.0], np.array([[0.5], [np.nan]]))


def test_sort_certificate_fails_outside_the_code():
    # y close to s itself sorts to the identity, which no derangement is.
    cs = derangement(5)
    s = np.arange(5.0)
    res = lp_decode(cs, s, s + 0.01)
    assert not res.certified
    _assert_cold_equal(res, solve(build_decoding_lp(cs, s, s + 0.01)), 5)
    # Away from the identity the same system certifies.
    assert lp_decode(cs, s, s[[1, 2, 3, 4, 0]]).certified


# ---------------------------------------------------------------------------
# The batched simplex kernel
# ---------------------------------------------------------------------------


def _named_systems():
    """Every named family at n = 2..6 with a nonempty polytope, plus fixpair5 and block(8,2,r)."""
    systems = []
    for n in range(2, 7):
        systems += [derangement(n), involution(n), transposition(n), cyclic(n),
                    transposition(n, with_symmetry=True)]
        if n % 2 == 0:
            systems.append(pure_involution(n))
        for d in range(1, n + 1):
            if n % d == 0:
                systems += [repetition(n, d), block(n, d), block(n, d, redundant=True)]
    systems += [_fixpair5(), block(8, 2, redundant=True)]
    return [cs for cs in systems if lp._code_polytope(cs).feasible is not None]


_BATCH_SYSTEMS = _named_systems()


def _draw_batch(cs, data):
    """s (distinct or with a repeat) and a batch mixing near-codeword, noisy, tied and repeated rows."""
    n = cs.n
    s = np.arange(float(n))
    if data.draw(st.booleans()):
        s[data.draw(st.integers(1, n - 1))] = 0.0
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in data.draw(st.lists(st.sampled_from(["near", "noisy", "tied", "again"]),
                                   min_size=1, max_size=10)):
        if kind == "again" and rows:
            rows.append(rows[int(rng.integers(len(rows)))])
            continue
        y = s[rng.permutation(n)] + rng.normal(scale=0.1 if kind == "near" else 1.5, size=n)
        if kind == "tied":
            y[1] = y[0]
        rows.append(y)
    return s, np.array(rows)


def _same_row(a, b):
    return _same(a, b) and a.certified == b.certified and a.stats == b.stats


@given(st.sampled_from(_BATCH_SYSTEMS), st.data())
@settings(max_examples=120)
def test_batch_rows_equal_cold_solve_and_single_decodes(cs, data):
    n = cs.n
    s, ys = _draw_batch(cs, data)
    for y, res in zip(ys, lp_decode_batch(cs, s, ys)):
        assert _same_row(res, lp_decode(cs, s, y))
        sol = solve(build_decoding_lp(cs, s, y))
        assert sol.status is LPStatus.OPTIMAL
        if res.certified:
            assert np.array_equal(res.matrix.vec(), np.rint(sol.x))
            assert res.objective_value == pytest.approx(sol.objective_value, rel=1e-12, abs=1e-12)
        else:
            _assert_cold_equal(res, sol, n)


@given(st.sampled_from(_BATCH_SYSTEMS), st.data())
def test_batch_invariance_under_shuffles_and_splits(cs, data):
    s, ys = _draw_batch(cs, data)
    whole = lp_decode_batch(cs, s, ys)
    order = np.random.default_rng(len(ys)).permutation(len(ys))
    for k, res in zip(order, lp_decode_batch(cs, s, ys[order])):
        assert _same_row(res, whole[k])
    cut = data.draw(st.integers(0, len(ys)))
    parts = lp_decode_batch(cs, s, ys[:cut]) + lp_decode_batch(cs, s, ys[cut:])
    assert all(_same_row(a, b) for a, b in zip(parts, whole))


def test_batch_mixes_hits_misses_and_fractional_optima():
    # A fixed batch over fixpair5 that holds every kind of row at once.
    cs = _fixpair5()
    s = np.arange(5.0)
    ys = np.random.default_rng(2).normal(scale=1.5, size=(40, 5)) + s
    batch = lp_decode_batch(cs, s, ys)
    kinds = {(r.certified, r.is_codeword) for r in batch}
    assert kinds == {(True, True), (False, True), (False, False)}
    for y, res in zip(ys, batch):
        assert _same_row(res, lp_decode(cs, s, y))


def test_batch_rows_past_the_chunk_size():
    cs = pure_involution(6)
    s = np.arange(6.0)
    ys = np.random.default_rng(12).normal(scale=2.0, size=(lp._CHUNK + 30, 6)) + s
    batch = lp_decode_batch(cs, s, ys)
    assert sum(not r.certified for r in batch) > lp._CHUNK // 2
    for k in range(0, len(ys), 7):
        assert _same_row(batch[k], lp_decode(cs, s, ys[k]))


def test_one_row_at_the_iteration_cap_fails_alone(monkeypatch):
    # Repeated entries in s send every row to the simplex.
    cs = derangement(5)
    s = np.array([0.0, 0.0, 1.0, 2.0, 3.0])
    ys = np.random.default_rng(2).normal(scale=1.5, size=(12, 5)) + s
    alone = [lp_decode(cs, s, y) for y in ys]
    pivots = [r.stats["pivots"] for r in alone]
    worst = int(np.argmax(pivots))
    runner_up = max(p for k, p in enumerate(pivots) if k != worst)
    assert pivots[worst] > runner_up
    # Every row but the worst ends within the cap; the cached phase one is unaffected.
    monkeypatch.setattr(lp, "_limits", lambda m, ncols: (5 * (m + ncols), runner_up + 1))
    out = lp._decode_chunk(lp._code_polytope(cs), s, ys, True, None)
    assert not out.hit.any()
    status, pivots = out.run.status, out.run.pivots
    assert [k for k, st_ in enumerate(status) if st_ != lp._OPTIMAL] == [worst]
    assert status[worst] == lp._CAPPED and pivots[worst] == runner_up + 1
    for k, res in enumerate(alone):
        if k != worst:
            assert pivots[k] == res.stats["pivots"]
            assert float(out.objectives[k] @ out.x[k]) == res.objective_value
            assert out.codeword[k] == res.is_codeword
    with pytest.raises(RuntimeError, match="iteration cap"):
        lp_decode(cs, s, ys[worst])
    with pytest.raises(RuntimeError, match="iteration cap"):
        lp_decode_batch(cs, s, ys)
    assert _same_row(lp_decode(cs, s, ys[worst - 1]), alone[worst - 1])


def test_decode_stats_pinned():
    # trace1_n3: exactly one fixed point.  y near s sorts to the identity,
    # which has three, so the decode runs the simplex.
    row = ConstraintRow.make({var_index(i, i, 3): 1 for i in range(1, 4)}, Relation.EQ, 1)
    trace = ConstraintSystem(3, (row,))
    res = lp_decode(trace, np.arange(3.0), np.array([0.1, 1.2, 1.9]))
    assert not res.certified and res.is_codeword
    assert res.stats == {"pivots": 2, "degenerate": 1, "blands": False}
    certified = lp_decode(trace, np.arange(3.0), np.array([2.0, 1.0, 0.0]))
    assert certified.certified
    assert certified.stats == {"pivots": 0, "degenerate": 0, "blands": False}
    # A seeded derangement(5) word that misses the certificate.
    rng = np.random.default_rng(2024)
    ys = np.arange(5.0)[[1, 2, 3, 4, 0]] + rng.normal(scale=1.0, size=(3, 5))
    res = lp_decode(derangement(5), np.arange(5.0), ys[2])
    assert not res.certified and res.is_codeword
    assert res.stats == {"pivots": 4, "degenerate": 3, "blands": False}
    # Telemetry never enters equality.
    assert dataclasses.replace(res, stats=None) == res


def test_blands_rule_engages_per_problem(monkeypatch):
    # With no stall budget a problem switches to Bland's rule at its first
    # degenerate pivot, and one without a degenerate pivot never does.
    cs = pure_involution(6)
    s = np.arange(6.0)
    ys = np.random.default_rng(5).normal(scale=1.5, size=(40, 6)) + s
    usual = lp_decode_batch(cs, s, ys)
    monkeypatch.setattr(lp, "_limits", lambda m, ncols: (0, 200 * (m + ncols) + 2000))
    batch = lp_decode_batch(cs, s, ys)
    switched = [r.stats["blands"] for r in batch if not r.certified]
    assert switched == [r.stats["degenerate"] > 0 for r in batch if not r.certified]
    assert any(switched) and not all(switched)
    for y, res, ref in zip(ys, batch, usual):
        assert _same_row(res, lp_decode(cs, s, y))
        assert res.objective_value == pytest.approx(ref.objective_value, rel=1e-12, abs=1e-12)
