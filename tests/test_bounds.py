"""Q-function, union bounds, ensemble expectations, group detection."""

import itertools
import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from permlp.bounds import (
    derangement_count,
    expected_cardinality,
    expected_weight,
    is_group,
    lp_bound_report,
    lp_union_bound,
    ml_bound_report,
    ml_union_bound,
    q_function,
)
from permlp.codebook import CodeSpec, build_code
from permlp.constraints import (
    ConstraintRow,
    ConstraintSystem,
    Relation,
    SparseBinaryMatrix,
    block,
    cyclic,
    derangement,
    satisfies,
    theta,
    transposition,
)
from permlp.perm import PermutationMatrix, var_index
from permlp.polytope import enumerate_vertices, pseudo_distance


def test_q_function_matches_normal_tail():
    xs = np.linspace(-6, 8, 57)
    for x in xs:
        assert q_function(float(x)) == pytest.approx(float(stats.norm.sf(x)), rel=1e-12)
    assert q_function(0.0) == pytest.approx(0.5)


def _trace1_setup():
    n = 3
    row = ConstraintRow.make({var_index(i, i, n): 1 for i in (1, 2, 3)}, Relation.EQ, 1)
    cs = ConstraintSystem(n, (row,))
    vs = enumerate_vertices(cs, n)
    s = (0.0, 1.0, 2.0)
    return cs, vs, s


def test_lp_union_bound_hand_sum():
    cs, vs, s = _trace1_setup()
    x = next(v for v in vs.integral if v.to_permutation().perm == (1, 3, 2))
    sigma = 0.8
    want = sum(
        q_function(pseudo_distance(x, v, s) / sigma)
        for v in vs.vertices
        if v.entries != x.entries
    )
    assert lp_union_bound(x, vs, s, sigma) == pytest.approx(want, rel=1e-12)
    # Same sum from first principles with the four known pseudo distances.
    dists = sorted([1.224745, 1.224745, 1.224745, 1.388730])
    explicit = sum(q_function(d / sigma) for d in dists)
    assert lp_union_bound(x, vs, s, sigma) == pytest.approx(explicit, abs=1e-5)


def test_ml_union_bound_hand_sum():
    cs, vs, s = _trace1_setup()
    code = build_code(CodeSpec(3, cs, s))
    x = next(m for m in code.matrices if m.perm == (1, 3, 2))
    sigma = 0.8
    # Both other transpositions sit at image distance sqrt(6).
    want = 2 * q_function(math.sqrt(6) / (2 * sigma))
    assert ml_union_bound(x, code, sigma) == pytest.approx(want, rel=1e-9)


def test_union_bound_unclamped_at_low_snr():
    cs, vs, s = _trace1_setup()
    x = vs.integral[0]
    val = lp_union_bound(x, vs, s, sigma=50.0)
    assert val > 1.0  # raw union bound is reported without clamping


def test_bound_reports_cover_all_starts():
    cs, vs, s = _trace1_setup()
    code = build_code(CodeSpec(3, cs, s))
    lp_rep = lp_bound_report(vs, s, sigma=0.8)
    ml_rep = ml_bound_report(code, sigma=0.8)
    assert lp_rep.kind == "lp" and ml_rep.kind == "ml"
    assert len(lp_rep.values) == len(vs.integral)
    assert len(ml_rep.values) == len(code)
    for rep in (lp_rep, ml_rep):
        i, j = rep.max_pair
        assert i >= 1 and j >= 1 and i != j
    assert max(lp_rep.values) >= max(ml_rep.values) - 1e-12


def test_lp_union_bound_requires_member_vertex():
    cs, vs, s = _trace1_setup()
    outsider = PermutationMatrix((2, 3, 1))  # trace 0, not in this polytope
    with pytest.raises(ValueError):
        lp_union_bound(outsider, vs, s, sigma=1.0)


# ---------------------------------------------------------------------------
# Ensemble expectation formulas vs exhaustive averages
# ---------------------------------------------------------------------------


def _all_pairs(n):
    return list(itertools.combinations(range(1, n * n + 1), 2))


def _exhaustive_mean_cardinality(n, m):
    """Average |code| over every way of drawing m ordered constraint pairs."""
    pairs = _all_pairs(n)
    perms = [PermutationMatrix(p) for p in itertools.permutations(range(1, n + 1))]
    total = Fraction(0)
    for combo in itertools.product(pairs, repeat=m):
        cs = theta(SparseBinaryMatrix(n * n, tuple(combo)), n)
        total += sum(1 for x in perms if satisfies(cs, x))
    return total / Fraction(len(pairs) ** m)


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1)])
def test_expected_cardinality_exhaustive(n, m):
    want = _exhaustive_mean_cardinality(n, m)
    got = expected_cardinality(n, m)
    assert got == pytest.approx(float(want), rel=1e-12)


def _exhaustive_mean_weight(n, m, w):
    pairs = _all_pairs(n)
    perms = [PermutationMatrix(p) for p in itertools.permutations(range(1, n + 1))]
    total = Fraction(0)
    for combo in itertools.product(pairs, repeat=m):
        cs = theta(SparseBinaryMatrix(n * n, tuple(combo)), n)
        for x in perms:
            displaced = sum(1 for j, i in enumerate(x.perm, start=1) if i != j)
            if displaced == w and satisfies(cs, x):
                total += 1
    return total / Fraction(len(pairs) ** m)


@pytest.mark.parametrize("w", [0, 2, 3])
def test_expected_weight_exhaustive(w):
    want = _exhaustive_mean_weight(3, 1, w)
    got = expected_weight(3, 1, w)
    assert got == pytest.approx(float(want), rel=1e-12)


def test_expected_weight_one_is_zero():
    assert expected_weight(5, 3, 1) == 0.0


def test_expected_weights_sum_to_cardinality():
    n, m = 5, 4
    assert sum(expected_weight(n, m, w) for w in range(n + 1)) == pytest.approx(
        expected_cardinality(n, m), rel=1e-12
    )


def test_derangement_count_closed_form():
    getcontext().prec = 60
    e = Decimal(1).exp()
    for w in range(1, 21):
        want = int((Decimal(math.factorial(w)) + 1) / e)
        assert derangement_count(w) == want
    assert derangement_count(0) == 1


# ---------------------------------------------------------------------------
# Group detection
# ---------------------------------------------------------------------------


def test_is_group_families():
    cyc = build_code(CodeSpec(4, cyclic(4), (0.0, 1.0, 2.0, 3.0))).matrices
    der = build_code(CodeSpec(4, derangement(4), (0.0, 1.0, 2.0, 3.0))).matrices
    blk = build_code(CodeSpec(4, block(4, 2), (0.0, 1.0, 2.0, 3.0))).matrices
    tra = build_code(CodeSpec(4, transposition(4), (0.0, 1.0, 2.0, 3.0))).matrices
    assert is_group(cyc)
    assert is_group(blk)
    assert not is_group(der)  # no identity
    assert not is_group(tra)  # not closed
    assert not is_group(())
