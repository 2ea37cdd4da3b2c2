"""Constraint families against independent structural oracles.

Each family's membership is re-derived here directly from the permutation
structure (fixed points, symmetry, cycle shifts, Kronecker blocks) without
going through the linear rows, then compared with satisfies() over all of
the symmetric group.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from permlp import constraints
from permlp.constraints import (
    ConstraintRow,
    ConstraintSystem,
    Relation,
    SparseBinaryMatrix,
    block,
    cyclic,
    derangement,
    involution,
    is_block_permutation,
    pure_involution,
    repetition,
    sample_ensemble,
    satisfies,
    satisfies_mask,
    theta,
    transposition,
)
from permlp.perm import PermutationMatrix, enumerate_all, permutation_table, var_entry, var_index


def _family_members(cs, n):
    return {x.perm for x in enumerate_all(n) if satisfies(cs, x)}


def _fixed_points(p):
    return sum(1 for j, i in enumerate(p, start=1) if i == j)


# ---------------------------------------------------------------------------
# Structural oracles, one per family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_derangement_oracle(n):
    want = {x.perm for x in enumerate_all(n) if _fixed_points(x.perm) == 0}
    assert _family_members(derangement(n), n) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_involution_oracle(n):
    want = {x.perm for x in enumerate_all(n) if (x @ x).perm == PermutationMatrix.identity(n).perm}
    assert _family_members(involution(n), n) == want


@pytest.mark.parametrize("n", [2, 4, 6])
def test_pure_involution_oracle(n):
    want = {
        x.perm
        for x in enumerate_all(n)
        if (x @ x).perm == PermutationMatrix.identity(n).perm and _fixed_points(x.perm) == 0
    }
    assert _family_members(pure_involution(n), n) == want
    # Closed form n!/(2^{n/2} (n/2)!): 1, 3, 15 for n = 2, 4, 6.
    assert len(want) == {2: 1, 4: 3, 6: 15}[n]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("with_symmetry", [False, True])
def test_transposition_oracle(n, with_symmetry):
    # trace = n-2 picks exactly the transpositions; the symmetry rows are
    # redundant on integral points.
    want = {
        x.perm
        for x in enumerate_all(n)
        if _fixed_points(x.perm) == n - 2
        and (x @ x).perm == PermutationMatrix.identity(n).perm
    }
    assert _family_members(transposition(n, with_symmetry=with_symmetry), n) == want
    assert len(want) == n * (n - 1) // 2


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cyclic_oracle(n):
    # Powers of the single n-cycle j -> j mod n + 1.
    shift = PermutationMatrix(tuple(j % n + 1 for j in range(1, n + 1)))
    member = PermutationMatrix.identity(n)
    want = set()
    for _ in range(n):
        want.add(member.perm)
        member = member @ shift
    got = _family_members(cyclic(n), n)
    assert got == want
    assert len(got) == n


@pytest.mark.parametrize("n,eta", [(4, 2), (6, 2), (6, 3), (4, 4)])
def test_repetition_oracle(n, eta):
    # Members are eta diagonal copies of one permutation of n//eta symbols.
    m = n // eta
    want = set()
    for p in itertools.permutations(range(1, m + 1)):
        small = PermutationMatrix(tuple(p)).dense()
        big = np.kron(np.eye(eta, dtype=np.int8), small)
        want.add(PermutationMatrix.from_dense(big).perm)
    got = _family_members(repetition(n, eta), n)
    assert got == want
    assert len(got) == math.factorial(m)


def _block_oracle(perm, nu):
    # Every block-column of width nu maps onto a single block-row.
    n = len(perm)
    for b0 in range(0, n, nu):
        rows = {(perm[j] - 1) // nu for j in range(b0, b0 + nu)}
        if len(rows) != 1:
            return False
    return True


@pytest.mark.parametrize("n,nu", [(4, 2), (6, 2), (6, 3)])
@pytest.mark.parametrize("redundant", [False, True])
def test_block_oracle(n, nu, redundant):
    want = {x.perm for x in enumerate_all(n) if _block_oracle(x.perm, nu)}
    assert _family_members(block(n, nu, redundant=redundant), n) == want
    gamma = n // nu
    assert len(want) == math.factorial(gamma) * math.factorial(nu) ** gamma


@pytest.mark.parametrize("n,nu", [(4, 2), (6, 2), (6, 3)])
def test_is_block_permutation_matches_oracle(n, nu):
    for x in enumerate_all(n):
        assert is_block_permutation(x, nu) == _block_oracle(x.perm, nu)


# ---------------------------------------------------------------------------
# Row counts and exact shapes of the displayed systems
# ---------------------------------------------------------------------------


def test_block_4_2_rows_match_display():
    # The four deduplicated skewed-column equalities for n=4, nu=2.
    got = {frozenset(p for p, _ in r.coeffs) for r in block(4, 2).rows}
    e = lambda i, j: (i - 1) * 4 + j
    want = {
        frozenset({e(1, 1), e(2, 1), e(3, 2), e(4, 2)}),
        frozenset({e(1, 2), e(2, 2), e(3, 1), e(4, 1)}),
        frozenset({e(1, 3), e(2, 3), e(3, 4), e(4, 4)}),
        frozenset({e(1, 4), e(2, 4), e(3, 3), e(4, 3)}),
    }
    assert got == want
    for r in block(4, 2).rows:
        assert r.relation is Relation.EQ and r.rhs == 1
        assert all(c == 1 for _, c in r.coeffs)


def test_block_4_2_redundant_adds_transposed_rows():
    base = block(4, 2).rows
    full = block(4, 2, redundant=True).rows
    assert len(base) == 4 and len(full) == 8
    base_sets = {frozenset(p for p, _ in r.coeffs) for r in base}
    extra = {frozenset(p for p, _ in r.coeffs) for r in full} - base_sets
    transposed = {
        frozenset((p - 1) % 4 * 4 + (p - 1) // 4 + 1 for p in s) for s in base_sets
    }
    assert extra == transposed


def test_cyclic_4_row_count_and_shape():
    rows = cyclic(4).rows
    assert len(rows) == 12
    for r in rows:
        assert r.relation is Relation.EQ and r.rhs == 0
        assert sorted(c for _, c in r.coeffs) == [-1, 1]
        (p1, _), (p2, _) = r.coeffs
        i1, j1 = var_entry(p1, 4)
        i2, j2 = var_entry(p2, 4)
        # The tied entries are diagonal neighbours modulo n.
        assert (i2, j2) == (i1 % 4 + 1, j1 % 4 + 1) or (i1, j1) == (
            i2 % 4 + 1,
            j2 % 4 + 1,
        )


def test_repetition_4_2_row_shape():
    rows = repetition(4, 2).rows
    zero_rows = [r for r in rows if len(r.coeffs) == 1]
    tie_rows = [r for r in rows if len(r.coeffs) == 2]
    assert len(zero_rows) + len(tie_rows) == len(rows)
    # Off-diagonal-block entries forced to zero: 16 - 2*(2*2) = 8.
    assert len(zero_rows) == 8
    # Entries of block (2,2) tied to block (1,1): 4 ties.
    assert len(tie_rows) == 4
    for r in zero_rows:
        assert r.rhs == 0 and r.relation is Relation.EQ
    for r in tie_rows:
        assert r.rhs == 0 and sorted(c for _, c in r.coeffs) == [-1, 1]


def test_involution_row_count():
    assert len(involution(4).rows) == 6  # n(n-1)/2 symmetry ties
    assert len(pure_involution(4).rows) == 7  # plus the trace row


# ---------------------------------------------------------------------------
# Vectorized evaluation and row plumbing
# ---------------------------------------------------------------------------


@given(st.integers(2, 5), st.randoms(use_true_random=False))
def test_satisfies_mask_matches_scalar(n, rnd):
    rows = []
    for _ in range(4):
        k = rnd.choice([1, 2, 3])
        positions = rnd.sample(range(1, n * n + 1), k)
        coeffs = {p: rnd.choice([-2, -1, 1, 2]) for p in positions}
        rel = rnd.choice([Relation.EQ, Relation.LE])
        rows.append(ConstraintRow.make(coeffs, rel, rnd.choice([-1, 0, 1, 2])))
    cs = ConstraintSystem(n, tuple(rows))
    table = permutation_table(n)
    scalar = np.array([satisfies(cs, x) for x in enumerate_all(n)])
    assert np.array_equal(satisfies_mask(cs, table), scalar)
    # A small odd block size makes every table above n = 3 cross blocks.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constraints, "_BLOCK_ROWS", 7)
        assert np.array_equal(satisfies_mask(cs, table), scalar)


def test_satisfies_mask_across_blocks_n8():
    # 8! = 40,320 rows is more than one block at the default block size.
    n = 8
    rows = (
        ConstraintRow.make({var_index(2, 3, n): 1, var_index(5, 7, n): -1}, Relation.EQ, 0),
        ConstraintRow.make(
            {var_index(1, 1, n): -2, var_index(4, 6, n): 1, var_index(8, 2, n): -1},
            Relation.LE,
            -1,
        ),
        # |sum| up to 200 does not fit the narrowest accumulator.
        ConstraintRow.make({var_index(3, 3, n): 100, var_index(6, 1, n): 100}, Relation.LE, 150),
    )
    cs = ConstraintSystem(n, rows)
    table = permutation_table(n)
    assert table.shape[0] > constraints._BLOCK_ROWS
    mask = satisfies_mask(cs, table)
    scalar = np.array([satisfies(cs, x) for x in enumerate_all(n)])
    assert np.array_equal(mask, scalar)
    assert 0 < mask.sum() < table.shape[0]


def test_satisfies_mask_boolean_fast_path():
    # A two-term +/- tie row takes the vectorized equality branch; compare
    # against the generic scalar path on the full table.
    cs = cyclic(5)
    table = permutation_table(5)
    mask = satisfies_mask(cs, table)
    scalar = np.array([satisfies(cs, x) for x in enumerate_all(5)])
    assert np.array_equal(mask, scalar)
    assert int(mask.sum()) == 5


def test_constraint_row_validation():
    with pytest.raises(ValueError):
        ConstraintRow.make({}, Relation.EQ, 0)
    with pytest.raises(ValueError):
        ConstraintRow.make({0: 1}, Relation.EQ, 0)
    with pytest.raises(ValueError):
        ConstraintRow.make({1: 0}, Relation.EQ, 0)
    with pytest.raises(ValueError):
        ConstraintSystem(2, (ConstraintRow.make({5: 1}, Relation.EQ, 0),))


def test_theta_system_shape():
    a = SparseBinaryMatrix(9, ((3, 7), (1, 2)))
    cs = theta(a, 3)
    assert len(cs.rows) == 2
    for row, (p1, p2) in zip(cs.rows, a.rows):
        assert row.relation is Relation.EQ and row.rhs == 0
        assert dict(row.coeffs) == {p1: -1, p2: 1}
    with pytest.raises(ValueError):
        SparseBinaryMatrix(9, ((7, 3),))
    with pytest.raises(ValueError):
        SparseBinaryMatrix(9, ((3, 3),))
    with pytest.raises(ValueError):
        theta(SparseBinaryMatrix(4, ((1, 2),)), 3)  # width mismatch


def test_sample_ensemble_deterministic_and_in_range():
    rng = np.random.default_rng(42)
    a = sample_ensemble(5, 12, rng)
    b = sample_ensemble(5, 12, np.random.default_rng(42))
    assert a == b
    assert a.width == 25
    assert a.m == 12
    for p1, p2 in a.rows:
        assert 1 <= p1 < p2 <= 25
