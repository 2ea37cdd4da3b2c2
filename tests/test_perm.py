"""Permutation-matrix core: layout, algebra, enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from permlp import perm
from permlp.perm import (
    BRUTE_FORCE_LIMIT,
    BruteForceLimitError,
    PermutationMatrix,
    hamming_distance,
    permutation_table,
    sq_euclidean_distance,
    var_entry,
    var_index,
)

perms = st.integers(1, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


@given(perms)
def test_dense_round_trip(p):
    x = PermutationMatrix(p)
    assert PermutationMatrix.from_dense(x.dense()) == x


@given(perms)
def test_dense_is_permutation_matrix(p):
    d = PermutationMatrix(p).dense()
    assert d.shape == (len(p), len(p))
    assert set(d.ravel().tolist()) <= {0, 1}
    assert np.all(d.sum(axis=0) == 1) and np.all(d.sum(axis=1) == 1)


@given(perms)
def test_column_to_row_convention(p):
    # perm[j-1] == i means the single 1 of column j sits in row i.
    d = PermutationMatrix(p).dense()
    for j, i in enumerate(p, start=1):
        assert d[i - 1, j - 1] == 1


@given(perms)
def test_vec_layout_row_major(p):
    x = PermutationMatrix(p)
    v = x.vec()
    n = x.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert v[var_index(i, j, n) - 1] == x.entry(i, j) == x.dense()[i - 1, j - 1]


@given(st.integers(1, 8))
def test_var_index_entry_inverse(n):
    seen = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            p = var_index(i, j, n)
            assert 1 <= p <= n * n
            assert var_entry(p, n) == (i, j)
            seen.add(p)
    assert len(seen) == n * n


@given(perms, st.data())
def test_apply_matches_dense_product(p, data):
    x = PermutationMatrix(p)
    s = np.array(
        data.draw(st.lists(st.floats(-5, 5), min_size=x.n, max_size=x.n)), dtype=float
    )
    assert np.allclose(x.apply(s), x.dense().astype(float) @ s)


@given(perms, st.data())
def test_matmul_matches_dense_product(p, data):
    x = PermutationMatrix(p)
    q = tuple(data.draw(st.permutations(list(range(1, x.n + 1)))))
    y = PermutationMatrix(q)
    assert np.array_equal((x @ y).dense(), x.dense() @ y.dense())


@given(perms)
def test_transpose_is_inverse(p):
    x = PermutationMatrix(p)
    assert (x @ x.transpose()).perm == PermutationMatrix.identity(x.n).perm
    assert np.array_equal(x.transpose().dense(), x.dense().T)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_permutation_table_matches_enumeration(n):
    table = permutation_table(n)
    assert table.shape == (math.factorial(n), n)
    assert list(map(tuple, table.tolist())) == list(itertools.permutations(range(1, n + 1)))
    assert not table.flags.writeable


def test_permutation_table_degree_nine_is_lexicographic():
    table = permutation_table(9)
    assert table.shape == (math.factorial(9), 9) and table.dtype == np.int8
    # Every row is a permutation, and the rows read as base-10 numbers are
    # strictly increasing: all 9! permutations once each, in lexicographic order.
    assert (np.sort(table, axis=1) == np.arange(1, 10)).all()
    keys = table.astype(np.int64) @ 10 ** np.arange(8, -1, -1)
    assert (np.diff(keys) > 0).all()


def test_permutation_table_cached_read_only(monkeypatch):
    monkeypatch.setattr(perm, "_TABLE_CACHE", {})
    table = permutation_table(7)
    assert table.dtype == np.int8 and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 2
    assert permutation_table(7) is table
    assert list(perm._TABLE_CACHE) == [7]  # the lower degrees it was built from are not kept


def test_brute_force_limit_guard():
    with pytest.raises(BruteForceLimitError):
        permutation_table(BRUTE_FORCE_LIMIT + 1)
    # An explicit limit overrides the default cap.
    assert permutation_table(4, limit=4).shape == (24, 4)


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[1, 1], [0, 0]]),
        np.array([[1, 0], [1, 0]]),
        np.array([[0.5, 0.5], [0.5, 0.5]]),
        np.zeros((2, 3)),
    ],
)
def test_from_dense_rejects_non_permutation(bad):
    with pytest.raises(ValueError):
        PermutationMatrix.from_dense(bad)


@pytest.mark.parametrize("bad", [(), (0, 1), (1, 1), (1, 3), (2,) * 3])
def test_constructor_rejects_non_permutation(bad):
    with pytest.raises(ValueError):
        PermutationMatrix(bad)


@given(perms, st.data())
def test_distances_match_numpy(p, data):
    x = PermutationMatrix(p)
    q = tuple(data.draw(st.permutations(list(range(1, x.n + 1)))))
    y = PermutationMatrix(q)
    s = np.arange(x.n, dtype=float)
    a, b = x.apply(s), y.apply(s)
    assert hamming_distance(a, b) == int(np.sum(a != b))
    assert sq_euclidean_distance(a, b) == pytest.approx(float(np.sum((a - b) ** 2)))
