"""Message <-> pure-involution mapping: bijection, digits, ranking."""

import math

import numpy as np
import pytest

from permlp.codebook import CodeSpec, build_code
from permlp.constraints import derangement, pure_involution
from permlp.encoder import (
    codeword_rank,
    codeword_unrank,
    dec_map,
    digits_to_message,
    enc_map,
    message_count,
    message_digits,
)
from permlp.perm import PermutationMatrix


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_message_count_closed_form(n):
    # (n-1)(n-3)...1 == n! / (2^{n/2} (n/2)!)
    half = n // 2
    assert message_count(n) == math.factorial(n) // (2**half * math.factorial(half))


def test_message_count_rejects_odd():
    with pytest.raises(ValueError):
        message_count(5)
    with pytest.raises(ValueError):
        enc_map(1, 5)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_round_trip_every_message(n):
    images = set()
    for m in range(1, message_count(n) + 1):
        x = enc_map(m, n)
        assert dec_map(x) == m
        images.add(x.perm)
    assert len(images) == message_count(n)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_enc_map_lands_on_pure_involutions(n):
    # Structural check: symmetric, fixed-point free.
    for m in range(1, message_count(n) + 1):
        x = enc_map(m, n)
        assert x.transpose().perm == x.perm
        assert all(i != j for j, i in enumerate(x.perm, start=1))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_enc_map_surjective_onto_family(n):
    code = build_code(CodeSpec(n, pure_involution(n), tuple(map(float, range(n)))))
    family = {m.perm for m in code.matrices}
    images = {enc_map(m, n).perm for m in range(1, message_count(n) + 1)}
    assert images == family


def test_digit_extraction_example():
    assert message_digits(5, 6) == (1, 3, 2)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_digits_round_trip(n):
    for m in range(1, message_count(n) + 1):
        digits = message_digits(m, n)
        assert len(digits) == n // 2
        for p, a in enumerate(digits):
            assert 1 <= a <= 2 * p + 1
        assert digits_to_message(digits, n) == m


def test_message_range_guards():
    with pytest.raises(ValueError):
        enc_map(0, 6)
    with pytest.raises(ValueError):
        enc_map(message_count(6) + 1, 6)


def test_dec_map_rejects_non_pure_involutions():
    with pytest.raises(ValueError):
        dec_map(PermutationMatrix.identity(4))  # fixed points
    with pytest.raises(ValueError):
        dec_map(PermutationMatrix((2, 3, 4, 1)))  # not an involution
    with pytest.raises(ValueError):
        dec_map(PermutationMatrix((2, 1, 4, 3, 5)))  # odd degree


def test_codeword_rank_unrank_round_trip():
    code = build_code(CodeSpec(4, derangement(4), (0.0, 1.0, 2.0, 3.0)))
    for k in range(1, len(code) + 1):
        word = codeword_unrank(code, k)
        assert codeword_rank(code, word) == k
    with pytest.raises(ValueError):
        codeword_unrank(code, 0)
    with pytest.raises(ValueError):
        codeword_unrank(code, len(code) + 1)
    with pytest.raises(ValueError):
        codeword_rank(code, np.array([5.0, 5.0, 5.0, 5.0]))
