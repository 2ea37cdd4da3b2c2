"""Message maps for pure involution codes.

``enc_map`` is a bijection from [1, (n-1)(n-3)...3.1] onto the fixed-point-free
involutions of even degree n.  The message is expanded into mixed-radix digits
a_p in [1, 2p+1]; a greedy placement then pairs off indices: at step p the
leftmost unpaired column j is matched with its a_p-th unpaired row, setting the
symmetric entries (i, j) and (j, i).  ``dec_map`` reads the digits back off the
matrix and reassembles the message by the Horner scheme.
"""

from __future__ import annotations

import numpy as np

from .codebook import Code
from .perm import PermutationMatrix


def message_count(n: int) -> int:
    """(n-1)(n-3)...3.1, the number of fixed-point-free involutions."""
    if n < 2 or n % 2 != 0:
        raise ValueError("pure involutions need an even degree >= 2")
    out = 1
    for k in range(n - 1, 0, -2):
        out *= k
    return out


def message_digits(m: int, n: int) -> tuple[int, ...]:
    """Mixed-radix digits (a_0, ..., a_{n/2-1}) of message m, a_p in [1, 2p+1].

    Messages are 1-based; m and m + message_count(n) share digits, so the
    domain [1, message_count(n)] is hit bijectively.
    """
    total = message_count(n)
    if not (1 <= m <= total):
        raise ValueError(f"message {m} outside [1, {total}]")
    digits = []
    t = m
    for p in range(n // 2):
        digits.append(t % (2 * p + 1) + 1)
        t //= 2 * p + 1
    return tuple(digits)


def digits_to_message(digits: tuple[int, ...], n: int) -> int:
    """Inverse of :func:`message_digits` (Horner over the digits above p = 0)."""
    if len(digits) != n // 2:
        raise ValueError("wrong number of digits")
    t = 0
    for p in range(n // 2 - 1, 0, -1):
        t = (2 * p + 1) * t + (digits[p] - 1)
    total = message_count(n)
    return t if t >= 1 else total


def enc_map(m: int, n: int) -> PermutationMatrix:
    """Encode message m as a fixed-point-free involution of degree n."""
    digits = message_digits(m, n)
    x = np.zeros((n, n), dtype=np.int8)
    unpaired = list(range(n))  # ascending
    for p in range(n // 2 - 1, -1, -1):
        j = unpaired.pop(0)
        i = unpaired.pop(digits[p] - 1)  # 2p + 1 indices remain
        x[i, j] = x[j, i] = 1
    return PermutationMatrix.from_dense(x)


def dec_map(x: PermutationMatrix) -> int:
    """Recover the message of a fixed-point-free involution."""
    n = x.n
    if n % 2 != 0:
        raise ValueError("pure involutions need an even degree")
    perm = x.perm
    for j in range(1, n + 1):
        i = perm[j - 1]
        if i == j:
            raise ValueError("matrix has a fixed point")
        if perm[i - 1] != j:
            raise ValueError("matrix is not an involution")
    digits = [0] * (n // 2)
    unpaired = list(range(n))  # ascending
    for p in range(n // 2 - 1, -1, -1):
        j = unpaired.pop(0)
        i = perm[j] - 1
        digits[p] = unpaired.index(i) + 1
        unpaired.remove(i)
    return digits_to_message(tuple(digits), n)


def codeword_rank(code: Code, word) -> int:
    """1-based index of a codeword in the code's deterministic ordering."""
    if code.singular:
        raise ValueError("ranking a singular code is ambiguous")
    k = code.index(word)
    if k is None:
        raise ValueError("vector is not a codeword")
    return k + 1


def codeword_unrank(code: Code, k: int) -> np.ndarray:
    """Codeword at 1-based index k; inverse of :func:`codeword_rank`."""
    if code.singular:
        raise ValueError("ranking a singular code is ambiguous")
    if not (1 <= k <= len(code)):
        raise ValueError(f"rank {k} outside [1, {len(code)}]")
    return code.codewords[k - 1].copy()
