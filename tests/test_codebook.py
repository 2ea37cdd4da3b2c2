"""Code construction, distances, and spectra against brute-force oracles."""

import itertools
import json
import math
import pickle
import time

import numpy as np
import pytest

from permlp import channel, cli, codebook
from permlp.bounds import ml_bound_report
from permlp.channel import simulate_bler
from permlp.codebook import (
    Code,
    CodeSpec,
    DistanceEnumerator,
    block_min_sq_distance,
    build_code,
    distance_enumerator,
    min_hamming_distance,
    weight_distribution,
)
from permlp.constraints import (
    ConstraintSystem,
    block,
    cyclic,
    derangement,
    involution,
    pure_involution,
    repetition,
    satisfies,
    transposition,
)
from permlp.encoder import codeword_rank
from permlp.perm import BruteForceLimitError, PermutationMatrix


def _spec(n, cs, s=None):
    return CodeSpec(n, cs, tuple(map(float, s if s is not None else range(n))))


def test_derangement_code_matches_brute_force():
    # Independent oracle: filter raw itertools permutations by fixed points.
    code = build_code(_spec(4, derangement(4)))
    want = set()
    for p in itertools.permutations(range(4)):
        if all(p[k] != k for k in range(4)):
            # image under s = (0,1,2,3): word[row] = s[col] for col->row map
            word = [0] * 4
            for col, row in enumerate(p):
                word[row] = col
            want.add(tuple(float(v) for v in word))
    got = {tuple(w) for w in code.codewords}
    assert got == want
    assert len(code) == 9
    assert not code.singular


def test_codewords_sorted_with_matrices():
    code = build_code(_spec(4, derangement(4)))
    perms = [m.perm for m in code.matrices]
    assert perms == sorted(perms)
    for m, w in zip(code.matrices, code.codewords):
        assert np.array_equal(m.apply(np.arange(4.0)), w)


def test_min_hamming_distance_brute_force(monkeypatch):
    cases = [
        (derangement(4), 4, None),
        (cyclic(5), 5, None),
        (pure_involution(4), 4, None),
        (pure_involution(8), 8, None),  # minimum 4: every pair is compared
        (derangement(7), 7, None),  # 1,854 words, minimum 2
        (cyclic(4), 4, (0.0, 0.0, 1.0, 2.0)),  # repeated entries, still nonsingular
    ]
    codes = [build_code(_spec(n, cs, s)) for cs, n, s in cases]
    # The cyclic group of degree 4 plus one word at distance 2 from its last
    # word only, so the minimum sits in the last pair of rows.
    perms = [(1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3), (4, 1, 3, 2)]
    codes.append(Code(_spec(4, ConstraintSystem(4, ())), np.array(perms)))
    for code in codes:
        n, s = code.n, code.spec.s
        words = code.codewords
        want = min(
            int((words[i + 1 :] != words[i]).sum(axis=1).min()) for i in range(len(words) - 1)
        )
        assert not code.singular
        # 7 compares one row per chunk; 5000 several rows, with a short last chunk.
        for chunk in (codebook._HAMMING_CHUNK, 7, 5000):
            monkeypatch.setattr(codebook, "_HAMMING_CHUNK", chunk)
            assert min_hamming_distance(code) == want, (n, s, chunk)
        monkeypatch.undo()


def test_min_hamming_distance_stops_at_two():
    # The pair-by-pair loop compared all 1.7M pairs here (8 s); distance 2
    # is the least two distinct rearrangements of one vector can have.
    code = build_code(_spec(7, derangement(7)))
    code.codewords  # built before the clock starts
    t0 = time.perf_counter()
    assert min_hamming_distance(code) == 2
    assert time.perf_counter() - t0 < 2.0


def test_singular_code_flag_and_guards():
    # Repeated values in s collapse distinct matrices onto one word.
    code = build_code(_spec(4, derangement(4), s=(0.0, 0.0, 1.0, 1.0)))
    assert code.singular
    with pytest.raises(ValueError):
        min_hamming_distance(code)
    with pytest.raises(ValueError):
        distance_enumerator(code, code.matrices[0])


def test_min_hamming_needs_two_words():
    code = build_code(_spec(2, derangement(2)))
    assert len(code) == 1
    with pytest.raises(ValueError):
        min_hamming_distance(code)


def test_distance_enumerator_matches_brute_force():
    code = build_code(_spec(4, derangement(4)))
    x = code.matrices[2]
    xw = x.apply(np.arange(4.0))
    want = sorted(float(np.sqrt(np.sum((w - xw) ** 2))) for w in code.codewords)
    got = []
    for d, mult in distance_enumerator(code, x).entries:
        got.extend([d] * mult)
    assert np.allclose(sorted(got), want)
    total = sum(m for _, m in distance_enumerator(code, x).entries)
    assert total == len(code)


def test_distance_enumerator_same_as():
    a = DistanceEnumerator(((0.0, 1), (2.0, 3)))
    b = DistanceEnumerator(((0.0, 1), (2.0 + 1e-12, 3)))
    c = DistanceEnumerator(((0.0, 1), (2.0, 4)))
    assert a.same_as(b)
    assert not a.same_as(c)
    assert a.total() == 4


def test_weight_distribution_counts_displacements():
    code = build_code(_spec(4, cyclic(4)))
    origin = code.codewords[0]
    dist = weight_distribution(code, origin)
    assert isinstance(dist, tuple) and all(type(c) is int for c in dist)
    assert len(dist) == 5
    assert sum(dist) == len(code)
    for w, count in enumerate(dist):
        direct = sum(1 for word in code.codewords if int(np.sum(word != origin)) == w)
        assert count == direct
    # Weight 1 is impossible: a permutation cannot displace a single symbol.
    assert dist[1] == 0


def test_weight_distribution_requires_member_origin():
    code = build_code(_spec(4, derangement(4)))
    with pytest.raises(ValueError):
        weight_distribution(code, np.array([9.0, 9.0, 9.0, 9.0]))


@pytest.mark.parametrize("n,nu", [(4, 2), (6, 2), (6, 3)])
def test_block_min_sq_distance_matches_brute_force(n, nu):
    s = tuple(float(v) for v in range(1, n + 1))
    d1, d2, dmin = block_min_sq_distance(n, nu, s)
    code = build_code(_spec(n, block(n, nu), s=s))
    words = code.codewords
    brute = min(
        float(np.sum((words[i] - words[j]) ** 2))
        for i in range(len(words))
        for j in range(i + 1, len(words))
    )
    assert dmin == pytest.approx(brute, abs=1e-12)
    assert dmin == pytest.approx(min(d1, 2 * d2), abs=1e-12)


def test_block_min_sq_distance_rejects_degenerate_s():
    with pytest.raises(ValueError):
        block_min_sq_distance(4, 2, (1.0, 1.0, 1.0, 1.0))


def test_repetition_code_size():
    code = build_code(_spec(6, repetition(6, 2)))
    assert len(code) == math.factorial(3)


def test_build_code_respects_limit():
    with pytest.raises(BruteForceLimitError):
        build_code(_spec(11, derangement(11)))


def test_code_spec_validation():
    with pytest.raises(ValueError):
        CodeSpec(3, derangement(4), (0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        CodeSpec(4, derangement(4), (0.0, 1.0, 2.0))


# ---------------------------------------------------------------------------
# Array-backed codes against the row-by-row construction
# ---------------------------------------------------------------------------


def _row_by_row(spec):
    """Oracle: one matrix object per satisfying permutation, images one by one."""
    matrices = tuple(
        x
        for x in (PermutationMatrix(p) for p in itertools.permutations(range(1, spec.n + 1)))
        if satisfies(spec.cs, x)
    )
    words = np.array([x.apply(spec.s) for x in matrices], dtype=float).reshape(-1, spec.n)
    singular = len({tuple(w) for w in words}) < len(matrices)
    return matrices, words, singular


FAMILIES = [
    ("derangement5", lambda: derangement(5)),
    ("derangement7", lambda: derangement(7)),
    ("involution6", lambda: involution(6)),
    ("pure_involution6", lambda: pure_involution(6)),
    ("transposition5", lambda: transposition(5)),
    ("transposition5_sym", lambda: transposition(5, with_symmetry=True)),
    ("cyclic7", lambda: cyclic(7)),
    ("repetition6_2", lambda: repetition(6, 2)),
    ("repetition6_3", lambda: repetition(6, 3)),
    ("block4_2", lambda: block(4, 2)),
    ("block6_2", lambda: block(6, 2)),
    ("block6_3_redundant", lambda: block(6, 3, redundant=True)),
]


@pytest.mark.parametrize("name", [name for name, _ in FAMILIES])
@pytest.mark.parametrize("repeated", [False, True], ids=["distinct_s", "repeated_s"])
def test_array_code_matches_row_by_row(name, repeated):
    cs = dict(FAMILIES)[name]()
    n = cs.n
    s = [float(v // 2) for v in range(n)] if repeated else [0.5 * v - 1.0 for v in range(n)]
    spec = CodeSpec(n, cs, tuple(s))
    code = build_code(spec)
    matrices, words, singular = _row_by_row(spec)
    assert code.perms.dtype == np.int8 and not code.perms.flags.writeable
    assert code.perms.tolist() == [list(x.perm) for x in matrices]
    assert np.array_equal(code.codewords, words)
    assert code.singular == singular
    assert code.matrices == matrices
    assert len(code) == len(matrices)
    for k in (0, len(code) // 2, len(code) - 1):
        assert code.find(matrices[k]) == k
        assert code.matrix(k) == matrices[k]


def test_singular_flag_cases():
    # Distinct entries: no image can repeat, and nothing is computed.
    code = build_code(_spec(5, derangement(5)))
    assert not code.singular and "codewords" not in code.__dict__
    # Repeated entries that the constraints keep apart: not singular.
    code = build_code(_spec(4, transposition(4, with_symmetry=True), s=(0.0, 0.0, 1.0, 2.0)))
    assert len(code) == 6 and not code.singular and "codewords" in code.__dict__
    code = build_code(_spec(2, derangement(2), s=(1.0, 1.0)))
    assert len(code) == 1 and not code.singular


def test_code_find_rejects_foreign_matrices():
    code = build_code(_spec(4, derangement(4)))
    assert code.find(PermutationMatrix.identity(4)) is None
    assert code.find(PermutationMatrix.identity(3)) is None
    with pytest.raises(ValueError):
        distance_enumerator(code, PermutationMatrix.identity(4))


def test_code_index_finds_the_first_equal_codeword():
    # Repeated entries: words repeat, so only the first equal row is returned.
    code = build_code(_spec(4, derangement(4), s=(0.0, 0.0, 1.0, 1.0)))
    words = code.codewords
    assert code.singular
    for word in words:
        first = next(j for j in range(len(words)) if np.array_equal(words[j], word))
        assert code.index(word) == code.index(tuple(word.tolist())) == first
    assert code.index(words[0] + 1e-12) is None
    assert code.index((0.0, 0.0, 0.0, 1.0)) is None  # not a rearrangement of s
    for wrong in ((0.0, 0.0, 1.0), words[:2], words[0][:, None], 0.0):
        assert code.index(wrong) is None


def test_code_equality_hash_and_pickle():
    spec = _spec(5, derangement(5))
    a, b = build_code(spec), build_code(spec)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    other = build_code(_spec(5, cyclic(5)))
    assert a != other
    a.codewords, a.matrices  # fill the cached fields
    blob = pickle.dumps(a)
    assert len(blob) < a.codewords.nbytes
    c = pickle.loads(blob)
    assert c == a and "codewords" not in c.__dict__ and "matrices" not in c.__dict__
    assert not c.perms.flags.writeable
    assert np.array_equal(c.codewords, a.codewords)


def test_code_rejects_bad_perms_shape():
    spec = _spec(4, derangement(4))
    with pytest.raises(ValueError):
        Code(spec, np.zeros((3, 5), dtype=np.int8))
    # A writable input array is copied, so the code cannot change under it.
    perms = np.array([[2, 1, 4, 3]], dtype=np.int8)
    code = Code(spec, perms)
    perms[0, 0] = 1
    assert code.perms.tolist() == [[2, 1, 4, 3]]


def test_library_paths_never_build_matrices(monkeypatch, tmp_path, capsys):
    built = []

    def capture(*args, **kwargs):
        built.append(build_code(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(channel, "build_code", capture)
    monkeypatch.setattr(codebook, "build_code", capture)
    spec = _spec(6, pure_involution(6))
    simulate_bler(spec, [2.0], 20, seed=1, decoders=("ml",))
    code = capture(spec)
    ml_bound_report(code, 0.5)
    assert codeword_rank(code, code.codewords[7]) == 8
    path = tmp_path / "pinv6.json"
    path.write_text(json.dumps({"n": 6, "s": list(range(6)),
                                "constraints": {"family": "pure_involution"}}))
    assert cli.main(["bounds", str(path), "--snr", "0:4:2"]) == 0
    assert "ml_bound" in capsys.readouterr().out
    assert len(built) == 3
    assert all("matrices" not in c.__dict__ for c in built)


def test_code_filter_cached_per_system_and_limit():
    codebook._satisfying.cache_clear()
    a = build_code(_spec(6, block(6, 3)))
    b = build_code(_spec(6, block(6, 3), (0.5, 1.0, 2.0, 3.0, 5.0, 8.0)))
    info = codebook._satisfying.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
    assert a.perms is b.perms and not a.perms.flags.writeable
    # The float codewords stay per code: the two initial vectors differ.
    assert not np.array_equal(a.codewords, b.codewords)
    c = build_code(_spec(6, block(6, 3)), limit=7)
    assert codebook._satisfying.cache_info().currsize == 2
    assert np.array_equal(c.perms, a.perms) and c.perms is not a.perms
    with pytest.raises(BruteForceLimitError):
        build_code(_spec(6, block(6, 3)), limit=5)
