"""AWGN simulation harness: determinism, parallel equivalence, statistics."""

import pickle

import numpy as np
import pytest

from permlp import channel
from permlp.channel import (
    SnrPoint,
    awgn,
    ensemble_experiment,
    ensemble_weight_experiment,
    sigma_from_snr_db,
    simulate_bler,
)
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
)
from permlp.perm import var_index


def test_sigma_from_snr_db_anchors():
    assert sigma_from_snr_db(0.0) == pytest.approx(1.0)
    assert sigma_from_snr_db(20.0) == pytest.approx(0.1)
    assert sigma_from_snr_db(-20.0) == pytest.approx(10.0)
    # Round trip through the defining relation SNR = 10 log10(1/sigma^2).
    for db in (-3.0, 1.7, 8.2):
        sigma = sigma_from_snr_db(db)
        assert 10 * np.log10(1 / sigma**2) == pytest.approx(db)


def test_snr_point_from_db():
    p = SnrPoint.from_db(6.0)
    assert p.snr_db == 6.0
    assert p.sigma == pytest.approx(sigma_from_snr_db(6.0))


def test_awgn_reproducible_and_calibrated():
    x = np.zeros(200_000)
    noisy = awgn(x, 0.5, np.random.default_rng(9))
    again = awgn(x, 0.5, np.random.default_rng(9))
    assert np.array_equal(noisy, again)
    assert noisy.mean() == pytest.approx(0.0, abs=0.01)
    assert noisy.std() == pytest.approx(0.5, abs=0.01)


def _spec():
    return CodeSpec(4, derangement(4), (0.0, 1.0, 2.0, 3.0))


def test_simulate_bler_deterministic():
    a = simulate_bler(_spec(), [2.0, 4.0], 300, seed=13)
    b = simulate_bler(_spec(), [2.0, 4.0], 300, seed=13)
    assert a == b
    c = simulate_bler(_spec(), [2.0, 4.0], 300, seed=14)
    assert a != c


def test_simulate_bler_threads_match_serial():
    serial = simulate_bler(_spec(), [1.0, 3.0, 5.0], 200, seed=21, threads=1)
    parallel = simulate_bler(_spec(), [1.0, 3.0, 5.0], 200, seed=21, threads=3)
    assert serial == parallel


def test_simulate_bler_record_fields():
    recs = simulate_bler(_spec(), [4.0], 250, seed=3, decoders=("lp", "ml"))
    (r,) = recs
    assert r.trials == 250 and r.seed == 3 and r.snr_db == 4.0
    assert r.sigma == pytest.approx(sigma_from_snr_db(4.0))
    assert 0 <= r.lp_failures <= r.lp_errors <= r.trials
    assert r.ml_errors is not None and 0 <= r.ml_errors <= r.trials
    # LP can never beat ML on average; with shared noise it cannot here.
    assert r.ml_errors <= r.lp_errors


def test_simulate_bler_lp_only_skips_ml():
    (r,) = simulate_bler(_spec(), [4.0], 50, seed=3, decoders=("lp",))
    assert r.ml_errors is None


def test_simulate_bler_quiet_at_high_snr():
    (r,) = simulate_bler(_spec(), [40.0], 200, seed=5)
    assert r.lp_errors == 0 and r.ml_errors == 0


def test_simulate_fixed_transmitted_word():
    spec = _spec()
    word = np.array([1.0, 0.0, 3.0, 2.0])
    a = simulate_bler(spec, [4.0], 200, seed=8, transmitted=word)
    b = simulate_bler(spec, [4.0], 200, seed=8, transmitted=word)
    assert a == b
    with pytest.raises(ValueError):
        simulate_bler(spec, [4.0], 50, seed=8, transmitted=np.array([9.0, 9.0, 9.0, 9.0]))


def _fixpair5():
    row = ConstraintRow.make({var_index(1, 1, 5): 1, var_index(5, 5, 5): 1}, Relation.EQ, 1)
    return ConstraintSystem(5, (row,))


# (lp_errors, lp_failures) per SNR point: three points with random codewords,
# then two with codewords[0] fixed.  Pinned so that solver speed-ups are
# checked to leave seeded results unchanged.
PINNED_LP_COUNTS = {
    "derangement5": (lambda: derangement(5), [(84, 0), (73, 0), (44, 0), (60, 0), (39, 0)]),
    "fixpair5": (_fixpair5, [(97, 0), (79, 0), (67, 0), (92, 1), (67, 0)]),
    "pure_involution8": (lambda: pure_involution(8), [(39, 0), (20, 0), (5, 0), (13, 3), (5, 2)]),
    "block8_2r": (lambda: block(8, 2, redundant=True), [(104, 0), (89, 0), (63, 0), (96, 0), (87, 0)]),
    "block6_3": (lambda: block(6, 3), [(105, 6), (94, 1), (69, 0), (109, 7), (84, 6)]),
}


@pytest.mark.parametrize("name", sorted(PINNED_LP_COUNTS))
def test_simulate_bler_lp_counts_pinned(name):
    make, want = PINNED_LP_COUNTS[name]
    cs = make()
    spec = CodeSpec(cs.n, cs, tuple(float(v) for v in range(cs.n)))
    recs = simulate_bler(spec, [0, 2, 4], 150, seed=11, decoders=("lp",))
    recs += simulate_bler(
        spec, [0, 2], 150, seed=12, decoders=("lp",), transmitted=build_code(spec).codewords[0]
    )
    assert [(r.lp_errors, r.lp_failures) for r in recs] == want


# ml_errors per SNR point (0, 3, 6 dB; 150 trials, seed 21), pinned so that
# faster code construction and ML decoding leave seeded results unchanged.
_RANGE6 = tuple(float(v) for v in range(6))
PINNED_ML_COUNTS = {
    "derangement6": (lambda: derangement(6), _RANGE6, [109, 70, 27]),
    "involution6": (lambda: involution(6), _RANGE6, [71, 41, 19]),
    "block6_3": (lambda: block(6, 3), _RANGE6, [119, 89, 40]),
    "derangement6_singular": (lambda: derangement(6), (0.0, 0.0, 1.0, 1.0, 2.0, 2.0), [129, 104, 64]),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(PINNED_ML_COUNTS))
def test_simulate_bler_ml_counts_pinned(name, threads):
    make, s, want = PINNED_ML_COUNTS[name]
    cs = make()
    recs = simulate_bler(CodeSpec(cs.n, cs, s), [0, 3, 6], 150, seed=21, decoders=("ml",),
                         threads=threads)
    assert [r.ml_errors for r in recs] == want


class _PicklingPool:
    """Stands in for ProcessPoolExecutor: runs each job from its pickle."""

    blobs: list = []

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        out = []
        for job in jobs:
            blob = pickle.dumps(job)
            _PicklingPool.blobs.append(blob)
            out.append(fn(pickle.loads(blob)))
        return out


def test_simulate_bler_jobs_ship_permutations_only(monkeypatch):
    spec = CodeSpec(6, derangement(6), _RANGE6)
    built = []

    def capture(*args):
        built.append(build_code(*args))
        return built[-1]

    monkeypatch.setattr(channel, "build_code", capture)
    monkeypatch.setattr(channel, "ProcessPoolExecutor", _PicklingPool)
    _PicklingPool.blobs = []
    serial = simulate_bler(spec, [1.0, 3.0], 40, seed=5, threads=1)
    parallel = simulate_bler(spec, [1.0, 3.0], 40, seed=5, threads=2)
    assert serial == parallel
    assert len(built) == 2  # one build per call, not one per SNR point
    assert len(_PicklingPool.blobs) == 2
    words = built[1].codewords
    for blob in _PicklingPool.blobs:
        assert len(blob) < words.nbytes
        job_code = pickle.loads(blob)[1]
        assert job_code == built[1] and "codewords" not in job_code.__dict__
    # An LP-only run with a fixed word ships no code at all.
    _PicklingPool.blobs = []
    simulate_bler(spec, [1.0, 3.0], 5, seed=5, decoders=("lp",), transmitted=words[0], threads=2)
    assert all(pickle.loads(blob)[1] is None for blob in _PicklingPool.blobs)


def test_simulate_rejects_empty_code():
    spec = CodeSpec(3, derangement(3), (0.0, 1.0, 2.0))
    bad = CodeSpec(1, derangement(1), (0.0,))
    assert len(simulate_bler(spec, [10.0], 10, seed=1)) == 1
    with pytest.raises(ValueError):
        simulate_bler(bad, [10.0], 10, seed=1)


def test_ensemble_experiment_moments():
    res = ensemble_experiment(4, 3, 400, seed=17)
    assert res.n == 4 and res.m == 3
    assert len(res.samples) == 400
    arr = np.array(res.samples, dtype=float)
    assert res.sample_mean == pytest.approx(arr.mean())
    assert res.standard_error == pytest.approx(arr.std(ddof=1) / np.sqrt(len(arr)))
    again = ensemble_experiment(4, 3, 400, seed=17)
    assert again.samples == res.samples
    # All counts are cards of sub-codes of S_4.
    assert all(0 <= v <= 24 for v in res.samples)


def test_ensemble_experiment_threads_match_serial():
    serial = ensemble_experiment(4, 5, 120, seed=23, threads=1)
    parallel = ensemble_experiment(4, 5, 120, seed=23, threads=3)
    assert serial.samples == parallel.samples


def test_ensemble_weight_experiment_consistency():
    res = ensemble_weight_experiment(4, 3, 300, seed=29)
    assert len(res.sample_means) == 5 == len(res.formula_values)
    # Weight 1 is impossible for permutations.
    assert res.sample_means[1] == 0.0 and res.formula_values[1] == 0.0
    # Per-sample weights must add up to the cardinality samples.
    card = ensemble_experiment(4, 3, 300, seed=29)
    assert sum(res.sample_means) == pytest.approx(card.sample_mean)
