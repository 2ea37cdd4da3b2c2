"""The benchmark's workloads, as run inside one worker process.

A workload is made from the run seed, the worker index and a size ("full"
is the benchmark; "tiny" keeps the same code paths small enough for the
benchmark's own tests).  The worker calls, in order:

    inputs(seed, worker, size)   the inputs; done before the first timed call
    build(inp, tracer)           first-use construction, timed as build_s
    run_round(inp, state, k, tracer)   round k of inp["rounds"], timed
    sample(inp, state)           untimed outputs kept for the output checks

``build`` and ``run_round`` return records with ``ops`` (operations
attempted) and ``failed_ops`` (operations of calls that raised).  A call that
raises fails every operation it covers, and the worker goes on.
"""

from __future__ import annotations

import hashlib

import numpy as np

import permlp as pl
from permlp.constraints import ConstraintRow, ConstraintSystem, Relation
from permlp.perm import var_index


def derive_seed(*keys: int) -> int:
    """A 32-bit seed that depends on every key; same keys, same seed."""
    return int(np.random.SeedSequence([int(k) % 2**64 for k in keys]).generate_state(1)[0])


def _trace_row_system(n: int, rhs: int) -> ConstraintSystem:
    row = ConstraintRow.make({var_index(i, i, n): 1 for i in range(1, n + 1)}, Relation.EQ, rhs)
    return ConstraintSystem(n, (row,))


def _fixpair5() -> ConstraintSystem:
    """X11 + X55 = 1 as a raw row: a code polytope with fractional vertices."""
    row = ConstraintRow.make({var_index(1, 1, 5): 1, var_index(5, 5, 5): 1}, Relation.EQ, 1)
    return ConstraintSystem(5, (row,))


# Every constraint system the workloads use, by name.
SYSTEMS = {
    "trace1_n3": lambda: _trace_row_system(3, 1),
    "involution4": lambda: pl.involution(4),
    "block4": lambda: pl.block(4, 2),
    "block4_2r": lambda: pl.block(4, 2, redundant=True),
    "derangement5": lambda: pl.derangement(5),
    "fixpair5": _fixpair5,
    "pinv6": lambda: pl.pure_involution(6),
    "derangement6": lambda: pl.derangement(6),
    "involution6": lambda: pl.involution(6),
    "block6_3": lambda: pl.block(6, 3),
    "pure_involution8": lambda: pl.pure_involution(8),
    "block8_2r": lambda: pl.block(8, 2, redundant=True),
    "derangement9": lambda: pl.derangement(9),
    "involution9": lambda: pl.involution(9),
    "block9_3": lambda: pl.block(9, 3),
}


def make_spec(name: str) -> pl.CodeSpec:
    """The code of a named system with the initial vector s = 0..n-1."""
    cs = SYSTEMS[name]()
    return pl.CodeSpec(cs.n, cs, tuple(float(v) for v in range(cs.n)))


def _call(fn, *args, **kwargs):
    """(result, None), or (None, message) when the call raised."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # counted as failed operations; the run goes on
        return None, f"{type(exc).__name__}: {exc}"


def fingerprint(words: np.ndarray) -> str:
    """Order-free digest of a codeword array with integral entries."""
    rows = np.asarray(words, dtype=np.int64)
    rows = rows[np.lexsort(rows.T[::-1])]
    return hashlib.sha256(rows.tobytes()).hexdigest()


def _build_codes(names, tracer):
    """build_code plus the first codewords access for each named code."""
    codes, out, failed = {}, [], 0
    for name in names:
        spec = make_spec(name)
        with tracer.request("build", code=name):
            code, err = _call(pl.build_code, spec)
            if code is not None:
                _, err = _call(lambda: code.codewords)
        if err:
            failed += 1
            out.append({"code": name, "error": err})
            continue
        codes[name] = code
        out.append({"code": name, "size": len(code), "singular": code.singular,
                    "fingerprint": fingerprint(code.codewords)})
    return codes, {"ops": len(names), "failed_ops": failed, "codes": out}


# ---------------------------------------------------------------------------
# lp_awgn: LP Monte-Carlo, one simulate_bler call per code and SNR point
# ---------------------------------------------------------------------------


class LpAwgn:
    name = "lp_awgn"
    rate_includes_build = False
    SIZES = {
        "full": {"codes": ("derangement5", "fixpair5", "pure_involution8", "block8_2r"),
                 "snr_db": (0.0, 3.0, 6.0), "trials": 20, "rounds": 3, "cert": 10},
        "tiny": {"codes": ("derangement5", "fixpair5", "pure_involution8", "block8_2r"),
                 "snr_db": (3.0,), "trials": 3, "rounds": 1, "cert": 2},
    }

    @classmethod
    def inputs(cls, seed, worker, size):
        p = cls.SIZES[size]
        return {"seed": seed, "worker": worker, **p,
                "specs": {name: make_spec(name) for name in p["codes"]}}

    @staticmethod
    def build(inp, tracer):
        return _build_codes(inp["codes"], tracer)

    @staticmethod
    def run_round(inp, codes, k, tracer):
        calls, ops, failed = [], 0, 0
        for ci, name in enumerate(inp["codes"]):
            for pi, snr in enumerate(inp["snr_db"]):
                seed = derive_seed(inp["seed"], inp["worker"], k, ci, pi)
                trials = inp["trials"]
                ops += trials
                with tracer.request("snr_point", code=name):
                    recs, err = _call(pl.simulate_bler, inp["specs"][name], [snr], trials,
                                      seed, decoders=("lp",))
                if err:
                    failed += trials
                    calls.append({"code": name, "error": err})
                    continue
                r = recs[0]
                calls.append({"code": name, "snr_db": snr, "seed": seed, "trials": r.trials,
                              "lp_errors": r.lp_errors, "lp_failures": r.lp_failures})
        return {"ops": ops, "failed_ops": failed, "calls": calls}

    @staticmethod
    def sample(inp, codes):
        """Seeded received words decoded by both LP and exhaustive ML."""
        out, failed = [], 0
        for ci, name in enumerate(inp["codes"]):
            spec = inp["specs"][name]
            rng = np.random.default_rng(derive_seed(inp["seed"], inp["worker"], 1_000_000, ci))
            for _ in range(inp["cert"]):
                snr = float(rng.choice(inp["snr_db"]))
                code = codes.get(name)
                if code is None:
                    failed += 1
                    continue
                sent = code.codewords[int(rng.integers(len(code)))]
                y = sent + rng.normal(0.0, 10.0 ** (-snr / 20.0), spec.n)
                res, err = _call(pl.lp_decode, spec.cs, spec.s, y)
                ml, err2 = _call(pl.ml_decode_detail, code, y)
                if err or err2:
                    failed += 1
                    continue
                out.append({"code": name, "y": y.tolist(), "lp_integral": res.is_codeword,
                            "lp_word": None if res.word is None else res.word.tolist(),
                            "lp_objective": res.objective_value,
                            "ml_word": ml[1].tolist(), "ml_tie": ml[2]})
        return {"ops": len(inp["codes"]) * inp["cert"], "failed_ops": failed, "certificate": out}


# ---------------------------------------------------------------------------
# ml_codebook_n9: exhaustive codebooks of degree 9 and ML Monte-Carlo
# ---------------------------------------------------------------------------


class MlCodebook:
    name = "ml_codebook_n9"
    rate_includes_build = False
    SIZES = {
        "full": {"degree": 9, "codes": ("derangement9", "involution9", "block9_3"),
                 "snr_db": 3.0, "trials": 170, "rounds": 1},
        "tiny": {"degree": 6, "codes": ("derangement6", "involution6", "block6_3"),
                 "snr_db": 3.0, "trials": 4, "rounds": 1},
    }

    @classmethod
    def inputs(cls, seed, worker, size):
        p = cls.SIZES[size]
        return {"seed": seed, "worker": worker, **p,
                "specs": {name: make_spec(name) for name in p["codes"]}}

    @staticmethod
    def build(inp, tracer):
        """What every ``permlp build`` run pays: table, codes, first codewords."""
        with tracer.request("table"):
            _, err = _call(pl.permutation_table, inp["degree"])
        codes, out = _build_codes(inp["codes"], tracer)
        out["ops"] += 1
        out["failed_ops"] += err is not None
        return codes, out

    @staticmethod
    def run_round(inp, codes, k, tracer):
        calls, failed = [], 0
        trials = inp["trials"]
        for ci, name in enumerate(inp["codes"]):
            seed = derive_seed(inp["seed"], inp["worker"], k, ci)
            with tracer.request("snr_point", code=name):
                recs, err = _call(pl.simulate_bler, inp["specs"][name], [inp["snr_db"]],
                                  trials, seed, decoders=("ml",))
            if err:
                failed += trials
                calls.append({"code": name, "error": err})
                continue
            calls.append({"code": name, "snr_db": inp["snr_db"], "seed": seed,
                          "trials": recs[0].trials, "ml_errors": recs[0].ml_errors})
        return {"ops": trials * len(inp["codes"]), "failed_ops": failed, "calls": calls}

    @staticmethod
    def sample(inp, codes):
        return {"ops": 0, "failed_ops": 0}


# ---------------------------------------------------------------------------
# ensemble_n10: random pair ensembles counted through the n! table
# ---------------------------------------------------------------------------


class EnsembleN10:
    name = "ensemble_n10"
    # Every ``permlp ensemble`` run pays the first-use table build, so the
    # worker's one round is timed together with it.
    rate_includes_build = True
    SIZES = {
        "full": {"card": (10, 40, 4), "weight": (6, 10, 2000), "rounds": 1},
        "tiny": {"card": (7, 12, 2), "weight": (5, 6, 50), "rounds": 1},
    }

    @classmethod
    def inputs(cls, seed, worker, size):
        return {"seed": seed, "worker": worker, **cls.SIZES[size]}

    @staticmethod
    def build(inp, tracer):
        with tracer.request("table"):
            _, err = _call(pl.permutation_table, inp["card"][0])
        return None, {"ops": 1, "failed_ops": int(err is not None)}

    @staticmethod
    def run_round(inp, state, k, tracer):
        n, m, count = inp["card"]
        wn, wm, wcount = inp["weight"]
        seed_c = derive_seed(inp["seed"], inp["worker"], k, 0)
        seed_w = derive_seed(inp["seed"], inp["worker"], k, 1)
        out = {"ops": count + wcount, "failed_ops": 0}
        with tracer.request("ensemble"):
            res, err = _call(pl.ensemble_experiment, n, m, count, seed_c)
        if err:
            out["failed_ops"] += count
            out["card_error"] = err
        else:
            out["card"] = {"n": n, "m": m, "seed": seed_c, "samples": list(res.samples),
                           "formula": res.formula_value}
        with tracer.request("ensemble_weight"):
            res, err = _call(pl.ensemble_weight_experiment, wn, wm, wcount, seed_w)
        if err:
            out["failed_ops"] += wcount
            out["weight_error"] = err
        else:
            out["weight"] = {"n": wn, "m": wm, "seed": seed_w, "num_samples": wcount,
                             "means": list(res.sample_means), "ses": list(res.standard_errors),
                             "formula": list(res.formula_values)}
        return out

    @staticmethod
    def sample(inp, state):
        return {"ops": 0, "failed_ops": 0}


# ---------------------------------------------------------------------------
# vertex_geometry: exact vertex enumeration, pseudo distances, union bounds
# ---------------------------------------------------------------------------


def _vertex_strings(vs) -> list:
    return [[str(e) for row in v.entries for e in row] for v in vs.vertices]


class VertexGeometry:
    name = "vertex_geometry"
    rate_includes_build = False
    # The inputs do not depend on the seed: the instances are the acceptance
    # ones, and the SNR grid is fixed because the bound reports cost up to
    # twice as much at 0 dB as at 8 dB, so a drawn grid would make the rate
    # depend on the seed.  fixpair5 is left out: its single 10 s enumeration
    # made a run's timings swing by a quarter on a shared 2-core machine.
    SIZES = {
        "full": {"instances": ("trace1_n3", "involution4", "block4", "derangement5", "pinv6"),
                 "ml_code": "block8_2r", "snr_db": (2.0, 4.0, 6.0), "rounds": 1},
        "tiny": {"instances": ("trace1_n3", "involution4", "block4"),
                 "ml_code": "block4_2r", "snr_db": (4.0,), "rounds": 1},
    }

    @classmethod
    def inputs(cls, seed, worker, size):
        p = cls.SIZES[size]
        return {"seed": seed, "worker": worker, **p,
                "systems": {name: SYSTEMS[name]() for name in p["instances"]},
                "ml_spec": make_spec(p["ml_code"]),
                "sigmas": [10.0 ** (-v / 20.0) for v in p["snr_db"]]}

    @staticmethod
    def build(inp, tracer):
        """Vertex sets of every instance (vertices_s), then the ML bound's code."""
        state, out, failed = {"vs": {}}, [], 0
        for name, cs in inp["systems"].items():
            with tracer.request("instance", instance=name):
                vs, err = _call(pl.enumerate_vertices, cs, cs.n)
            if err:
                failed += 1
                out.append({"instance": name, "error": err})
                continue
            state["vs"][name] = vs
            out.append({"instance": name, "integral": len(vs.integral),
                        "fractional": len(vs.fractional), "vertices": _vertex_strings(vs)})
        with tracer.request("build", code=inp["ml_code"]):
            state["code"], err = _call(pl.build_code, inp["ml_spec"])
        if err:
            failed += 1
        return state, {"ops": len(inp["systems"]) + 1, "failed_ops": failed, "instances": out}

    @staticmethod
    def run_round(inp, state, k, tracer):
        """Pseudo distances and both union-bound reports over the sigma grid."""
        sigmas = inp["sigmas"]
        out = {"ops": 0, "failed_ops": 0, "sigmas": sigmas, "ml_code": inp["ml_code"],
               "mpd": {}, "lp_reports": {}, "ml_reports": []}

        def record(key, fn, *args):
            out["ops"] += 1
            res, err = _call(fn, *args)
            if err:
                out["failed_ops"] += 1
                out.setdefault("errors", []).append(f"{key}: {err}")
            return res

        for name, cs in inp["systems"].items():
            vs = state["vs"].get(name)
            s = tuple(float(v) for v in range(cs.n))
            with tracer.request("instance_bounds", instance=name):
                if vs is None:
                    out["ops"] += 1 + len(sigmas)
                    out["failed_ops"] += 1 + len(sigmas)
                    continue
                out["mpd"][name] = record(name, pl.min_pseudo_distance, vs, cs, s)
                reports = [record(name, pl.lp_bound_report, vs, s, sigma) for sigma in sigmas]
                out["lp_reports"][name] = [None if r is None else list(r.values) for r in reports]
        code = state["code"]
        for sigma in sigmas:
            with tracer.request("ml_bounds"):
                if code is None:
                    out["ops"] += 1
                    out["failed_ops"] += 1
                    out["ml_reports"].append(None)
                    continue
                rep = record("ml", pl.ml_bound_report, code, sigma)
                out["ml_reports"].append(None if rep is None else list(rep.values))
        return out

    @staticmethod
    def sample(inp, state):
        return {"ops": 0, "failed_ops": 0}


WORKLOADS = {w.name: w for w in (LpAwgn, MlCodebook, EnsembleN10, VertexGeometry)}
