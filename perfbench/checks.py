"""Output checks and the independent references they compare against.

The references are computed here, in the parent process, from the inputs a
worker reports (seeds, constraint systems) and never through permlp's
codebook, decoders, enumerators, bounds or closed forms:

* codes come from this module's own table of S_n and its own evaluation of
  the constraint rows;
* LP outcomes come from scipy's HiGHS dual simplex;
* ML outcomes, union bounds and pseudo distances come from vectorized numpy
  over those codes and over the vertex lists the program printed exactly;
* ensemble counts are recounted by a union-find method over this module's
  table, and the closed forms are evaluated here in exact arithmetic.

Trials and ensemble systems are regenerated from the seeds with the
package's documented counter-based scheme (one generator per
``SeedSequence((seed, point, trial))`` or ``SeedSequence((seed, sample))``;
ensemble systems are drawn with ``permlp.sample_ensemble``, whose draws the
z-score diagnostic compares with the closed form), so a check compares the
very trials the program ran.

Each workload has ``reference(passes) -> ref`` and
``check(passes, ref) -> [Check]``; ``passes`` is the list of worker results
of each pass.  A failed check fails the operations it covers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from workloads import SYSTEMS, fingerprint

# Exact sizes of the codes the workloads build (s = 0..n-1).
CODE_SIZES = {
    "derangement5": 44, "fixpair5": 36, "pure_involution8": 105, "block8_2r": 384,
    "block4_2r": 8, "derangement9": 133_496, "involution9": 2_620, "block9_3": 1_296,
    "derangement6": 265, "involution6": 76, "block6_3": 72,
}
# (integral, fractional) vertex counts of the acceptance instances.
VERTEX_COUNTS = {
    "trace1_n3": (3, 2), "involution4": (10, 4), "block4": (8, 20),
    "derangement5": (44, 0), "pinv6": (15, 10),
}
# The paper's minimum pseudo distance of the derangement code at n = 5.
MIN_PSEUDO_DISTANCE = {"derangement5": 0.707107}
REL_TOL = 1e-9
ML_TIE_GAP = 1e-9


@dataclass
class Check:
    name: str
    ok: bool
    ops: int
    detail: str = ""


# ---------------------------------------------------------------------------
# Codes and trials
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def perm_table(n: int) -> np.ndarray:
    """All permutations of 1..n in lexicographic order, grown one symbol at a time."""
    tab = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, n + 1):
        blocks = []
        for v in range(1, k + 1):
            rest = np.array([u for u in range(1, k + 1) if u != v], dtype=np.int8)
            tail = rest[tab - 1] if k > 1 else tab
            blocks.append(np.hstack([np.full((len(tab), 1), v, dtype=np.int8), tail]))
        tab = np.vstack(blocks)
    tab.setflags(write=False)
    return tab


@functools.lru_cache(maxsize=None)
def perm_columns(n: int) -> np.ndarray:
    """perm_table(n) transposed: one contiguous array per column."""
    return np.ascontiguousarray(perm_table(n).T)


def rows_mask(cs, table: np.ndarray) -> np.ndarray:
    """Which table rows (column-to-row maps) satisfy every constraint row."""
    n = cs.n
    mask = np.ones(len(table), dtype=bool)
    for row in cs.rows:
        acc = np.zeros(len(table), dtype=np.int64)
        for p, c in row.coeffs:
            i, j = divmod(p - 1, n)
            acc += c * (table[:, j] == i + 1)
        mask &= (acc == row.rhs) if row.relation.value == "eq" else (acc <= row.rhs)
    return mask


def images(table: np.ndarray, s) -> np.ndarray:
    """Row r is X s for the permutation matrix with X[table[r, j]-1, j] = 1."""
    s = np.asarray(s, dtype=float)
    out = np.empty(table.shape, dtype=float)
    out[np.arange(len(table))[:, None], table.astype(np.int64) - 1] = s
    return out


@functools.lru_cache(maxsize=None)
def reference_code(name: str):
    """(permutations, codewords) of a named system with s = 0..n-1, code order."""
    cs = SYSTEMS[name]()
    table = perm_table(cs.n)
    perms = table[rows_mask(cs, table)]
    return perms, images(perms, range(cs.n))


def regenerate_trials(seed: int, trials: int, words: np.ndarray, snr_db: float):
    """The sent word indices and received words of one simulate_bler point."""
    sigma = 10.0 ** (-snr_db / 20.0)
    idx = np.empty(trials, dtype=np.int64)
    ys = np.empty((trials, words.shape[1]))
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0, t)))
        idx[t] = rng.integers(0, len(words))
        ys[t] = words[idx[t]] + rng.normal(0.0, sigma, words.shape[1])
    return idx, ys


def ml_reference(words: np.ndarray, ys: np.ndarray):
    """Nearest codeword per received word, and whether the top two nearly tie."""
    best = np.empty(len(ys), dtype=np.int64)
    tie = np.empty(len(ys), dtype=bool)
    norms = (words * words).sum(axis=1)
    for lo in range(0, len(ys), 16):
        chunk = ys[lo : lo + 16]
        d2 = norms[:, None] - 2.0 * (words @ chunk.T) + (chunk * chunk).sum(axis=1)
        order = np.argpartition(d2, 1, axis=0)[:2]
        first = np.take_along_axis(d2, order[:1], axis=0)[0]
        second = np.take_along_axis(d2, order[1:2], axis=0)[0]
        lo_is_first = first <= second
        best[lo : lo + len(chunk)] = np.where(lo_is_first, order[0], order[1])
        tie[lo : lo + len(chunk)] = np.abs(second - first) < ML_TIE_GAP
    return best, tie


def _lp_matrices(cs):
    """Equality and inequality rows of the code polytope over vec(X)."""
    n = cs.n
    eq, beq, ub, bub = [], [], [], []
    for i in range(n):
        r = np.zeros(n * n)
        r[i * n : (i + 1) * n] = 1.0
        eq.append(r)
        beq.append(1.0)
        c = np.zeros(n * n)
        c[i::n] = 1.0
        eq.append(c)
        beq.append(1.0)
    for row in cs.rows:
        r = np.zeros(n * n)
        for p, c in row.coeffs:
            r[p - 1] = c
        (eq if row.relation.value == "eq" else ub).append(r)
        (beq if row.relation.value == "eq" else bub).append(float(row.rhs))
    return (np.array(eq), np.array(beq), np.array(ub) if ub else None,
            np.array(bub) if bub else None)


def lp_reference(cs, ys: np.ndarray):
    """Per received word: the integral optimum's image, or None when fractional."""
    from scipy.optimize import linprog

    n = cs.n
    a_eq, b_eq, a_ub, b_ub = _lp_matrices(cs)
    s = np.arange(n, dtype=float)
    out = []
    for y in ys:
        res = linprog(-np.outer(y, s).ravel(), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=(0, None), method="highs-ds")
        if res.status != 0:
            raise RuntimeError(f"reference LP failed: {res.message}")
        x = res.x.reshape(n, n)
        r = np.rint(x)
        perm_matrix = (np.abs(x - r).max() <= 1e-6 and np.all(r.sum(axis=0) == 1)
                       and np.all(r.sum(axis=1) == 1))
        out.append(r @ s if perm_matrix else None)
    return out


def _binomial_tol(count: int, total: int) -> float:
    p = min(max(count / total, 0.0), 1.0)
    return 1.0 + 3.0 * math.sqrt(total * p * (1.0 - p))


# ---------------------------------------------------------------------------
# lp_awgn
# ---------------------------------------------------------------------------


def _checked_calls(w, workers):
    """The calls an LP reference is solved for: the first round of two workers."""
    if not any(w is first for first in workers[:2]) or not w.get("rounds"):
        return []
    return w["rounds"][0]["calls"]


class LpChecks:
    @staticmethod
    def reference(passes):
        """Reference outcomes of every trial of the first round of two workers."""
        ref = {"counts": {}, "certificate": []}
        for workers in passes:
            for w in workers:
                for call in _checked_calls(w, workers):
                    if "error" in call:
                        continue
                    _, words = reference_code(call["code"])
                    idx, ys = regenerate_trials(call["seed"], call["trials"], words, call["snr_db"])
                    outcome = lp_reference(SYSTEMS[call["code"]](), ys)
                    agg = ref["counts"].setdefault(call["code"], {"trials": 0, "lp_errors": 0,
                                                                  "lp_failures": 0})
                    agg["trials"] += call["trials"]
                    for k, word in enumerate(outcome):
                        if word is None:
                            agg["lp_failures"] += 1
                            agg["lp_errors"] += 1
                        elif not np.array_equal(word, words[idx[k]]):
                            agg["lp_errors"] += 1
                for sample in w.get("sample", {}).get("certificate", []):
                    _, words = reference_code(sample["code"])
                    y = np.asarray(sample["y"])
                    best, tie = ml_reference(words, y[None, :])
                    ref["certificate"].append({"ml_word": words[best[0]].tolist(),
                                               "tie": bool(tie[0]),
                                               "best_objective": float(words[best[0]] @ y)})
        return ref

    @staticmethod
    def check(passes, ref):
        checks = []
        prog = {}
        for workers in passes:
            for w in workers:
                for call in _checked_calls(w, workers):
                    if "error" in call:
                        continue
                    agg = prog.setdefault(call["code"], {"trials": 0, "lp_errors": 0,
                                                         "lp_failures": 0})
                    for key in agg:
                        agg[key] += call[key]
                for entry in w.get("build", {}).get("codes", []):
                    if "error" in entry:
                        continue
                    want = CODE_SIZES[entry["code"]]
                    ok = entry["size"] == want == len(reference_code(entry["code"])[0])
                    checks.append(Check(f"lp.code_size.{entry['code']}", ok, 1,
                                        f"{entry['size']} words, want {want}"))
        for code, got in prog.items():
            want = ref["counts"].get(code, {"trials": -1})
            ok = want["trials"] == got["trials"] and all(
                abs(got[k] - want[k]) <= _binomial_tol(want[k], want["trials"])
                for k in ("lp_errors", "lp_failures"))
            checks.append(Check(f"lp.counts.{code}", ok, got["trials"],
                                f"program {got}, reference {want}"))
        samples = [s for workers in passes for w in workers
                   for s in w.get("sample", {}).get("certificate", [])]
        bad = []
        for sample, want in zip(samples, ref["certificate"]):
            y = np.asarray(sample["y"])

            def same_or_tie(word):
                if np.array_equal(word, want["ml_word"]):
                    return True
                d_got = float(((np.asarray(word) - y) ** 2).sum())
                d_want = float(((np.asarray(want["ml_word"]) - y) ** 2).sum())
                return want["tie"] and abs(d_got - d_want) <= 1e-9

            scale = 1.0 + abs(want["best_objective"])
            ok = (same_or_tie(sample["ml_word"])
                  and sample["lp_objective"] >= want["best_objective"] - 1e-9 * scale
                  and (not sample["lp_integral"] or same_or_tie(sample["lp_word"])))
            if not ok:
                bad.append(sample["code"])
        checks.append(Check("lp.certificate", not bad and len(samples) == len(ref["certificate"]),
                            len(samples), f"{len(bad)} of {len(samples)} samples disagree"))
        return checks


# ---------------------------------------------------------------------------
# ml_codebook_n9
# ---------------------------------------------------------------------------


class MlChecks:
    @staticmethod
    def reference(passes):
        ref = {"codes": {}, "errors": {}}
        for workers in passes:
            for w in workers:
                for call in w.get("rounds", [{}])[0].get("calls", []):
                    if "error" in call:
                        continue
                    perms, words = reference_code(call["code"])
                    idx, ys = regenerate_trials(call["seed"], call["trials"], words, call["snr_db"])
                    best, tie = ml_reference(words, ys)
                    agg = ref["errors"].setdefault(call["code"], {"trials": 0, "ml_errors": 0,
                                                                  "near_ties": 0})
                    agg["trials"] += call["trials"]
                    agg["ml_errors"] += int(np.sum(best != idx))
                    agg["near_ties"] += int(np.sum(tie))
        for name in {c for workers in passes for w in workers
                     for c in (e["code"] for e in w.get("build", {}).get("codes", []))}:
            perms, words = reference_code(name)
            ref["codes"][name] = {"size": len(perms), "fingerprint": fingerprint(words)}
        return ref

    @staticmethod
    def check(passes, ref):
        checks, prog = [], {}
        for workers in passes:
            for w in workers:
                for entry in w.get("build", {}).get("codes", []):
                    if "error" in entry:
                        continue
                    want = ref["codes"][entry["code"]]
                    ok = (entry["size"] == want["size"] == CODE_SIZES[entry["code"]]
                          and not entry["singular"] and entry["fingerprint"] == want["fingerprint"])
                    checks.append(Check(f"ml.build.{entry['code']}", ok, 1,
                                        f"{entry['size']} words, singular={entry['singular']}"))
                for call in w.get("rounds", [{}])[0].get("calls", []):
                    if "error" in call:
                        continue
                    agg = prog.setdefault(call["code"], {"trials": 0, "ml_errors": 0})
                    agg["trials"] += call["trials"]
                    agg["ml_errors"] += call["ml_errors"]
        for code, got in prog.items():
            want = ref["errors"].get(code, {"trials": -1, "ml_errors": -1, "near_ties": 0})
            ok = (got["trials"] == want["trials"]
                  and abs(got["ml_errors"] - want["ml_errors"]) <= want["near_ties"])
            checks.append(Check(f"ml.errors.{code}", ok, got["trials"],
                                f"program {got}, reference {want}"))
        return checks


# ---------------------------------------------------------------------------
# ensemble_n10
# ---------------------------------------------------------------------------


def _pair_ratio(n: int) -> Fraction:
    return Fraction(math.comb(n, 2) + math.comb(n * n - n, 2), math.comb(n * n, 2))


def closed_form_cardinality(n: int, m: int) -> float:
    return float(math.factorial(n) * _pair_ratio(n) ** m)


def closed_form_weight(n: int, m: int, w: int) -> float:
    derangements = sum((-1) ** k * Fraction(math.factorial(w), math.factorial(k))
                       for k in range(w + 1))
    return float(math.comb(n, w) * derangements * _pair_ratio(n) ** m)


def _sampled_pairs(n: int, m: int, seed: int, k: int):
    import permlp

    rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
    return permlp.sample_ensemble(n, m, rng).rows


def recount(n: int, pairs, cols: np.ndarray) -> np.ndarray:
    """Mask of permutations whose entries are equal across every tied pair.

    Positions tied by the pairs form union-find classes; a permutation
    satisfies the system when each class holds all ones or all zeros.
    """
    parent = list(range(n * n + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in pairs:
        parent[find(a)] = find(b)
    classes = {}
    for p in {q for pair in pairs for q in pair}:
        classes.setdefault(find(p), []).append(p)
    mask = np.ones(cols.shape[1], dtype=bool)
    for members in classes.values():
        ones = np.zeros(cols.shape[1], dtype=np.int8)
        for p in members:
            i, j = divmod(p - 1, n)
            ones += cols[j] == i + 1
        mask &= (ones == 0) | (ones == len(members))
    return mask


class EnsembleChecks:
    @staticmethod
    def reference(passes):
        ref = {"card": [], "weight": []}
        for workers in passes:
            for w in workers:
                for rnd in w.get("rounds", []):
                    if "card" in rnd:
                        c = rnd["card"]
                        cols = perm_columns(c["n"])
                        counts = [int(recount(c["n"], _sampled_pairs(c["n"], c["m"], c["seed"], k),
                                              cols).sum()) for k in range(len(c["samples"]))]
                        ref["card"].append({"samples": counts,
                                            "formula": closed_form_cardinality(c["n"], c["m"])})
                    if "weight" in rnd:
                        wt = rnd["weight"]
                        n = wt["n"]
                        weights = n - (perm_table(n) == np.arange(1, n + 1)).sum(axis=1)
                        totals = np.zeros(n + 1)
                        for k in range(wt["num_samples"]):
                            mask = recount(n, _sampled_pairs(n, wt["m"], wt["seed"], k),
                                           perm_columns(n))
                            totals += np.bincount(weights[mask], minlength=n + 1)
                        ref["weight"].append({
                            "means": (totals / wt["num_samples"]).tolist(),
                            "formula": [closed_form_weight(n, wt["m"], v) for v in range(n + 1)]})
        return ref

    @staticmethod
    def check(passes, ref):
        checks = []
        cards = [r["card"] for workers in passes for w in workers for r in w.get("rounds", [])
                 if "card" in r]
        weights = [r["weight"] for workers in passes for w in workers for r in w.get("rounds", [])
                   if "weight" in r]
        for got, want in zip(cards, ref["card"]):
            ok = (got["samples"] == want["samples"]
                  and math.isclose(got["formula"], want["formula"], rel_tol=1e-12))
            checks.append(Check("ensemble.cardinality", ok, len(got["samples"]),
                                f"seed {got['seed']}: {got['samples']} vs {want['samples']}"))
        for got, want in zip(weights, ref["weight"]):
            ok = (np.allclose(got["means"], want["means"], rtol=0, atol=1e-9)
                  and np.allclose(got["formula"], want["formula"], rtol=1e-12, atol=0))
            checks.append(Check("ensemble.weights", ok, got["num_samples"],
                                f"seed {got['seed']}"))
        complete = len(cards) == len(ref["card"]) and len(weights) == len(ref["weight"])
        checks.append(Check("ensemble.references", complete, 0))
        return checks

    @staticmethod
    def diagnostics(passes):
        """Pooled z-scores of the sample means against the closed forms.

        Reported, not gated: at a handful of heavy-tailed samples a 3-SE test
        fails a correct program in a few runs out of a hundred.
        """
        rounds = [r for workers in passes for w in workers for r in w.get("rounds", [])]
        cards = [r["card"] for r in rounds if "card" in r]
        weights = [r["weight"] for r in rounds if "weight" in r]
        out = {}
        samples = np.array([v for c in cards for v in c["samples"]], dtype=float)
        if len(samples) > 1 and samples.std() > 0:
            n, m = cards[0]["n"], cards[0]["m"]
            se = samples.std(ddof=1) / math.sqrt(len(samples))
            out["cardinality_z"] = (samples.mean() - closed_form_cardinality(n, m)) / se
            out["cardinality_samples"] = len(samples)
        if weights:
            # Equal-size experiments: the pooled mean is the mean of the means.
            means = np.mean([wt["means"] for wt in weights], axis=0)
            ses = np.sqrt(np.sum(np.square([wt["ses"] for wt in weights]), axis=0)) / len(weights)
            n, m = weights[0]["n"], weights[0]["m"]
            z = [(means[v] - closed_form_weight(n, m, v)) / ses[v] for v in range(n + 1) if ses[v] > 0]
            out["weight_max_abs_z"] = float(np.max(np.abs(z))) if z else 0.0
            out["weight_samples"] = sum(wt["num_samples"] for wt in weights)
        return out


# ---------------------------------------------------------------------------
# vertex_geometry
# ---------------------------------------------------------------------------


def q_function(x: np.ndarray) -> np.ndarray:
    return 0.5 * np.vectorize(math.erfc, otypes=[float])(np.asarray(x) / math.sqrt(2.0))


def _vertex_images(vertices, n):
    mats = np.array([[float(Fraction(e)) for e in v] for v in vertices]).reshape(-1, n, n)
    return mats @ np.arange(n, dtype=float)


def lp_bound_reference(vertices, n, sigma):
    imgs = _vertex_images(vertices, n)
    integral = [k for k, v in enumerate(vertices) if all(Fraction(e).denominator == 1 for e in v)]
    values = []
    for k in integral:
        xs = imgs[k]
        others = np.delete(imgs, k, axis=0)
        dist = np.linalg.norm(others - xs, axis=1)
        values.append(float(q_function((xs @ xs - others @ xs) / (sigma * dist)).sum()))
    return values


def min_pseudo_distance_reference(vertices, n):
    imgs = _vertex_images(vertices, n)
    best = math.inf
    for k, v in enumerate(vertices):
        if all(Fraction(e).denominator == 1 for e in v):
            others = np.delete(imgs, k, axis=0)
            xs = imgs[k]
            best = min(best, float(((xs @ xs - others @ xs) / np.linalg.norm(others - xs, axis=1)).min()))
    return best


def ml_bound_reference(words, sigma):
    diff = words[:, None, :] - words[None, :, :]
    terms = q_function(np.sqrt((diff * diff).sum(axis=2)) / (2.0 * sigma))
    np.fill_diagonal(terms, 0.0)
    return terms.sum(axis=1).tolist()


def vertex_errors(name, vertices, n):
    """Exact validity of a vertex list: doubly stochastic, rows hold, code matches."""
    cs = SYSTEMS[name]()
    mats = [[Fraction(e) for e in v] for v in vertices]
    if len({tuple(m) for m in mats}) != len(mats):
        return "duplicate vertices"
    for m in mats:
        if any(e < 0 for e in m):
            return "negative entry"
        if any(sum(m[i * n : (i + 1) * n]) != 1 or sum(m[i::n]) != 1 for i in range(n)):
            return "not doubly stochastic"
        for row in cs.rows:
            lhs = sum(c * m[p - 1] for p, c in row.coeffs)
            if (lhs != row.rhs) if row.relation.value == "eq" else (lhs > row.rhs):
                return "constraint row violated"
    integral = {tuple(int(e) for e in m) for m in mats if all(e.denominator == 1 for e in m)}
    table = perm_table(n)
    code = table[rows_mask(cs, table)]
    want = {tuple(int(v) for v in row) for row in
            (np.eye(n, dtype=int)[code.astype(int) - 1].transpose(0, 2, 1).reshape(len(code), -1))}
    return None if integral == want else "integral vertices differ from the code"


class VertexChecks:
    @staticmethod
    def reference(passes):
        ref = {"instances": {}, "lp_reports": {}, "ml_reports": {}}
        for workers in passes:
            for w in workers:
                for inst in w.get("build", {}).get("instances", []):
                    name = inst["instance"]
                    if "error" in inst or name in ref["instances"]:
                        continue
                    n = SYSTEMS[name]().n
                    ref["instances"][name] = {
                        "counts": VERTEX_COUNTS[name],
                        "invalid": vertex_errors(name, inst["vertices"], n),
                        "mpd": min_pseudo_distance_reference(inst["vertices"], n),
                        "vertices": inst["vertices"],
                    }
                for rnd in w.get("rounds", []):
                    for sigma in rnd["sigmas"]:
                        for name in rnd["lp_reports"]:
                            vertices = ref["instances"][name]["vertices"]
                            ref["lp_reports"][f"{name}@{sigma}"] = lp_bound_reference(
                                vertices, SYSTEMS[name]().n, sigma)
                        ref["ml_reports"][f"{rnd['ml_code']}@{sigma}"] = ml_bound_reference(
                            reference_code(rnd["ml_code"])[1], sigma)
        return ref

    @staticmethod
    def check(passes, ref):
        def close(got, want):
            return got is not None and np.allclose(got, want, rtol=REL_TOL, atol=0)

        checks = []
        for workers in passes:
            for w in workers:
                for inst in w.get("build", {}).get("instances", []):
                    if "error" in inst:
                        continue
                    name = inst["instance"]
                    want = ref["instances"][name]
                    ok = ((inst["integral"], inst["fractional"]) == tuple(want["counts"])
                          and want["invalid"] is None and inst["vertices"] == want["vertices"])
                    checks.append(Check(f"vertex.enumerate.{name}", ok, 1,
                                        f"{inst['integral']}+{inst['fractional']} vertices, "
                                        f"want {want['counts']}; {want['invalid'] or 'valid'}"))
                for rnd in w.get("rounds", []):
                    for name, mpd in rnd["mpd"].items():
                        want = ref["instances"][name]["mpd"]
                        ok = mpd is not None and math.isclose(mpd, want, rel_tol=REL_TOL)
                        if name in MIN_PSEUDO_DISTANCE:
                            ok = ok and abs(mpd - MIN_PSEUDO_DISTANCE[name]) <= 1e-6
                        checks.append(Check(f"vertex.min_pseudo_distance.{name}", ok, 1,
                                            f"{mpd} vs {want}"))
                    for name, reports in rnd["lp_reports"].items():
                        ok = all(close(rep, ref["lp_reports"][f"{name}@{sigma}"])
                                 for rep, sigma in zip(reports, rnd["sigmas"]))
                        checks.append(Check(f"vertex.lp_bound_report.{name}", ok, len(reports)))
                    for rep, sigma in zip(rnd["ml_reports"], rnd["sigmas"]):
                        ok = close(rep, ref["ml_reports"][f"{rnd['ml_code']}@{sigma}"])
                        checks.append(Check("vertex.ml_bound_report", ok, 1, f"sigma {sigma}"))
        return checks


CHECKS = {
    "lp_awgn": LpChecks,
    "ml_codebook_n9": MlChecks,
    "ensemble_n10": EnsembleChecks,
    "vertex_geometry": VertexChecks,
}
