#!/usr/bin/env python3
"""Simulated LP block error rates against union bounds for two degree-5 codes.

Compares the derangement code (44 codewords, an integral polytope) with the
code cut out by the single row X11 + X55 = 1 (36 codewords, 294 fractional
vertices).  For each SNR point the script reports the Monte-Carlo LP block
error rate with a 99% confidence half-width next to the LP and ML union
bounds computed for the transmitted codeword.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass

from permlp import (
    CodeSpec,
    ConstraintRow,
    ConstraintSystem,
    Relation,
    build_code,
    derangement,
    enumerate_vertices,
    lp_union_bound,
    ml_union_bound,
    simulate_bler,
)
from permlp.cli import _parse_snr_grid
from permlp.perm import var_index
from permlp.specfile import SpecFileError

Z99 = 2.5758293035489004  # two-sided 99% normal quantile


@dataclass(frozen=True)
class Config:
    snr_db: tuple[float, ...]
    trials: int
    seed: int
    threads: int


def fixed_pair_system() -> ConstraintSystem:
    row = ConstraintRow.make(
        {var_index(1, 1, 5): 1, var_index(5, 5, 5): 1}, Relation.EQ, 1
    )
    return ConstraintSystem(5, (row,))


def run_code(label: str, cs: ConstraintSystem, cfg: Config) -> None:
    spec = CodeSpec(n=cs.n, cs=cs, s=tuple(float(v) for v in range(cs.n)))
    code = build_code(spec)
    vs = enumerate_vertices(cs, cs.n)
    x = code.matrix(0)
    word = tuple(float(v) for v in code.codewords[0])
    records = simulate_bler(
        spec,
        cfg.snr_db,
        cfg.trials,
        seed=cfg.seed,
        decoders=("lp",),
        transmitted=word,
        threads=cfg.threads,
    )
    print(
        f"\n{label}: {len(code)} codewords, "
        f"{len(vs.integral)} integral + {len(vs.fractional)} fractional vertices, "
        f"transmitted word {tuple(int(v) for v in word)}"
    )
    print(f"{'snr_db':>7} {'sigma':>8} {'bler':>9} {'99% hw':>9} {'lp_bound':>9} {'ml_bound':>9}")
    for rec in records:
        p = rec.lp_errors / rec.trials
        hw = Z99 * math.sqrt(p * (1.0 - p) / rec.trials)
        lp_b = min(1.0, lp_union_bound(x, vs, spec.s, rec.sigma))
        ml_b = min(1.0, ml_union_bound(x, code, rec.sigma))
        print(
            f"{rec.snr_db:7.1f} {rec.sigma:8.4f} {p:9.5f} {hw:9.5f} "
            f"{lp_b:9.5f} {ml_b:9.5f}"
        )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--snr", default="0:8:2", help="SNR grid START:STOP:STEP in dB")
    ap.add_argument("--trials", type=int, default=2000, help="trials per SNR point")
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()
    try:
        grid = _parse_snr_grid(args.snr)
    except SpecFileError as exc:
        ap.error(str(exc))
    cfg = Config(snr_db=tuple(grid), trials=args.trials, seed=args.seed, threads=args.threads)
    run_code("derangement code, n=5", derangement(5), cfg)
    run_code("fixed-pair code X11+X55=1, n=5", fixed_pair_system(), cfg)


if __name__ == "__main__":
    main()
