#!/usr/bin/env python3
"""Pure-involution codes by degree: rate, distance, and polytope shape.

For each even degree the script reports the number of encodable messages
(the closed form (n-1)(n-3)...1), the brute-force code size, the minimum
Hamming distance, and — up to the vertex-enumeration budget — how many
integral and fractional vertices the relaxation has.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from permlp import (
    CodeSpec,
    build_code,
    dec_map,
    enc_map,
    enumerate_vertices,
    message_count,
    message_digits,
    min_hamming_distance,
    pure_involution,
)


@dataclass(frozen=True)
class Config:
    max_n: int
    vertex_max_n: int


def run(cfg: Config) -> None:
    print(f"{'n':>3} {'messages':>9} {'codewords':>10} {'min_hamming':>12} "
          f"{'integral':>9} {'fractional':>11}")
    for n in range(2, cfg.max_n + 1, 2):
        cs = pure_involution(n)
        spec = CodeSpec(n=n, cs=cs, s=tuple(float(v) for v in range(n)))
        code = build_code(spec)
        count = message_count(n)
        assert len(code) == count  # encoder range equals the brute-force code
        dmin = min_hamming_distance(code) if len(code) > 1 else float("nan")
        if n <= cfg.vertex_max_n:
            vs = enumerate_vertices(cs, n)
            integral, fractional = str(len(vs.integral)), str(len(vs.fractional))
        else:
            integral = fractional = "-"
        print(f"{n:3d} {count:9d} {len(code):10d} {str(dmin):>12} "
              f"{integral:>9} {fractional:>11}")

    # One worked encode/decode round trip with its digit decomposition.
    n = 6
    m = 5
    digits = message_digits(m, n)
    x = enc_map(m, n)
    print(f"\nexample: n={n}, message {m} -> digits {digits} -> "
          f"column-to-row map {x.perm} -> message {dec_map(x)}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=8, help="largest (even) degree")
    ap.add_argument(
        "--vertex-max-n", type=int, default=8,
        help="largest degree for exact vertex enumeration",
    )
    args = ap.parse_args()
    run(Config(max_n=args.max_n, vertex_max_n=args.vertex_max_n))


if __name__ == "__main__":
    main()
