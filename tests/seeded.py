"""Seeded promise functions at arities 10 and up, for the `decide` tests.

Per arity: two samples of a reachable Hamming level, XOR-translated and
bit-relabelled (feasible), a sample of a two-group weight profile
(feasible), and four random functions with two 0-inputs (mostly
infeasible, both by the equalities alone and by the sign constraints).
"""

import random
from fractions import Fraction

from exact1q import PartialBooleanFn, construct, dj_family, permute_bits, profile


def seeded_functions(arities=(10, 11, 12)):
    rng = random.Random(1021)
    out = []
    for n in arities:
        for _ in range(2):
            level = rng.choice(dj_family(n))
            ones = rng.sample(level.ones, min(len(level.ones), rng.randint(16, 48)))
            t = rng.randrange(1, 1 << n)
            f = PartialBooleanFn(n, ones=[m ^ t for m in ones], zeros=[t])
            out.append(permute_bits(f, rng.sample(range(1, n + 1), n)))
        k = n // 2
        target = (k + 2 * (n - k) + 1) // 2
        f = construct(profile([0, k, n], [Fraction(1, 2 * target), Fraction(2, 2 * target)]))
        ones = rng.sample(f.ones, min(24, len(f.ones)))
        out.append(PartialBooleanFn(n, ones=ones, zeros=f.zeros))
        for _ in range(4):
            cells = rng.sample(range(1 << n), 2 + rng.randint(2, 16))
            out.append(PartialBooleanFn(n, ones=cells[2:], zeros=cells[:2]))
    return out
