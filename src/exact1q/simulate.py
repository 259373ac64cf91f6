"""Floating-point one-query simulator, used as an independent oracle.

The state lives in the real span of the n+1 query positions (position 0
never acquires a sign). A run prepares amplitudes sqrt(z_i), applies the
input's sign flips, and measures against the projector onto the span of
the post-query states of the 0-inputs; a valid weight vector makes that
span orthogonal to every 1-input state, so the correct answer appears
with probability 1. This module is the only place floats are allowed,
and every comparison against it carries an explicit tolerance. States
are tuples of Python floats, and every dot product is `math.fsum` of the
products, which is exactly rounded (Shewchuk 1997, Discrete Comput.
Geom. 18), so a run gives the same floats on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .core import AssignmentMask, PartialBooleanFn, mask_to_string, sign_vector
from .errors import ArityMismatchError, DegenerateSpanError, SchemaError
from .feasibility import WeightVector

NORM_TOL = 1e-12
RANK_TOL = 1e-10
SUCCESS_TOL = 1e-9


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return math.fsum(map(mul, a, b))


def prepare(z: WeightVector) -> tuple[float, ...]:
    """Pre-query amplitudes: sqrt(z0) on position 0, sqrt(z_i) on position i."""
    amps = (math.sqrt(z.z0), *map(math.sqrt, z.z))
    if abs(_dot(amps, amps) - 1.0) > NORM_TOL:
        raise SchemaError("weight vector does not normalize")
    return amps


def apply_oracle(
    state: Sequence[float], x: AssignmentMask, n: int | None = None
) -> tuple[float, ...]:
    """Sign-flip amplitudes on positions whose input bit is 1; unitary by construction."""
    if n is None:
        n = len(state) - 1
    if len(state) != n + 1:
        raise ArityMismatchError(f"state has {len(state)} amplitudes, expected {n + 1}")
    if not 0 <= x < 1 << n:
        raise ArityMismatchError(f"mask {x} out of range for arity {n}")
    return tuple(map(mul, state, sign_vector(x, n)))


def _orthonormal_basis(states: list[tuple[float, ...]]) -> list[tuple[float, ...]]:
    """Modified Gram-Schmidt with column pivoting; drops directions whose
    residual norm falls under RANK_TOL (0-input states may be dependent)."""
    cols = list(states)
    basis = []
    while cols:
        norms = [math.sqrt(_dot(c, c)) for c in cols]
        k = max(range(len(cols)), key=norms.__getitem__)
        if norms[k] < RANK_TOL:
            break
        norm = norms[k]
        q = tuple([v / norm for v in cols.pop(k)])
        basis.append(q)
        residues = []
        for c in cols:
            d = _dot(q, c)
            residues.append(tuple([v - d * u for v, u in zip(c, q)]))
        cols = residues
    return basis


@dataclass(frozen=True)
class SimulationReport:
    n: int
    per_input: dict[AssignmentMask, tuple[float, float]]
    min_success: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "per_input": {
                mask_to_string(m, self.n): {
                    "p0": float(f"{p0:.12g}"),
                    "p1": float(f"{p1:.12g}"),
                }
                for m, (p0, p1) in sorted(self.per_input.items())
            },
            "min_success": float(f"{self.min_success:.12g}"),
        }


def success_probabilities(f: PartialBooleanFn, z: WeightVector) -> SimulationReport:
    """Output distribution of the one-query run on every promised input.

    The two-outcome measurement projects onto the span of the 0-input
    post-query states; min_success is the worst-case probability of the
    correct answer. A non-witness z shows up as min_success < 1, never as
    an error.
    """
    if len(z.z) != f.n:
        raise ArityMismatchError(f"weight vector has {len(z.z)} entries, function has {f.n}")
    if not f.zeros:
        raise DegenerateSpanError("no 0-inputs: the accepting projector is undefined")

    start = prepare(z)
    basis = _orthonormal_basis([apply_oracle(start, a, f.n) for a in f.zeros])

    zeros = set(f.zeros)
    per_input: dict[int, tuple[float, float]] = {}
    min_success = 1.0
    for x in f.domain:
        s = apply_oracle(start, x, f.n)
        p0 = math.fsum([_dot(q, s) ** 2 for q in basis])
        p0 = min(max(p0, 0.0), 1.0)
        p1 = 1.0 - p0
        per_input[x] = (p0, p1)
        correct = p0 if x in zeros else p1
        min_success = min(min_success, correct)
    return SimulationReport(f.n, per_input, min_success)
