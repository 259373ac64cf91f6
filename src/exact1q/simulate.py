"""Floating-point one-query simulator, used as an independent oracle.

The state lives in the real span of the n+1 query positions (position 0
never acquires a sign). A run prepares amplitudes sqrt(z_i), applies the
input's sign flips, and measures against the projector onto the span of
the post-query states of the 0-inputs; a valid weight vector makes that
span orthogonal to every 1-input state, so the correct answer appears
with probability 1. This module is the only place floats are allowed,
and every comparison against it carries an explicit tolerance. numpy is
imported inside the functions, so `import exact1q` does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import AssignmentMask, PartialBooleanFn, mask_to_string, sign_vector
from .errors import ArityMismatchError, DegenerateSpanError, SchemaError
from .feasibility import WeightVector

if TYPE_CHECKING:
    import numpy as np

NORM_TOL = 1e-12
RANK_TOL = 1e-10
SUCCESS_TOL = 1e-9


def prepare(z: WeightVector) -> np.ndarray:
    """Pre-query amplitudes: sqrt(z0) on position 0, sqrt(z_i) on position i."""
    import numpy as np

    amps = np.array([math.sqrt(z.z0)] + [math.sqrt(v) for v in z.z], dtype=float)
    if abs(float(np.dot(amps, amps)) - 1.0) > NORM_TOL:
        raise SchemaError("weight vector does not normalize")
    return amps


def apply_oracle(state: np.ndarray, x: AssignmentMask, n: int | None = None) -> np.ndarray:
    """Sign-flip amplitudes on positions whose input bit is 1; unitary by construction."""
    import numpy as np

    if n is None:
        n = len(state) - 1
    if len(state) != n + 1:
        raise ArityMismatchError(f"state has {len(state)} amplitudes, expected {n + 1}")
    if not 0 <= x < 1 << n:
        raise ArityMismatchError(f"mask {x} out of range for arity {n}")
    return state * np.array(sign_vector(x, n), dtype=float)


def _orthonormal_basis(columns: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with column pivoting; drops directions whose
    residual norm falls under RANK_TOL (0-input states may be dependent)."""
    import numpy as np

    cols = [columns[:, j].astype(float).copy() for j in range(columns.shape[1])]
    basis: list[np.ndarray] = []
    while cols:
        norms = [float(np.linalg.norm(c)) for c in cols]
        k = max(range(len(cols)), key=lambda j: norms[j])
        if norms[k] < RANK_TOL:
            break
        q = cols.pop(k) / norms[k]
        basis.append(q)
        cols = [c - np.dot(q, c) * q for c in cols]
    return np.array(basis)


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
    import numpy as np

    start = prepare(z)
    zero_states = np.column_stack([apply_oracle(start, a, f.n) for a in f.zeros])
    basis = _orthonormal_basis(zero_states)

    zeros = set(f.zeros)
    per_input: dict[int, tuple[float, float]] = {}
    min_success = 1.0
    for x in f.domain:
        s = apply_oracle(start, x, f.n)
        p0 = float(np.sum(np.dot(basis, s) ** 2)) if len(basis) else 0.0
        p0 = min(max(p0, 0.0), 1.0)
        p1 = 1.0 - p0
        per_input[x] = (p0, p1)
        correct = p0 if x in zeros else p1
        min_success = min(min_success, correct)
    return SimulationReport(f.n, per_input, min_success)
