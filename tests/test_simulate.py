import math
from fractions import Fraction as F
from operator import mul

import pytest

from exact1q.core import PartialBooleanFn, from_strings, sign_vector
from exact1q.errors import ArityMismatchError, DegenerateSpanError
from exact1q.feasibility import WeightVector, decide, decide_reduced
from exact1q.reduction import ReducedFn
from exact1q.simulate import _orthonormal_basis, apply_oracle, prepare, success_probabilities

ROOT_HALF = math.sqrt(0.5)


def close(expected):
    # the allclose default tolerances; approx bounds the error by the larger
    # of the two rather than their sum, so no comparison is looser
    return pytest.approx(expected, rel=1e-5, abs=1e-8)


def test_prepare():
    s = prepare(WeightVector((F(1, 2), F(1, 2))))
    assert s == close((0.0, ROOT_HALF, ROOT_HALF))
    assert type(s) is tuple and all(type(v) is float for v in s)

    s = prepare(WeightVector((F(1, 4),) * 4))
    assert s == close((0.0, 0.5, 0.5, 0.5, 0.5))

    s = prepare(WeightVector((F(0), F(0))))
    assert s == close((1.0, 0.0, 0.0))


def test_apply_oracle():
    s = prepare(WeightVector((F(1, 2), F(1, 2))))
    assert apply_oracle(s, 0b00) == close(s)

    flipped = apply_oracle(s, 0b10)
    assert flipped == close((0.0, -ROOT_HALF, ROOT_HALF))
    assert type(flipped) is tuple and all(type(v) is float for v in flipped)

    assert apply_oracle(flipped, 0b10) == close(s)  # involution
    assert math.isclose(math.hypot(*flipped), 1.0, abs_tol=1e-15)

    with pytest.raises(ArityMismatchError, match="out of range"):
        apply_oracle(s, 0b100)
    with pytest.raises(ArityMismatchError, match="3 amplitudes, expected 4"):
        apply_oracle(s, 0b001, 3)


def test_success_on_deutsch_function():
    f = from_strings(2, ones=["01", "10"], zeros=["00", "11"])
    report = success_probabilities(f, WeightVector((F(1, 2), F(1, 2))))
    assert report.min_success >= 1 - 1e-9
    for mask, (p0, p1) in report.per_input.items():
        assert math.isclose(p0 + p1, 1.0, abs_tol=1e-9)


def test_success_on_four_bit_star_support():
    support = ReducedFn(4, [0b1100, 0b1010, 0b1001, 0b0111])
    res = decide_reduced(support)
    f = support.as_function()
    report = success_probabilities(f, res.witness)
    assert report.min_success >= 1 - 1e-9


def test_non_witness_weights_fail_loudly_but_cleanly():
    # infeasible support: every legal weight vector leaves some input wrong
    f = ReducedFn(3, [0b001, 0b010, 0b111]).as_function()
    report = success_probabilities(f, WeightVector((F(1, 3), F(1, 3), F(1, 3))))
    assert report.min_success < 1 - 1e-6


def test_no_weight_grid_point_rescues_infeasible_support():
    # sampling is a sanity check, not a proof (the proof is the certificate):
    # across 10^4 random rational weight vectors none gets close to exact
    import random

    f = ReducedFn(3, [0b001, 0b010, 0b111]).as_function()
    rnd = random.Random(99)
    best = 0.0
    for _ in range(10_000):
        raw = [F(rnd.randrange(0, 13), 12) for _ in range(3)]
        total = sum(raw)
        if total > 1:
            raw = [v / total for v in raw]
        report = success_probabilities(f, WeightVector(tuple(raw)))
        best = max(best, report.min_success)
    assert best < 1 - 1e-6


def test_no_zero_inputs_is_degenerate():
    f = PartialBooleanFn(2, ones=[1, 2])
    with pytest.raises(DegenerateSpanError):
        success_probabilities(f, WeightVector((F(1, 2), F(1, 2))))


def test_inner_products_match_exact_sign_sums():
    # float <s(a), s(x)> against the exact signed weight sum for a shared witness
    f = from_strings(2, ones=["01", "10"], zeros=["00", "11"])
    w = decide(f).witness
    start = prepare(w)
    full = (w.z0,) + w.z
    for a in f.zeros:
        sa = apply_oracle(start, a, f.n)
        for x in f.domain:
            sx = apply_oracle(start, x, f.n)
            exact = sum(s * v for s, v in zip(sign_vector(a ^ x, f.n), full))
            assert abs(math.fsum(map(mul, sa, sx)) - float(exact)) < 1e-9


def test_dependent_zero_states_are_handled():
    # both 0-inputs map to opposite states; the projector span is 1-dim
    f = from_strings(2, ones=["01", "10"], zeros=["00", "11"])
    report = success_probabilities(f, WeightVector((F(1, 2), F(1, 2))))
    assert report.min_success >= 1 - 1e-9


def test_basis_pivots_past_a_near_duplicate_state():
    # a2 is within 1e-11 of a, and c is independent of both. Taking the
    # states in order, a2's residual after a is under RANK_TOL, so an
    # unpivoted loop stops there and drops c; pivoting takes c first
    a, a2, c = (1.0, 0.0, 0.0), (1.0, 1e-11, 0.0), (0.6, 0.0, 0.8)
    basis = _orthonormal_basis([a, a2, c])
    assert len(basis) == 2
    for i, q in enumerate(basis):
        assert [math.fsum(map(mul, q, r)) for r in basis] == close([float(i == j) for j in range(2)])
    # c lies in the span: its projection keeps its whole norm
    assert math.fsum(math.fsum(map(mul, q, c)) ** 2 for q in basis) == close(1.0)


def test_report_serialization_digits():
    f = ReducedFn(2, [0b01]).as_function()
    report = success_probabilities(f, WeightVector((F(0), F(1, 2))))
    data = report.to_json_dict()
    assert data["per_input"]["01"]["p1"] == 1.0
    assert set(data) == {"n", "per_input", "min_success"}
