"""The tests' jet arithmetic against hand derivatives, and the library's jets
against the finite-difference oracle."""

import math

import numpy as np
import pytest

from prodgeo import (
    DomainError, Jet2, SpecError, evaluate_jet, finite_difference_oracle,
)
import gates
from jets import Jet, lift_variable
from conftest import (
    make_rng, random_acms, random_cobb_douglas, random_point,
    random_quasi_sum_expr, random_ratio_expr,
)


def test_jets_are_validated_records():
    jet = Jet2(2, [1, 0], [[0, 1], [1, 0]])
    assert (jet.value, jet.n) == (2.0, 2)
    assert jet.gradient.dtype == jet.hessian.dtype == np.float64
    with pytest.raises(ValueError):
        Jet2(0.0, [1.0, 0.0], np.zeros((3, 3)))
    with pytest.raises(ValueError):
        Jet2(0.0, np.zeros((2, 2)), np.zeros((2, 2)))


def test_lift_variable_seeds_one_coordinate():
    jet = lift_variable(1, 3.0, 3)
    assert jet.value == 3.0
    assert jet.gradient.tolist() == [0.0, 1.0, 0.0]
    assert not jet.hessian.any()


def test_lift_variable_rejects_bad_requests():
    with pytest.raises(TypeError):
        lift_variable(0.5, 1.0, 2)
    with pytest.raises(IndexError):
        lift_variable(2, 1.0, 2)
    with pytest.raises(ValueError):
        lift_variable(0, 1.0, 0)
    with pytest.raises(DomainError):
        lift_variable(0, -1.0, 2)
    with pytest.raises(DomainError):
        lift_variable(0, 0.0, 2)


def test_product_rule_hand_case():
    # f = x0^2 * x1 at (3, 5): grad (30, 9), Hessian [[10, 6], [6, 0]].
    x0 = lift_variable(0, 3.0, 2)
    x1 = lift_variable(1, 5.0, 2)
    jet = (x0 ** 2) * x1
    assert jet.value == 45.0
    assert jet.gradient.tolist() == [30.0, 9.0]
    assert jet.hessian.tolist() == [[10.0, 6.0], [6.0, 0.0]]


def test_sum_and_scalar_operations():
    x0 = lift_variable(0, 2.0, 2)
    x1 = lift_variable(1, 4.0, 2)
    jet = 3.0 * x0 - x1 + 1.0
    assert jet.value == 3.0
    assert jet.gradient.tolist() == [3.0, -1.0]
    assert not jet.hessian.any()
    flipped = 1.0 - x0
    assert flipped.value == -1.0
    assert flipped.gradient.tolist() == [-1.0, 0.0]


def test_dimension_mismatch_is_rejected():
    with pytest.raises(ValueError):
        lift_variable(0, 1.0, 2) + lift_variable(0, 1.0, 3)


def test_power_shortcuts():
    x0 = lift_variable(0, 3.0, 2)
    one = x0 ** 0
    assert one.value == 1.0 and not one.gradient.any()
    same = x0 ** 1
    assert same.value == x0.value
    assert same.gradient.tolist() == x0.gradient.tolist()


def test_power_domain_guards():
    zero = Jet.constant(0.0, 2)
    assert (zero ** 3).value == 0.0
    with pytest.raises(DomainError):
        zero ** -2
    with pytest.raises(DomainError):
        zero ** 0.5
    with pytest.raises(DomainError):
        Jet.constant(-1.0, 2).log()
    with pytest.raises(DomainError):
        Jet.constant(-1.0, 2) ** 1.5


def test_log_and_exp_derivatives():
    x0 = lift_variable(0, 2.0, 1)
    lg = x0.log()
    assert lg.value == math.log(2.0)
    assert lg.gradient[0] == 0.5
    assert lg.hessian[0, 0] == -0.25
    ex = x0.exp()
    e2 = math.exp(2.0)
    assert ex.value == e2
    assert ex.gradient[0] == e2
    assert ex.hessian[0, 0] == e2


def test_exp_of_log_recovers_identity_jet():
    x0 = lift_variable(0, 1.7, 2)
    jet = x0.log().exp()
    assert jet.value == pytest.approx(1.7, rel=1e-15)
    assert jet.gradient[0] == pytest.approx(1.0, rel=1e-14)
    assert abs(jet.hessian[0, 0]) <= 1e-15


def _random_exprs(rng, count):
    out = []
    for k in range(count):
        n = 2 + k % 3
        kind = k % 4
        if kind == 0:
            out.append(random_cobb_douglas(rng, n))
        elif kind == 1:
            out.append(random_acms(rng, n))
        elif kind == 2:
            out.append(random_quasi_sum_expr(rng, n))
        else:
            out.append(random_ratio_expr(rng))
    return out


def test_hessian_is_bitwise_symmetric():
    rng = make_rng(101)
    for expr in _random_exprs(rng, 40):
        jet = evaluate_jet(expr, random_point(rng, expr.n))
        assert np.array_equal(jet.hessian, jet.hessian.T)


def test_jet_value_matches_plain_evaluation():
    # expr.value never touches the jet arithmetic, so agreement is a real
    # cross-check rather than a tautology.
    rng = make_rng(102)
    for expr in _random_exprs(rng, 40):
        x = random_point(rng, expr.n)
        jet = evaluate_jet(expr, x)
        plain = expr.value(x)
        assert jet.value == pytest.approx(
            plain, rel=gates.JET_VALUE_ARITHMETIC_RTOL)


def test_finite_difference_oracle_agrees_on_hand_instance():
    rng = make_rng(103)
    expr = random_acms(rng, 3, d=1.3, rho=0.5)
    x = np.array([0.8, 1.1, 1.6])
    jet = evaluate_jet(expr, x)
    fd = finite_difference_oracle(expr, x)
    grad_scale = max(1.0, float(np.max(np.abs(jet.gradient))))
    assert np.max(np.abs(jet.gradient - fd.gradient)) <= \
        gates.GRADIENT_FD_RTOL * grad_scale
    hess_scale = max(1.0, float(np.max(np.abs(jet.hessian))))
    assert np.max(np.abs(jet.hessian - fd.hessian)) <= \
        gates.HESSIAN_FD_SCALED_TOL * hess_scale


def test_finite_difference_oracle_guards_the_orthant():
    rng = make_rng(104)
    expr = random_cobb_douglas(rng, 2)
    with pytest.raises(DomainError):
        finite_difference_oracle(expr, [1e-6, 1.0])


def test_point_arity_is_checked():
    rng = make_rng(105)
    expr = random_cobb_douglas(rng, 2)
    with pytest.raises(SpecError):
        expr.jet([1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        expr.jet([1.0, -2.0])
