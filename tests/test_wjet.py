"""Jet arithmetic tests: hand oracles, finite differences, and algebraic laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hopf_theta_equation
from lcflat import wjet as wj
from lcflat.wjet import (
    WJet,
    implicit_solve,
    jet_const,
    jet_conj_var,
    jet_var,
    jets_close,
    solve_scalar_root,
)

N_COEFFS_2 = 15  # 1 value + 4 gradient + 10 Hessian entries for n = 2


def random_jet(c):
    """The n = 2 jet with value c[0], gradient c[1:5] and the symmetric
    Hessian whose upper triangle is c[5:15], doubled on the diagonal (so that
    c holds its Taylor coefficients)."""
    upper = np.zeros((4, 4), dtype=complex)
    upper[np.triu_indices(4)] = c[5:]
    return WJet(c[0], c[1:5], upper + upper.T)


def coeff_strategy(scale=2.0):
    part = st.floats(min_value=-scale, max_value=scale, allow_nan=False)
    return st.lists(
        st.tuples(part, part), min_size=N_COEFFS_2, max_size=N_COEFFS_2
    ).map(lambda ps: np.array([complex(re, im) for re, im in ps]))


def jet_strategy():
    return coeff_strategy().map(random_jet)


def real_valued_jet_strategy(shift=5.0):
    # r + conj(r) is real-valued by construction; its constant term 2·Re c₀
    # lies in [−4, 4], so the shift keeps the constant term in [1, 9], away
    # from zero for log/pow/div.
    return jet_strategy().map(lambda j: j + wj.conj(j) + shift)


# -- layout -------------------------------------------------------------------


def test_constructor_checks_the_layout():
    a = WJet(1.0, np.zeros(4), np.zeros((4, 4)))
    assert a.n_vars == 2 and a.grad.shape == (4,) and a.hess.shape == (4, 4)
    assert WJet(0.0, np.zeros(2), np.zeros((2, 2))).n_vars == 1
    for grad, hess in [(np.zeros(3), np.zeros((3, 3))), (np.zeros(4), np.zeros((4, 2))),
                       (np.zeros((2, 2)), np.zeros((4, 4))), (np.zeros(0), np.zeros((0, 0)))]:
        with pytest.raises(ValueError, match="expected a gradient"):
            WJet(0.0, grad, hess)


# -- coordinate jets ----------------------------------------------------------


def test_jet_var_seeds_coordinate():
    j = jet_var(1, 3 + 0j, 2)
    assert j.value == 3
    assert j.grad.tolist() == [1, 0, 0, 0]
    assert not j.hess.any()


def test_jet_var_index_out_of_range():
    with pytest.raises(ValueError):
        jet_var(3, 0.0, 2)
    with pytest.raises(ValueError):
        jet_conj_var(0, 0.0, 2)


def test_conj_of_var_is_conj_var():
    assert jets_close(wj.conj(jet_var(1, 1j, 2)), jet_conj_var(1, -1j, 2))


def test_abs_square_of_coordinate():
    z = jet_var(1, 1.0, 2)
    m = z * wj.conj(z)
    assert m.value == 1
    assert m.hess[0, 2] == m.hess[2, 0] == 1  # d^2/dz dzbar of |z|^2
    assert np.count_nonzero(m.hess) == 2


# -- ring operations ----------------------------------------------------------


def test_mul_times_inverse_is_one():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_jet(rng.normal(size=15) + 1j * rng.normal(size=15))
        assert jets_close(a / a, jet_const(1.0, 2))


def test_div_by_zero_constant_raises():
    a = jet_const(1.0, 2)
    b = jet_var(1, 0.0, 2)  # zero constant term, nonzero linear part
    with pytest.raises(ZeroDivisionError):
        a / b


def test_abs_fourth_power_against_finite_differences():
    # f = (z zbar)^2 = |z|^4 at z = 2
    z = jet_var(1, 2.0, 1)
    f = (z * wj.conj(z)) * (z * wj.conj(z))
    assert f.value == pytest.approx(16.0)

    def val(x, y):
        return abs(complex(x, y)) ** 4

    h = 1e-5
    fx = (val(2 + h, 0) - val(2 - h, 0)) / (2 * h)
    fy = (val(2, h) - val(2, -h)) / (2 * h)
    fd_dz = 0.5 * (fx - 1j * fy)
    assert f.grad[0] == pytest.approx(fd_dz, rel=1e-8)
    assert f.grad[0] == pytest.approx(16.0)


@settings(max_examples=60)
@given(jet_strategy(), jet_strategy())
def test_mul_commutative(a, b):
    assert np.allclose(wj.mul(a, b).data, wj.mul(b, a).data, rtol=0, atol=1e-12)


@settings(max_examples=60)
@given(jet_strategy(), jet_strategy(), jet_strategy())
def test_mul_associative(a, b, c):
    lhs = wj.mul(wj.mul(a, b), c)
    rhs = wj.mul(a, wj.mul(b, c))
    assert jets_close(lhs, rhs, 1e-13)


@settings(max_examples=60)
@given(jet_strategy(), jet_strategy())
def test_product_rule_exact_at_coefficient_level(a, b):
    # A derivative jet holds no third derivatives, so compare value and gradient.
    ab = a * b
    for i in (1, 2):
        lhs = wj.d_dz(ab, i)
        rhs = wj.d_dz(a, i) * b + a * wj.d_dz(b, i)
        got, want = np.r_[lhs.value, lhs.grad], np.r_[rhs.value, rhs.grad]
        scale = max(1.0, np.abs(got).max(), np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-13 * scale, f"product rule fails for d/dz^{i}"


@settings(max_examples=60)
@given(jet_strategy())
def test_conj_involution(a):
    assert jets_close(wj.conj(wj.conj(a)), a, 1e-15)


@settings(max_examples=60)
@given(jet_strategy(), jet_strategy())
def test_conj_multiplicative(a, b):
    assert jets_close(wj.conj(a * b), wj.conj(a) * wj.conj(b), 1e-13)


# -- scalar composition -------------------------------------------------------


@settings(max_examples=40)
@given(real_valued_jet_strategy())
def test_log_exp_round_trip(a):
    assert jets_close(wj.log(wj.exp(a)), a, 1e-14)


@settings(max_examples=40)
@given(real_valued_jet_strategy())
def test_pow_one_is_identity(a):
    assert jets_close(wj.pow_real(a, 1.0), a, 1e-14)


def test_pow_matches_scalar_evaluation():
    z, w = jet_var(1, 1.0, 2), jet_var(2, 1.0, 2)
    r2 = z * wj.conj(z) + w * wj.conj(w)
    assert wj.pow_real(r2, -1.0).value == pytest.approx(0.5)


def test_pow_chain_rule_against_fd():
    # g = (1 + |z|^2)^(-1.3) at z = 0.7 + 0.2i, n = 1
    z0 = 0.7 + 0.2j
    z = jet_var(1, z0, 1)
    g = wj.pow_real(1.0 + z * wj.conj(z), -1.3)

    def val(x, y):
        return (1 + abs(complex(x, y)) ** 2) ** (-1.3)

    h = 1e-5
    x0, y0 = z0.real, z0.imag
    fx = (val(x0 + h, y0) - val(x0 - h, y0)) / (2 * h)
    fy = (val(x0, y0 + h) - val(x0, y0 - h)) / (2 * h)
    assert g.grad[0] == pytest.approx(0.5 * (fx - 1j * fy), rel=1e-8)
    mixed_fd = (
        val(x0 + h, y0 + h) - val(x0 + h, y0 - h) - val(x0 - h, y0 + h) + val(x0 - h, y0 - h)
    ) / (4 * h * h)
    # d/dx = d/dz + d/dzbar and d/dy = i(d/dz - d/dzbar), so the cross terms
    # cancel and d^2/dxdy = i(d^2/dz^2 - d^2/dzbar^2).
    dzdz = g.hess[0, 0]
    dzbdzb = g.hess[1, 1]
    jet_mixed = (1j * (dzdz - dzbdzb)).real
    assert jet_mixed == pytest.approx(mixed_fd, rel=1e-5, abs=1e-6)


def test_log_of_zero_constant_raises():
    with pytest.raises(ValueError):
        wj.log(jet_var(1, 0.0, 2))
    with pytest.raises(ValueError):
        wj.pow_real(jet_var(1, 0.0, 2), 0.5)


def test_log_is_taken_on_the_relative_jet():
    # log(c·a) = log c + log a: a tiny c changes only the value, where forming
    # 1/c² would overflow at c = 1e-200.
    z = jet_var(1, 0.3 + 0.1j, 2)
    a = 1.0 + z * wj.conj(z)
    tiny = wj.log(1e-200 * a)
    assert tiny.value == pytest.approx(math.log(1e-200) + wj.log(a).value)
    assert np.allclose(tiny.grad, wj.log(a).grad, rtol=1e-14, atol=0)
    assert np.allclose(tiny.hess, wj.log(a).hess, rtol=1e-14, atol=0)
    with pytest.raises(ValueError, match="log is outside the floating-point range"):
        wj.log(jet_var(1, 1e-310, 2))  # d log z/dz = 1/z overflows


# -- grading -------------------------------------------------------------------


def test_low_order_garbage_does_not_contaminate():
    # The degree-<=1 part of a product must not depend on degree-2 inputs.
    rng = np.random.default_rng(4)
    a = random_jet(rng.normal(size=15))
    b = random_jet(rng.normal(size=15))
    g = rng.normal(size=(4, 4)) * 1e3
    a_garbage = WJet(a.value, a.grad, g + g.T)
    prod_full = a * b
    prod_garbage = a_garbage * b
    assert prod_full.value == prod_garbage.value
    assert np.array_equal(prod_full.grad, prod_garbage.grad)


# -- partial-derivative arrays ------------------------------------------------


@given(jet_strategy())
@settings(max_examples=25, deadline=None)
def test_partials_match_per_slot_derivatives(a):
    """Gradient and Hessian slots agree with d_dz/d_dzbar applied one slot at a time."""
    n = a.n_vars
    dirs = [lambda f, k=k: wj.d_dz(f, k) for k in range(1, n + 1)]
    dirs += [lambda f, k=k: wj.d_dzbar(f, k) for k in range(1, n + 1)]
    value, grad, hess = wj.partials(a)
    assert value == a.value
    for s, ds in enumerate(dirs):
        assert grad[s] == ds(a).value
        for t, dt in enumerate(dirs):
            assert hess[s, t] == dt(ds(a)).value


def test_partials_stack_over_leading_axes():
    z, zb = jet_var(1, 0.3 + 0.1j, 2), jet_conj_var(2, 0.2 - 0.5j, 2)
    jets = [[z * zb, z * z], [jet_const(2.0, 2), zb]]
    value, grad, hess = wj.partials(jets)
    assert value.shape == (2, 2) and grad.shape == (2, 2, 4) and hess.shape == (2, 2, 4, 4)
    assert hess[0, 1, 0, 0] == 2.0  # d²(z¹)²/(dz¹)², factorial restored
    assert hess[0, 0, 0, 3] == hess[0, 0, 3, 0] == 1.0
    assert grad[1, 1].tolist() == [0, 0, 0, 1]
    assert np.all(grad[1, 0] == 0) and value[1, 0] == 2.0


# -- real-valued predicate ----------------------------------------------------


@settings(max_examples=40)
@given(real_valued_jet_strategy(), real_valued_jet_strategy())
def test_real_ops_preserve_real_valued(a, b):
    assert wj.is_real_valued(a * b)
    assert wj.is_real_valued(a + b)
    assert wj.is_real_valued(wj.exp(a))
    assert wj.is_real_valued(a / b)


def test_real_valued_predicate_rejects():
    assert not wj.is_real_valued(jet_var(1, 1.0, 2))


# -- implicit solver ----------------------------------------------------------


def bisect(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_implicit_solve_equal_multipliers_recovers_log():
    # k1 = k2 = k: the scale function degenerates to |z|^2 + |w|^2.
    k = 1.0
    theta = implicit_solve(hopf_theta_equation(1.0, 1.0, k, k), 0.0, 1e-14, 2)
    phi = wj.exp(theta * (2 * k / (2 * math.pi)))
    assert phi.value == pytest.approx(2.0, abs=1e-12)
    z, w = jet_var(1, 1.0, 2), jet_var(2, 1.0, 2)
    expected = z * wj.conj(z) + w * wj.conj(w)
    assert jets_close(phi, expected, 1e-12)


def test_implicit_solve_unit_circle_point():
    theta = implicit_solve(hopf_theta_equation(1.0, 0.0, 2.0, 1.0), 0.0, 1e-14, 2)
    phi = wj.exp(theta * (3.0 / (2 * math.pi)))
    assert phi.value == pytest.approx(1.0, abs=1e-12)


def test_implicit_solve_against_bisection_oracle():
    k1, k2 = 2 * math.pi, math.pi
    theta = implicit_solve(hopf_theta_equation(1.0, 1.0, k1, k2), 0.0, 1e-14, 2)

    def f(t):
        return math.exp(-k1 * t / math.pi) + math.exp(-k2 * t / math.pi) - 1.0

    oracle = bisect(f, -10.0, 10.0)
    assert theta.value.real == pytest.approx(oracle, abs=1e-12)
    assert wj.is_real_valued(theta)


def test_implicit_solve_derivatives_against_fd_oracle():
    k1, k2 = 1.7, 1.1
    z0, w0 = 0.9 + 0.3j, -0.4 + 1.1j
    theta = implicit_solve(hopf_theta_equation(z0, w0, k1, k2), 0.0, 1e-14, 2)

    def theta_val(zv, wv):
        def g(t):
            return (
                abs(zv) ** 2 * math.exp(-k1 * t / math.pi)
                + abs(wv) ** 2 * math.exp(-k2 * t / math.pi)
                - 1.0
            )

        return bisect(g, -60.0, 60.0)

    h = 1e-5
    fd_x1 = (theta_val(z0 + h, w0) - theta_val(z0 - h, w0)) / (2 * h)
    jet_x1 = (theta.grad[0] + theta.grad[2]).real
    assert jet_x1 == pytest.approx(fd_x1, rel=1e-8)

    fd_y2 = (theta_val(z0, w0 + 1j * h) - theta_val(z0, w0 - 1j * h)) / (2 * h)
    jet_y2 = (1j * theta.grad[1] - 1j * theta.grad[3]).real
    assert jet_y2 == pytest.approx(fd_y2, rel=1e-8)

    fd_x1x2 = (
        theta_val(z0 + h, w0 + h)
        - theta_val(z0 + h, w0 - h)
        - theta_val(z0 - h, w0 + h)
        + theta_val(z0 - h, w0 - h)
    ) / (4 * h * h)
    dx1 = wj.d_dz(theta, 1) + wj.d_dzbar(theta, 1)
    jet_x1x2 = (wj.d_dz(dx1, 2) + wj.d_dzbar(dx1, 2)).value.real
    assert jet_x1x2 == pytest.approx(fd_x1x2, rel=2e-5, abs=1e-7)


def test_implicit_solve_no_root_raises():
    def F(theta):
        return 1.0 / (1.0 + theta * theta) + 1.0  # always > 1, no real root

    with pytest.raises(ValueError):
        implicit_solve(F, 0.0, 1e-12, 2)


def test_implicit_solve_vanishing_slope_raises():
    def F(theta):
        return theta * theta * theta  # root at 0 with zero slope

    with pytest.raises(ValueError):
        implicit_solve(F, 0.5, 1e-14, 2)


def test_solve_scalar_root_simple():
    r = solve_scalar_root(lambda t: t * t - 2.0, 1.0, 1e-14)
    assert r == pytest.approx(math.sqrt(2), abs=1e-12)


# -- equality tolerance -------------------------------------------------------


def test_jets_close_scales_with_magnitude():
    big = jet_const(1e8, 2)
    assert jets_close(big, big + 1e-6)  # 1e-6 is far below 1e-12 * 1e8
    assert not jets_close(jet_const(1.0, 2), jet_const(1.0 + 1e-9, 2))
