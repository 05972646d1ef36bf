"""Transfer-function core: spec examples, invariants, and oracles."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp
from hypothesis import given, settings
from hypothesis import strategies as st

from nyqscale.errors import (
    AmbiguousMirrorError,
    BoundaryAmbiguityError,
    InvalidInputError,
    PoleHitError,
    RhpCancellationError,
    UnsupportedStructureError,
)
from nyqscale.lti import (
    PADE_ORDER,
    Polynomial,
    TransferFunction,
    jw_axis_poles,
    mp_mirror,
    pade_delay,
    poly_roots,
    rhp_poles_in_region,
    tf_evaluate,
)

TF = TransferFunction


def sorted_c(values):
    return sorted(values, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


# ---------------------------------------------------------------- polynomial
def test_polynomial_trims_trailing_zeros():
    p = Polynomial([1.0, 2.0, 0.0, 0.0])
    assert p.coefficients == (1.0, 2.0)
    assert p.degree == 1
    z = Polynomial([0.0, 0.0])
    assert z.is_zero and z.degree == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_polynomial_sum_and_product_equal_numpy_polynomial_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    # fixed pairs first: a sum trimmed by one degree, one that cancels to
    # zero, and a product with zero
    pairs = [([1.0, 2.0, 3.0], [4.0, 5.0, -3.0]), ([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]),
             ([1.0, 2.0, 3.0], [0.0])]
    for _ in range(200):
        p = rng.normal(size=int(rng.integers(1, 8))) * rng.uniform(0.1, 10.0)
        q = rng.normal(size=int(rng.integers(1, 8))) * rng.uniform(0.1, 10.0)
        if rng.random() < 0.3:  # the top coefficients cancel: a trimmed sum
            n = int(rng.integers(1, len(p) + 1))
            q = np.concatenate([rng.normal(size=len(p) - n), -p[len(p) - n:]])
        pairs.append((p, q))
    for p, q in pairs:
        P, Q = Polynomial(p), Polynomial(q)
        for got, ref in ((P + Q, npp.polyadd(P.as_array(), Q.as_array())),
                         (Q + P, npp.polyadd(Q.as_array(), P.as_array())),
                         (P * Q, npp.polymul(P.as_array(), Q.as_array()))):
            want = Polynomial(ref).as_array()
            assert np.array_equal(got.as_array().view(np.int64), want.view(np.int64))
    assert (Polynomial(pairs[0][0]) + Polynomial(pairs[0][1])).coefficients == (5.0, 7.0)


def test_poly_roots_factored_fdes_denominator():
    # (2s+1)(17s+1) expanded: 34 s^2 + 19 s + 1
    roots = sorted_c(poly_roots(Polynomial([1.0, 19.0, 34.0])))
    assert np.allclose(roots, [-0.5, -1.0 / 17.0]) or np.allclose(
        roots, [-1.0 / 17.0, -0.5]
    )


def test_poly_roots_symmetric_pair():
    roots = sorted_c(poly_roots(Polynomial([1.0, 0.0, 1.0])))
    assert np.allclose(roots, [-1j, 1j])


def test_poly_roots_cubic_against_substitution_oracle():
    # s^3 - 6 s^2 + 11 s - 6; oracle: substitute each claimed root
    p = Polynomial([-6.0, 11.0, -6.0, 1.0])
    roots = poly_roots(p)
    assert sorted(round(r.real, 8) for r in roots) == [1.0, 2.0, 3.0]
    for r in roots:
        assert abs(p(r)) <= 1e-8 * max(abs(c) for c in p.coefficients) * max(
            1.0, abs(r)
        ) ** p.degree


def test_poly_roots_zero_polynomial_rejected():
    with pytest.raises(InvalidInputError):
        poly_roots(Polynomial([0.0]))


def test_poly_roots_residual_contract_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        deg = rng.integers(1, 13)
        roots = rng.uniform(-5, 5, deg) + 1j * rng.uniform(-5, 5, deg)
        coeffs = np.polynomial.polynomial.polyfromroots(roots)
        # make a real polynomial out of conjugate-closed set instead
        roots = np.concatenate([roots[: deg // 2], np.conj(roots[: deg // 2])])
        if deg % 2:
            roots = np.append(roots, rng.uniform(-5, 5))
        coeffs = np.polynomial.polynomial.polyfromroots(roots).real
        p = Polynomial(coeffs)
        got = np.array(poly_roots(p))
        assert len(got) == p.degree
        res = np.abs(p(got))
        assert np.all(res <= 1e-8 * p.residual_scale(got) + 1e-12)


# ---------------------------------------------------------------- evaluation
def test_tf_evaluate_fdes_dc_gain():
    fdes = TF([3100.0, 3100.0 * 6.5], [1.0, 19.0, 34.0])
    assert tf_evaluate(fdes, 0.0) == pytest.approx(3100.0)


def test_tf_evaluate_pure_delay_quarter_period():
    g = TF([1.0], [1.0], delay_s=0.1)
    val = tf_evaluate(g, 1j * math.pi / (2 * 0.1))
    assert val == pytest.approx(-1j, abs=1e-12)


def test_tf_evaluate_hydro_dc_is_one():
    # 2(z-s)/((s+2z)(s*Ty+1)) at s=0 -> 2z/2z = 1, Table II row 1 parameters
    z = 1.0 / (0.8 * 0.7)
    g = TF([2 * z, -2.0], np.polynomial.polynomial.polymul([2 * z, 1.0], [1.0, 0.2]))
    assert tf_evaluate(g, 0.0) == pytest.approx(1.0)


def test_tf_evaluate_pole_hit_carries_point():
    g = TF([1.0], [0.0, 1.0])
    with pytest.raises(PoleHitError) as err:
        tf_evaluate(g, 0.0)
    assert err.value.s == 0.0


def test_delay_exactness_matches_rational_times_exponential():
    g = TF([1.0, 2.0], [1.0, 3.0, 1.0], delay_s=0.25)
    bare = TF([1.0, 2.0], [1.0, 3.0, 1.0])
    s = np.array([0.3j, 1.0 + 2.0j, 5.0j, 0.01])
    assert np.allclose(g(s), bare(s) * np.exp(-s * 0.25), rtol=0, atol=1e-15)


# ---------------------------------------------------------------- combine
def test_combine_series():
    g = TF([1.0], [1.0, 1.0], delay_s=0.25) * TF([1.0], [2.0, 1.0], delay_s=0.5)
    assert g.den.coefficients == (2.0, 3.0, 1.0)
    assert g.num.coefficients == (1.0,)
    assert g.delay_s == 0.75


def test_combine_parallel_equal_dens():
    g = TF([1.0], [1.0, 1.0]) + TF([1.0], [1.0, 1.0])
    # 2(s+1)/(s+1)^2; exact composition, no simplification
    assert g.num.coefficients == (2.0, 2.0)
    assert g.den.coefficients == (1.0, 2.0, 1.0)


def test_combine_parallel_unequal_delays_rejected():
    a = TF([1.0], [1.0, 1.0], delay_s=0.1)
    b = TF([1.0], [1.0, 1.0])
    with pytest.raises(UnsupportedStructureError):
        a + b


def test_rational_substitutes_pade_for_the_delay():
    bare = TF([1.0, 2.0], [1.0, 3.0, 1.0])
    assert bare.rational(3) is bare
    assert bare.rational() is bare
    g = TF([1.0, 2.0], [1.0, 3.0, 1.0], delay_s=0.25)
    assert g.rational().den.coefficients == (bare * pade_delay(0.25, PADE_ORDER)).den.coefficients
    for q in range(1, 6):
        r = g.rational(q)
        want = bare * pade_delay(0.25, q)
        assert r.delay_s == 0.0
        assert r.num.coefficients == want.num.coefficients
        assert r.den.coefficients == want.den.coefficients


# ---------------------------------------------------------------- mp mirror
def test_mp_mirror_hydro_numerator():
    # 2(z-s)/((s+2z)(0.2 s+1)) with z from Table II row 1
    z = 1.0 / (0.8 * 0.7)
    den = np.polynomial.polynomial.polymul([2 * z, 1.0], [1.0, 0.2])
    g = TF([2 * z, -2.0], den)
    m = mp_mirror(g)
    assert np.allclose(m.num.as_array(), [2 * z, 2.0])
    assert m.den is g.den or np.allclose(m.den.as_array(), g.den.as_array())
    for w in (0.1, 1.0, 10.0):
        assert abs(abs(m(1j * w)) - abs(g(1j * w))) <= 1e-10 * abs(g(1j * w))


def test_mp_mirror_identity_when_already_mp():
    g = TF([1.0, 1.0], [2.0, 1.0])
    assert mp_mirror(g) is g


def test_mp_mirror_single_real_zero():
    g = TF([-1.0, 1.0], [2.0, 1.0])  # (s-1)/(s+2)
    m = mp_mirror(g)
    assert np.allclose(m.num.as_array(), [1.0, 1.0])


def test_mp_mirror_axis_zero_rejected():
    g = TF([0.0, 1.0], [1.0, 1.0])  # zero at origin
    with pytest.raises(AmbiguousMirrorError):
        mp_mirror(g)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 50.0))
def test_mp_mirror_magnitude_identity_property(omega):
    z = 1.0 / (0.8 * 1.4)
    den = np.polynomial.polynomial.polymul([2 * z, 1.0], [1.0, 0.2])
    g = TF([2 * z, -2.0], den)
    m = mp_mirror(g)
    ref = abs(g(1j * omega))
    assert abs(abs(m(1j * omega)) - ref) <= 1e-10 * ref


def test_mp_mirror_magnitude_identity_log_grid():
    # spec invariant: 1e-10 relative over 100 log-spaced omegas
    rng = np.geomspace(1e-2, 1e3, 100)
    g = TF(
        np.polynomial.polynomial.polyfromroots([2.0, -3.0, 1.5 + 2j, 1.5 - 2j]).real,
        np.polynomial.polynomial.polyfromroots([-1.0, -4.0, -2 + 1j, -2 - 1j]).real,
    )
    m = mp_mirror(g)
    vals_g = np.abs(g(1j * rng))
    vals_m = np.abs(m(1j * rng))
    assert np.all(np.abs(vals_m - vals_g) <= 1e-10 * vals_g)
    assert all(z.real <= 0 for z in m.zeros)


# ---------------------------------------------------------------- pade
def test_pade_zero_tau_is_unity():
    for order in (1, 2, 3, 4, 5):
        g = pade_delay(0.0, order)
        assert g.num.coefficients == (1.0,) and g.den.coefficients == (1.0,)


def test_pade_first_order_textbook():
    g = pade_delay(0.4, 1)
    assert np.allclose(g.num.as_array(), [1.0, -0.2])
    assert np.allclose(g.den.as_array(), [1.0, 0.2])


def test_pade_third_order_phase_accuracy():
    # derived oracle: compare against the exact exponential at omega = 10
    g = pade_delay(0.1, 3)
    got = np.angle(g(10j))
    assert abs(got - (-1.0)) < 0.01
    assert abs(abs(g(10j)) - 1.0) < 1e-12  # all-pass
    assert g(0.0) == pytest.approx(1.0)


def test_pade_order_validation():
    with pytest.raises(InvalidInputError):
        pade_delay(0.1, 0)
    with pytest.raises(InvalidInputError):
        pade_delay(-1.0, 2)


# ---------------------------------------------------------------- pole gates
def test_rhp_poles_plain():
    g = TF([1.0], [-2.0, 1.0])
    assert rhp_poles_in_region(g, 0.0) == [pytest.approx(2.0)]


def test_rhp_poles_excluded_by_disc():
    g = TF([1.0], [-0.5, 1.0])
    assert rhp_poles_in_region(g, 0.75) == []


def test_rhp_poles_axis_pole_never_returned():
    g = TF([1.0], [0.0, 1.0, 1.0])  # pole at 0 and -1
    assert rhp_poles_in_region(g, 0.0) == []
    assert jw_axis_poles(g) == [0j]


def test_rhp_poles_boundary_band_error():
    g = TF([1.0], [-0.75, 1.0])
    with pytest.raises(BoundaryAmbiguityError):
        rhp_poles_in_region(g, 0.75)


def test_rhp_near_cancellation_rejected():
    num = np.polynomial.polynomial.polyfromroots([2.0 + 1e-8]).real
    den = np.polynomial.polynomial.polyfromroots([2.0, -1.0]).real
    with pytest.raises(RhpCancellationError):
        rhp_poles_in_region(TF(num, den), 0.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 20.0), st.floats(0.1, 5.0))
def test_allpass_magnitude_property(omega, z):
    g = TF([z, -1.0], [z, 1.0])
    assert abs(abs(g(1j * omega)) - 1.0) <= 1e-12
