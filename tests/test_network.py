"""Laplacian building, Kron reduction, normalization, average model."""

import math

import numpy as np
import pytest

from nyqscale.errors import ConnectivityError, InvalidInputError, NormalizationError
from nyqscale.lti import TransferFunction
from nyqscale.network import (
    Line,
    OperatingPoint,
    PowerNetwork,
    average_model,
    build_laplacian,
    kron_reduce,
    normalize,
)
from nyqscale.powerplant import (
    WindParams,
    assemble_agent,
    make_ffr_controller,
    make_wind_turbine,
)

TF = TransferFunction


def random_connected_laplacian(rng, n):
    while True:
        W = np.triu(rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.6), 1)
        W = W + W.T
        L = np.diag(W.sum(axis=1)) - W
        if n == 1 or np.sort(np.linalg.eigvalsh(L))[1] > 1e-6:
            return L


# ---------------------------------------------------------------- laplacian
def test_build_laplacian_two_bus_unit():
    net = build_laplacian([Line(0, 1, 1.0)], OperatingPoint.flat(2), 2)
    assert np.allclose(net.laplacian, [[1.0, -1.0], [-1.0, 1.0]])
    assert net.flags == ()


def test_build_laplacian_three_bus_chain_eigenvalues():
    # derived oracle: hand eigendecomposition gives {0, 1, 3}
    net = build_laplacian([Line(0, 1, 1.0), Line(1, 2, 1.0)], None, 3)
    assert np.allclose(np.diag(net.laplacian), [1.0, 2.0, 1.0])
    assert np.allclose(np.linalg.eigvalsh(net.laplacian), [0.0, 1.0, 3.0])


def test_build_laplacian_sixty_degree_offset():
    op = OperatingPoint([0.0, math.pi / 3])
    net = build_laplacian([Line(0, 1, 1.0)], op, 2)
    assert net.laplacian[0, 1] == pytest.approx(-0.5)


def test_build_laplacian_nonpositive_weight_flagged():
    op = OperatingPoint([0.0, 2 * math.pi / 3])  # 120 degrees: cos < 0
    with pytest.raises(ConnectivityError):
        # single line with negative weight: mu_2 < 0 -> not connected-PSD
        build_laplacian([Line(0, 1, 1.0)], op, 2)
    # with a healthy parallel path the flag is recorded and building succeeds
    net = build_laplacian(
        [Line(0, 1, 1.0), Line(0, 1, 2.0, 1.0, 1.0)], OperatingPoint([0.0, 0.0]), 2
    )
    assert net.flags == ()


def test_build_laplacian_disconnected_rejected():
    with pytest.raises(ConnectivityError):
        build_laplacian([Line(0, 1, 1.0)], None, 3)


# ---------------------------------------------------------------- kron
def test_kron_star_center_reduction():
    # 3-bus star with algebraic center: series rule 1/(1/b+1/b) = 0.5
    lines = [Line(2, 0, 1.0), Line(2, 1, 1.0)]
    net = build_laplacian(lines, None, 3)
    red = kron_reduce(net, [2])
    assert np.allclose(red.laplacian, [[0.5, -0.5], [-0.5, 0.5]])


def test_kron_no_algebraic_buses_identity():
    net = build_laplacian([Line(0, 1, 1.5)], None, 2)
    assert kron_reduce(net, []) is net


def test_kron_path_middle_two():
    lines = [Line(0, 1, 1.0), Line(1, 2, 1.0), Line(2, 3, 1.0)]
    net = build_laplacian(lines, None, 4)
    red = kron_reduce(net, [1, 2])
    assert np.allclose(red.laplacian, [[1 / 3, -1 / 3], [-1 / 3, 1 / 3]])


def test_kron_preserves_zero_row_sum_and_psd_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        L = random_connected_laplacian(rng, n)
        net = PowerNetwork.from_laplacian(L)
        k = int(rng.integers(1, n - 1))
        alg = list(rng.choice(n, size=k, replace=False))
        try:
            red = kron_reduce(net, alg)
        except Exception:
            continue
        assert np.abs(red.laplacian.sum(axis=1)).max() < 1e-9
        assert np.linalg.eigvalsh(red.laplacian)[0] > -1e-9


# ---------------------------------------------------------------- normalize
def test_normalize_two_bus():
    net = PowerNetwork.from_laplacian([[1.0, -1.0], [-1.0, 1.0]])
    nn = normalize(net)
    assert np.allclose(nn.gamma, [2.0, 2.0])
    assert np.allclose(nn.l_prime, [[0.5, -0.5], [-0.5, 0.5]])
    assert np.allclose(nn.mu, [0.0, 1.0])


def test_normalize_spectrum_bounds_random():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        L = random_connected_laplacian(rng, n)
        nn = normalize(PowerNetwork.from_laplacian(L))
        assert nn.mu[0] == pytest.approx(0.0, abs=1e-9)
        assert nn.mu[-1] <= 1.0 + 1e-9
        assert np.abs(nn.U.T @ nn.U - np.eye(n)).max() < 1e-9
        # null vector direction: Gamma^(1/2) 1
        d = np.sqrt(nn.gamma)
        d /= np.linalg.norm(d)
        assert np.abs(nn.U[:, 0] - d).max() < 1e-7


def test_normalize_denormalize_roundtrip():
    rng = np.random.default_rng(17)
    L = random_connected_laplacian(rng, 5)
    nn = normalize(PowerNetwork.from_laplacian(L))
    g = np.sqrt(nn.gamma)
    back = g[:, None] * nn.l_prime * g[None, :]
    assert np.abs(back - L).max() < 1e-10 * max(1.0, np.abs(L).max())


def test_normalize_zero_diagonal_rejected():
    with pytest.raises((NormalizationError, InvalidInputError)):
        normalize(PowerNetwork.from_laplacian(np.zeros((2, 2))))


# ---------------------------------------------------------------- averages
def test_average_model_single_integrator():
    g = average_model([assemble_agent(1.0)])
    assert np.allclose(g.num.as_array(), [1.0])
    assert np.allclose(g.den.as_array(), [0.0, 1.0])


def test_average_model_delayed_agent_needs_pade_order():
    h = make_wind_turbine(WindParams(10.0))
    delayed = assemble_agent(1360.0, [make_ffr_controller(0.6, 1000.0, 0.1, h)])
    with pytest.raises(InvalidInputError):
        average_model([delayed])
    with pytest.raises(InvalidInputError):
        delayed.freq_actuator_rational(None)
    assert average_model([delayed], pade_order=3).delay_s == 0.0


def test_average_model_n5_totals():
    # M = 2*110 GWs / 50 Hz = 4.4 GW s/Hz = 4400 MW s/Hz
    w_kin_gws = [34.0, 22.5, 7.5, 33.0, 13.0]
    agents = [assemble_agent(2 * w * 1000 / 50) for w in w_kin_gws]
    g = average_model(agents)
    den = g.den.as_array()
    num = g.num.as_array()
    assert den[1] / num[0] == pytest.approx(4400.0)


def test_average_model_steady_state_final_value():
    # derived final-value oracle: step -1400 MW against F(0)=3100+400 MW/Hz
    fdes_like = TF([3100.0, 3100.0 * 6.5], np.polynomial.polynomial.polymul([1, 2], [1, 17]))
    agents = [assemble_agent(4000.0, [fdes_like], load_damping_mw_per_hz=400.0)]
    g = average_model(agents)
    # final value of g(s) * (-1400/s) * s as s -> 0 equals -1400 * g(0)
    assert -1400.0 * g(0.0) == pytest.approx(-0.4, rel=1e-9)
