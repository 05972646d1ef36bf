"""Laplacian building, Kron reduction and normalization."""

import math

import numpy as np
import pytest

from nyqscale.errors import ConnectivityError, InvalidInputError, NormalizationError
from nyqscale.network import (
    Line,
    OperatingPoint,
    PowerNetwork,
    build_laplacian,
    kron_reduce,
    normalize,
)


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
    # with a healthy parallel path building succeeds
    build_laplacian(
        [Line(0, 1, 1.0), Line(0, 1, 2.0, 1.0, 1.0)], OperatingPoint([0.0, 0.0]), 2
    )


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

