"""Coupling-Laplacian construction, Kron reduction and normalization.

The Laplacian stored on :class:`PowerNetwork` is expressed in the package's
dynamic unit system (power MW, frequency Hz, angle Hz*s), in which the
normalization gamma_i = 2*L_ii makes the normalized spectrum land in [0, 1].
`build_laplacian` itself is unit-agnostic: it combines whatever susceptance
numbers it is given; published per-radian susceptances are scaled by 2*pi at
scenario ingestion (see the scenario module's docstring).

Everything here is immutable after construction and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConnectivityError,
    InvalidInputError,
    NormalizationError,
    ReductionError,
)

__all__ = [
    "Line",
    "OperatingPoint",
    "PowerNetwork",
    "NormalizedNetwork",
    "build_laplacian",
    "kron_reduce",
    "normalize",
]

ROW_SUM_ATOL = 1e-10
ZERO_EIG_ATOL = 1e-9
CONNECTIVITY_ATOL = 1e-9
ORTHO_ATOL = 1e-9


@dataclass(frozen=True)
class Line:
    """Transmission line between two buses.

    ``susceptance_b`` >= 0 in the caller's power-per-angle unit (b = 0 means
    not directly connected); voltages are per-unit magnitudes at the
    linearization point.
    """

    from_bus: int
    to_bus: int
    susceptance_b: float
    from_voltage: float = 1.0
    to_voltage: float = 1.0

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise InvalidInputError("line endpoints must differ")
        if self.susceptance_b < 0:
            raise InvalidInputError("susceptance must be nonnegative")
        if self.from_voltage <= 0 or self.to_voltage <= 0:
            raise InvalidInputError("voltages must be positive")


@dataclass(frozen=True)
class OperatingPoint:
    """Per-bus voltage phase angles (radians) at the linearization point."""

    angles_rad: tuple[float, ...]

    def __init__(self, angles_rad: Sequence[float]):
        angles = tuple(float(a) for a in angles_rad)
        if not all(np.isfinite(angles)):
            raise InvalidInputError("operating-point angles must be finite")
        object.__setattr__(self, "angles_rad", angles)

    @classmethod
    def flat(cls, n: int) -> "OperatingPoint":
        return cls((0.0,) * n)


@dataclass(frozen=True)
class PowerNetwork:
    """Bus/line description plus the coupling Laplacian, whose positive
    off-diagonal entries, if any, are its negative edge weights."""

    n: int
    lines: tuple[Line, ...]
    laplacian: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.laplacian, dtype=float)
        if L.shape != (self.n, self.n):
            raise InvalidInputError("laplacian shape mismatch")
        if not np.isfinite(L).all():
            raise InvalidInputError("laplacian entries must be finite")
        if not np.allclose(L, L.T, atol=1e-9 * max(1.0, np.abs(L).max())):
            raise InvalidInputError("laplacian must be symmetric")
        row = np.abs(L.sum(axis=1))
        if row.max() > ROW_SUM_ATOL * max(1.0, np.abs(L).max()):
            raise InvalidInputError("laplacian rows must sum to zero")
        L = L.copy()
        L.setflags(write=False)
        object.__setattr__(self, "laplacian", L)

    @classmethod
    def from_laplacian(cls, L) -> "PowerNetwork":
        """Wrap an explicitly given Laplacian (tests, random suites)."""
        L = np.asarray(L, dtype=float)
        return cls(n=L.shape[0], lines=(), laplacian=L)

    @property
    def is_connected(self) -> bool:
        mu = np.linalg.eigvalsh(self.laplacian)
        scale = max(1.0, np.abs(self.laplacian).max())
        return mu[1] > CONNECTIVITY_ATOL * scale if self.n > 1 else True


def build_laplacian(
    lines: Sequence[Line],
    operating_point: OperatingPoint | None,
    n: int,
) -> PowerNetwork:
    """Assemble the coupling Laplacian from lines and the linearization
    point: L_il = -V_i V_l b_il cos(delta_i - delta_l) for i != l, diagonal
    from the neighbor sums (zero row sums by construction).

    Edges with cos(.) < 0 are allowed (L shows them); a disconnected graph is
    an error because every criterion here needs exactly one zero eigenvalue.
    """
    if n < 1:
        raise InvalidInputError("need at least one bus")
    op = operating_point or OperatingPoint.flat(n)
    if len(op.angles_rad) != n:
        raise InvalidInputError("operating point has wrong bus count")
    L = np.zeros((n, n))
    for line in lines:
        i, l = line.from_bus, line.to_bus
        if not (0 <= i < n and 0 <= l < n):
            raise InvalidInputError(f"line endpoint out of range: {line}")
        dd = op.angles_rad[i] - op.angles_rad[l]
        w = line.from_voltage * line.to_voltage * line.susceptance_b * np.cos(dd)
        L[i, l] -= w
        L[l, i] -= w
        L[i, i] += w
        L[l, l] += w
    net = PowerNetwork(
        n=n,
        lines=tuple(lines),
        laplacian=L,
    )
    if not net.is_connected:
        raise ConnectivityError(
            "coupling graph is disconnected; the criteria require a "
            "connected network"
        )
    return net


def kron_reduce(net: PowerNetwork, algebraic_buses: Sequence[int]) -> PowerNetwork:
    """Schur complement of the Laplacian with respect to the algebraic
    (dynamics-free) buses; the result is again a symmetric zero-row-sum
    Laplacian on the retained buses.
    """
    alg = sorted(set(int(b) for b in algebraic_buses))
    if not alg:
        return net
    if any(b < 0 or b >= net.n for b in alg):
        raise InvalidInputError("algebraic bus index out of range")
    keep = [i for i in range(net.n) if i not in alg]
    if not keep:
        raise InvalidInputError("cannot reduce away every bus")
    L = net.laplacian
    Lrr = L[np.ix_(keep, keep)]
    Lra = L[np.ix_(keep, alg)]
    Laa = L[np.ix_(alg, alg)]
    try:
        solved = np.linalg.solve(Laa, Lra.T)
    except np.linalg.LinAlgError as exc:
        raise ReductionError(f"singular interior block: {exc}") from None
    cond = np.linalg.cond(Laa)
    if not np.isfinite(cond) or cond > 1e12:
        raise ReductionError("interior block numerically singular")
    reduced = Lrr - Lra @ solved
    reduced = 0.5 * (reduced + reduced.T)
    # clean roundoff in the row sums so the invariant holds exactly
    reduced -= np.diag(reduced.sum(axis=1))
    return PowerNetwork(
        n=len(keep),
        lines=(),
        laplacian=reduced,
    )


@dataclass(frozen=True)
class NormalizedNetwork:
    """Gamma-normalized network: gamma_i = 2 L_ii, L' = Gamma^-1/2 L
    Gamma^-1/2 with spectrum 0 = mu_1 < mu_2 <= ... <= mu_n <= 1 and
    orthonormal eigenvectors U (ascending order).
    """

    network: PowerNetwork
    gamma: np.ndarray
    l_prime: np.ndarray
    mu: np.ndarray
    U: np.ndarray

    def __post_init__(self):
        for name in ("gamma", "l_prime", "mu", "U"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.network.n

    @property
    def U_hat(self) -> np.ndarray:
        """Eigenvectors of the interarea modes (columns 2..n)."""
        return self.U[:, 1:]

    @property
    def mu_hat(self) -> np.ndarray:
        """Interarea eigenvalues diag(mu_2, ..., mu_n) as a vector."""
        return self.mu[1:]


def normalize(net: PowerNetwork) -> NormalizedNetwork:
    """Gamma-normalize: Gamma = 2 diag(L), L' = Gamma^-1/2 L Gamma^-1/2.

    Raises NormalizationError for isolated buses (zero diagonal) and
    ConnectivityError when mu_2 is not strictly positive. mu_1 = 0 and
    mu_n <= 1 are enforced unless L has a positive off-diagonal entry (a
    negative edge weight), which voids the [0, 1] spectrum bound.
    """
    L = net.laplacian
    diag = np.diag(L)
    if np.any(diag <= 0):
        raise NormalizationError("zero/negative Laplacian diagonal (isolated bus?)")
    gamma = 2.0 * diag
    scale = 1.0 / np.sqrt(gamma)
    l_prime = scale[:, None] * L * scale[None, :]
    l_prime = 0.5 * (l_prime + l_prime.T)
    mu, U = np.linalg.eigh(l_prime)
    # re-orthonormalize if the solver drifted
    if np.abs(U.T @ U - np.eye(net.n)).max() > ORTHO_ATOL:
        U, _ = np.linalg.qr(U)
        mu = np.diag(U.T @ l_prime @ U).copy()
    order = np.argsort(mu)
    mu, U = mu[order], U[:, order]
    if not (np.triu(L, 1) > 0).any():
        if abs(mu[0]) > ZERO_EIG_ATOL:
            raise NormalizationError(f"mu_1 = {mu[0]:.3g} is not zero")
        if mu[-1] > 1.0 + ZERO_EIG_ATOL:
            raise NormalizationError(f"mu_n = {mu[-1]:.6g} exceeds 1")
        mu = np.clip(mu, 0.0, None)
        mu[0] = 0.0
    if net.n > 1 and mu[1] <= CONNECTIVITY_ATOL:
        raise ConnectivityError(
            f"algebraic connectivity mu_2 = {mu[1]:.3g}; network must be "
            "connected"
        )
    # orient the null eigenvector along Gamma^(1/2) 1
    null_dir = np.sqrt(gamma)
    null_dir /= np.linalg.norm(null_dir)
    if U[:, 0] @ null_dir < 0:
        U = U.copy()
        U[:, 0] = -U[:, 0]
    return NormalizedNetwork(
        network=net,
        gamma=gamma,
        l_prime=l_prime,
        mu=mu,
        U=U,
    )

