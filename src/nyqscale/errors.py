"""Exception hierarchy shared across the package.

Every domain error derives from :class:`NyqscaleError` so callers can catch
one base class; input-shaped problems additionally derive from
:class:`InvalidInputError` (a ``ValueError``).
"""


class NyqscaleError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(NyqscaleError, ValueError):
    """Malformed value at a public boundary (zero polynomial, bad share, ...)."""


class PoleHitError(NyqscaleError):
    """Transfer-function evaluation requested exactly at (or within tolerance
    of) a pole. Carries the offending evaluation point in ``.s``."""

    def __init__(self, s, message=None):
        self.s = s
        super().__init__(message or f"evaluation at a pole: s = {s}")


class UnsupportedStructureError(NyqscaleError):
    """Composition the rational-plus-delay representation cannot express
    (unequal delays in parallel, inverting a delayed branch, ...)."""


class AmbiguousMirrorError(NyqscaleError):
    """Minimum-phase mirror requested for a function with a zero on (or too
    close to) the imaginary axis."""


class BoundaryAmbiguityError(NyqscaleError):
    """A pole sits within the tolerance band of the contour radius; winding
    counts would be meaningless. The caller must adjust r."""


class RhpCancellationError(NyqscaleError):
    """Near pole/zero cancellation in the right half-plane; the criteria
    assume none, so this is rejected rather than silently cancelled."""


class ConnectivityError(NyqscaleError):
    """The coupling graph is not connected (more than one zero Laplacian
    eigenvalue); the criteria require a connected network."""


class ReductionError(NyqscaleError):
    """Kron reduction failed (singular interior block)."""


class NormalizationError(NyqscaleError):
    """Laplacian cannot be gamma-normalized (zero diagonal entry)."""


class ContourError(NyqscaleError):
    """Contour construction failed (overlapping indentations, pole on the
    contour, bad radii)."""


class MarginalStabilityError(NyqscaleError):
    """The test point lies on the curve; the winding number is undefined."""


class UndersampledContourError(NyqscaleError):
    """Argument increment >= pi persists after maximum densification."""


class PropernessError(NyqscaleError):
    """Operation requires a proper rational function."""


class ModelMatchingError(NyqscaleError):
    """Composed controller/actuator failed to reproduce the design target."""


class AssemblyError(NyqscaleError):
    """Agent assembly failed (algebraic node with no dynamics)."""


class RealizationError(NyqscaleError):
    """State-space realization failed (improper structure)."""


class IntegratorConfigError(NyqscaleError):
    """Requested time step violates the explicit-integrator margin."""


class DivergenceError(NyqscaleError):
    """Simulation produced NaN/overflow. Carries the time stamp in ``.t``."""

    def __init__(self, t, message=None):
        self.t = t
        super().__init__(message or f"simulation diverged at t = {t:.6g} s")


class ScenarioError(NyqscaleError):
    """Scenario file is missing, unreadable, or schema-invalid. Carries a
    list of human-readable violations with JSON-pointer paths."""

    def __init__(self, violations, message=None):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__(message or "; ".join(self.violations))


class NumericalError(NyqscaleError):
    """A numerical routine failed its own accuracy contract."""
