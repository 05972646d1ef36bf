"""Scalable and decentralized Nyquist stability analysis for networks of
heterogeneous LTI agents coupled over a graph Laplacian, cross-validated by
an independent state-space oracle. Ships the Nordic-5 frequency-reserve
test case."""

from .errors import NyqscaleError
from .lti import (
    Polynomial,
    TransferFunction,
    jw_axis_poles,
    mp_mirror,
    pade_delay,
    poly_roots,
    rhp_poles_in_region,
    tf_evaluate,
)
from .network import (
    Line,
    NormalizedNetwork,
    OperatingPoint,
    PowerNetwork,
    build_laplacian,
    kron_reduce,
    normalize,
)
from .nyquist import (
    Contour,
    DecentralizedPolicy,
    LociSweep,
    Verdict,
    Violation,
    decentralized_check,
    default_outer_radius,
    eigenloci_sweep,
    fov_check,
    lossy_exponential_check,
    make_contour,
    theorem1_check,
    vertex_axis_crossings,
    winding_number,
)
from .powerplant import (
    Agent,
    FcrDesign,
    HydroParams,
    WindParams,
    assemble_agent,
    make_fcr_controller,
    make_fdes,
    make_ffr_controller,
    make_hydro_turbine,
    make_wind_turbine,
)
from .scenario import Scenario, bundled_scenario_path, load_scenario, loads_scenario
from .simkit import (
    Pulse,
    SimulationResult,
    StateSpaceModel,
    pade_sensitivity,
    realize_state_space,
    simulate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
