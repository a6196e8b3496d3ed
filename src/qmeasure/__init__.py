"""qmeasure: a finite-dimensional quantum measurement simulator.

Unitary dynamics plus the Born rule carry all the predictive weight; the
remaining machinery (projective collapse, measurement models, POVMs,
iterated-projection experiments, definiteness diagnostics, and consistent
histories) lets the same claims be tested against each other numerically.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatch,
    EmptyRegion,
    ImpossibleOutcome,
    IncompleteTiling,
    InconsistentFamily,
    InvalidConfig,
    InvalidDistribution,
    InvalidHistorySet,
    InvalidIndex,
    InvalidPovm,
    InvalidRegime,
    InvalidSmearing,
    NonExtendable,
    NotHermitian,
    OutsideValidityWindow,
    ParseError,
    RangeError,
    SimulationError,
    UnresolvableWidth,
    UnresolvedSpectrum,
)
from .hilbert import (
    DensityOperator,
    LinearOperator,
    Observable,
    PureState,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    basis_state,
    expectation,
    partial_trace,
    spectral_decompose,
    tensor_product,
)
from .dynamics import (
    GridSpace,
    Hamiltonian,
    barrier_hamiltonian,
    build_grid_operators,
    fourier_map,
    free_hamiltonian,
    gaussian_packet,
    packet_width,
    propagate,
    truncated_gaussian_packet,
)
from .measurement import (
    OutcomeDistribution,
    Povm,
    born_distribution,
    build_fuzzy_povm,
    build_phase_space_povm,
    collapse,
    povm_distribution,
    total_variation,
)
from .modeling import (
    MeasurementModel,
    build_measurement_unitary,
    collapse_rule_joint,
    modeled_single_measurement,
    repeated_measurement_joint,
)
from .zeno import (
    DecayModel,
    build_decay_model,
    iterated_projection_survival,
    rabi_zeno,
    survival_probability,
)
from .indefiniteness import (
    DefinitenessReport,
    IndefinitenessScan,
    delocalization_demo,
    ee_link_status,
    indefiniteness_scan,
    invariant_subspace_check,
    region_projector,
)
from .histories import (
    DecoherenceFunctional,
    HistorySet,
    class_operator,
    coarse_grain,
    decoherence_functional,
    history_probabilities,
    is_consistent,
)
from .scenarios import (
    ResultTable,
    SCENARIOS,
    ScenarioConfig,
    run_scenario,
    validate_config,
)
