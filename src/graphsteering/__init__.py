"""Numerical toolkit for steering certification on qudit graph-state networks.

Builds two-colorable graph states of N qudits, derives the two complementary
coarse-grained measurement settings per bipartition, certifies steering via
the mutual-information criterion with its log2(d) entropic floor, models
cloning-based eavesdropping, and computes key-rate lower bounds, noise
thresholds and critical disturbances.
"""

__version__ = "0.1.0"

from .registers import (
    QuditRegister,
    RegisterTooLarge,
    PureState,
    DensityOperator,
)
from .graphs import (
    Graph,
    TwoColoring,
    Bipartition,
    NotTwoColorable,
    two_color,
    make_star,
    make_chain,
    make_grid,
    parse_graph,
)
from .graphstate import (
    fourier_op,
    build_graph_state,
)
from .schmidt import (
    SchmidtForm,
    MeasurementSetting,
    Povm,
    NoCorrelationForm,
    schmidt_decompose,
    derive_setting,
    build_povm,
    joint_distribution,
    stabilizer_table,
)
from .infotheory import (
    CqEnsemble,
    shannon_entropy,
    mutual_information,
    von_neumann_entropy,
    holevo,
    uncertainty_floor,
)
from .steering import (
    SteeringReport,
    white_noise,
    derive_both_settings,
    steering_statistic,
    noise_threshold,
    disturbance_entropy,
    critical_disturbance,
    key_rate_scan,
)
from .cloner import (
    GammaDistribution,
    bell_state,
    cloner_output,
    q_marginals,
    mutual_info_ab,
    measured_joint,
    conditional_ensemble,
    no_sharing_sum,
    clone_gamma,
    shared_information,
    phase_covariant_gamma,
    dirichlet_gamma,
)
from .protocol import (
    ProtocolConfig,
    Transcript,
    RateEstimate,
    InsufficientData,
    run_protocol,
    estimate_rates,
)
