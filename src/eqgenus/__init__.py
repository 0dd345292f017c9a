"""Exact equivariant elliptic genus computations from circle-action
fixed-point data: theta functions, localization, rigidity and vanishing
verdicts, and Jacobi-form verification."""

from .algebra import (
    GradedElement,
    IntegrationTable,
    QSeries,
    WLaurentPoly,
    WLaurentRational,
    fiber_integrate,
    graded_exp,
    graded_invert,
    series_invert,
    series_mul,
)
from .theta import (
    ConstantsLedger,
    ThetaKind,
    ThetaTaylorStack,
    check_modular_ST,
    check_quasi_periodicity,
    theta_formal,
    theta_numeric,
    theta_taylor,
)
from .genera import (
    OperatorKind,
    RootBundle,
    a_hat,
    chern_character,
    oracle_expand_vs_closed,
    theta_quotient_integrand,
    witten_element_ch,
)
from .localization import (
    ActionData,
    FixedComponent,
    GenusResult,
    anomaly_index,
    degree_component,
    equivariant_character,
    equivariant_characters,
    evaluate_numeric,
    pole_cancellation_check,
    rigidity_check,
    validate,
)
from .jacobi import (
    JacobiFormSpec,
    ModularGroup,
    ModularMatrix,
    check_jacobi,
    count_zeros,
    rigidity_verdict_from_index,
    slash_action,
    subgroup_member,
)
from .catalog import CatalogEntry, borel_weil_character, builtin, oracle_check_s2

__version__ = "0.1.0"
