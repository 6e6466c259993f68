"""Counting abelian extensions of Q: invariants, bounds, series, oracles."""

__version__ = "0.1.0"

from .groups import (
    AbelianGroup,
    BudgetExceededError,
    aut_order,
    element_order,
    make_group,
    parse_group_literal,
)
from .invariants import (
    GaloisActionSpec,
    OrbitData,
    WeightFn,
    a_invariant,
    b_d,
    bbar_d,
    conjectured_pole_order,
    index_of,
    nonvanishing_case,
    orbits,
)
from .oracle import (
    CountReport,
    DirichletCharacter,
    characters_up_to,
    count_surjections,
)
from .series import (
    EulerProductState,
    LocalFactor,
    ZetaFactorization,
    euler_product_truncated,
    local_factor,
    nonvanishing_limit,
    residue_main_term,
    series_coefficients,
    sieve_to_surjective,
    zeta_factorization,
)
from .tauberian import (
    StepSequence,
    TauberianParams,
    difference,
    fit_exponent,
    sandwich_check,
    saving_exponent,
    smoothed_sum,
)
from .theta import (
    ScanReport,
    SubconvexityModel,
    ThetaResult,
    dual_selmer_size,
    scan_cyclic,
    theta_at_D,
    theta_best,
    theta_ram,
    vertical_exponent,
)
