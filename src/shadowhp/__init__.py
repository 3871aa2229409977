"""shadowhp: shadow-boundary amplitude functions, analyticity-region
geometry, and graded-mesh hp best approximation for high-frequency
knife-edge diffraction.
"""

from shadowhp.amplitudes import (
    FieldPoint,
    ShadowConfig,
    amplitude_v,
    de_dn_check,
    e_field,
    e_go,
    e_remainder_check,
    g_of_s,
    gtd_far_field,
    h_of_s,
    psi_go,
)
from shadowhp.errors import (
    BranchCutError,
    CertificationError,
    ConfigError,
    DomainError,
    OracleError,
)
from shadowhp.experiments import (
    DipScanResult,
    ExperimentGrid,
    GridRow,
    RateFit,
    dip_scan,
    fit_rate,
    run_grid,
    write_csv,
)
from shadowhp.geometry import (
    THETA_STAR,
    KnifeGeometry,
    RegionLabel,
    mu_of_s,
    r_of_s,
    region_label,
    strip_S_delta,
)
from shadowhp.hpspace import (
    Mesh,
    PiecewisePolySpace,
    ProjectionResult,
    bernstein_rho,
    best_approx_error,
    gauss_legendre_rule,
    geometric_mesh,
    l2_project,
    shadow_mesh,
)
from shadowhp.kernel import BACKEND as KERNEL_BACKEND
from shadowhp.specfun import (
    SectorBoundCert,
    big_f,
    fresnel_fr,
    fresnel_oracle,
    sector_bound_cert,
)

__version__ = "1.0.0"

__all__ = [
    "BranchCutError",
    "CertificationError",
    "ConfigError",
    "DipScanResult",
    "DomainError",
    "ExperimentGrid",
    "FieldPoint",
    "GridRow",
    "KERNEL_BACKEND",
    "KnifeGeometry",
    "Mesh",
    "OracleError",
    "PiecewisePolySpace",
    "ProjectionResult",
    "RateFit",
    "RegionLabel",
    "SectorBoundCert",
    "ShadowConfig",
    "THETA_STAR",
    "amplitude_v",
    "best_approx_error",
    "bernstein_rho",
    "big_f",
    "de_dn_check",
    "dip_scan",
    "e_field",
    "e_go",
    "e_remainder_check",
    "fit_rate",
    "fresnel_fr",
    "fresnel_oracle",
    "g_of_s",
    "gauss_legendre_rule",
    "geometric_mesh",
    "gtd_far_field",
    "h_of_s",
    "l2_project",
    "mu_of_s",
    "psi_go",
    "r_of_s",
    "region_label",
    "run_grid",
    "sector_bound_cert",
    "shadow_mesh",
    "strip_S_delta",
    "write_csv",
]
