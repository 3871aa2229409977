"""shadowhp: shadow-boundary amplitude functions, analyticity-region
geometry, and graded-mesh hp best approximation for high-frequency
knife-edge diffraction.

Importing the package loads none of its modules. Each public name is
imported from its module at its first access (PEP 562's module
__getattr__), so a process loads only the layers it uses: `shadowhp.cli`
and `shadowhp.KnifeGeometry` need neither numpy nor dataclasses,
`shadowhp.KERNEL_BACKEND` needs no scipy. `from shadowhp import *` loads
every module.
"""

from importlib import import_module

__version__ = "4.0.0"

#: the public names of each module, each listed in that module's __all__
_EXPORTS = {
    "shadowhp.amplitudes": (
        "FieldPoint",
        "ShadowConfig",
        "amplitude_v",
        "e_field",
        "g_of_s",
        "h_of_s",
        "psi_go",
    ),
    "shadowhp.errors": (
        "BranchCutError",
        "CertificationError",
        "ConfigError",
        "DomainError",
    ),
    "shadowhp.experiments": (
        "ExperimentGrid",
        "GridRow",
        "run_grid",
        "write_csv",
    ),
    "shadowhp.geometry": ("mu_of_s", "r_of_s"),
    "shadowhp.hpspace": (
        "Mesh",
        "PiecewisePolySpace",
        "ProjectionResult",
        "best_approx_error",
        "gauss_legendre_rule",
        "geometric_mesh",
        "l2_project",
        "shadow_mesh",
    ),
    "shadowhp.kernel": ("KERNEL_BACKEND",),
    "shadowhp.regions": (
        "THETA_STAR",
        "KnifeGeometry",
        "RegionLabel",
        "region_label",
        "strip_S_delta",
    ),
    "shadowhp.specfun": (
        "SectorBoundCert",
        "big_f",
        "fresnel_fr",
        "sector_bound_cert",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    # bound like an eager import: later reads find it without this hook
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
