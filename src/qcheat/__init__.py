"""Heat-kernel Beurling-Ahlfors extension toolkit.

Numerics for the Gaussian-kernel variant of the Beurling-Ahlfors boundary
extension: dilatation fields on the upper half-plane and the disk, BMO/VMO
and Muckenhoupt weight estimators, Carleson box/sector norms, circle
homeomorphism transforms, and holomorphy probes of the datum-to-dilatation
map.

The public names load with their module on first access (PEP 562), so
that `import qcheat` loads no numpy and `python -m qcheat.cli` reaches
the CLI module before numpy loads.
"""

from importlib import import_module

_PUBLIC = {
    "data": ("Domain", "SampledFunction", "constant", "random_trig", "sawtooth", "sine",
             "step"),
    "errors": ("CoverageError", "DomainError", "ProbeFailure", "QcheatError",
               "ResolutionError", "SingularDenominatorError"),
    "kernels": ("ALPHA", "BETA", "KERNELS", "PHI", "PHI_SECOND", "PSI", "Kernel", "KernelId"),
    "extension": ("BeltramiField", "ExtensionField", "HalfPlaneGrid", "beltrami",
                  "beltrami_blocks", "classical_ba_extend", "extend", "extend_blocks"),
    "funcspace": ("AnalyzerReport", "JNProfile", "a_infty_constant", "analyze", "bmo_norm",
                  "doubling_constant", "vmo_profile"),
    "carleson": ("CarlesonReport", "DiskSums", "HalfPlaneSums", "ProfileEntry",
                 "carleson_norm_disk", "carleson_norm_halfplane", "hybrid_norm",
                 "vanishing_profile_disk", "vanishing_profile_halfplane"),
    "transfer": ("CircleHomeo", "DiskGrid", "contraction", "disk_phase",
                 "disk_extension_trace", "forward_L", "identity_homeo", "inverse_L", "lift",
                 "push_to_disk"),
    "analyticity": ("HolomorphyProbe", "build_probe", "cauchy_error", "cauchy_reconstruct",
                    "contour_derivative", "cr_residual", "quotient_convergence"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
