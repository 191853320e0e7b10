"""Heat-kernel Beurling-Ahlfors extension toolkit.

Numerics for the Gaussian-kernel variant of the Beurling-Ahlfors boundary
extension: dilatation fields on the upper half-plane and the disk, BMO/VMO
and Muckenhoupt weight estimators, Carleson box/sector norms, circle
homeomorphism transforms, and holomorphy probes of the datum-to-dilatation
map.
"""

from .data import Domain, SampledFunction, constant, random_trig, sawtooth, sine, step
from .errors import (CoverageError, DomainError, ProbeFailure, QcheatError,
                     ResolutionError, SingularDenominatorError)
from .kernels import (ALPHA, BETA, KERNELS, PHI, PHI_SECOND, PSI, Kernel,
                      KernelId, eval_kernel, scale)
from .extension import (BeltramiField, ExtensionField, HalfPlaneGrid,
                        beltrami, beltrami_blocks, classical_ba_extend, extend,
                        extend_blocks, gamma_of)
from .funcspace import (AnalyzerReport, JNProfile, a_infty_constant, analyze,
                        bmo_norm, doubling_constant, john_nirenberg_profile,
                        oscillation_integral, quasisymmetry_constant,
                        vmo_profile)
from .carleson import (CarlesonReport, DiskSums, HalfPlaneSums, ProfileEntry,
                       carleson_norm_disk, carleson_norm_halfplane, hybrid_norm,
                       vanishing_profile_disk, vanishing_profile_halfplane)
from .transfer import (CircleHomeo, DiskGrid, contraction, disk_phase,
                       disk_extension_trace, forward_L, identity_homeo,
                       inverse_L, lift, push_to_disk, reflect_beltrami)
from .analyticity import (HolomorphyProbe, build_probe, cauchy_reconstruct,
                          contour_derivative, cr_residual,
                          quotient_convergence)

__version__ = "0.1.0"
