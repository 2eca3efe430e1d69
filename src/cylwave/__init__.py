"""cylwave: wave impedance matrices and acoustic scattering for radially
inhomogeneous, cylindrically anisotropic elastic cylinders.

The state vector (displacement, traction) on a cylindrical surface obeys a
linear first-order system in radius; everything here is built on marching
that system stably: matricant propagators with several one-step schemes, the
Moebius (fractional-linear) update of the conditional impedance that stays
bounded through impedance poles, two-point impedances joined recursively
across layers, exact transversely isotropic solutions for verification, and
plane-wave scattering of sound from such a cylinder immersed in water.
"""

from .cylfun import KIND_H1, KIND_H2, KIND_J, KIND_Y, cyl_f, cyl_f_prime
from .elastodyn import (C_W, MODULUS_SCALE, RHO_W, MaterialPoint,
                        RadialProfile, StiffnessVoigt, SystemMatrix,
                        VoigtBlocks, WaveContext, aluminium, block_swap,
                        g_matrix, has_z_mirror_symmetry, isotropic_stiffness,
                        profile_from_json, q_matrix, ti_stiffness,
                        voigt_blocks)
from .errors import (AccuracyLoss, BasisDegenerate, CylwaveError, DomainError,
                     InteriorPoint, InterfaceResonance, KzZeroCoupling,
                     MatricantOverflow, ModeResonance, Overflow, PoleCrossing,
                     ResonantInner, SchemaError, SingularMatrix, StepTooLarge,
                     TangentialResonance, UsageError)
from .impedance import (Admittance, ConditionalImpedance, RiccatiTrace,
                        TwoPointImpedance, admittance_rhs,
                        conditional_from_twopoint, impedance_from_matricant,
                        integrate_impedance, matricant_from_twopoint,
                        mobius_step, naive_riccati_integrate, riccati_rhs,
                        twopoint_from_matricant)
from .matricant import (SCHEME_NAMES, SCHEMES, Matricant, Scheme, get_scheme,
                        lagrange_weights, matricant_global, matricant_step)
from .numkernel import hermitian_residual, mat_exp, mat_inverse
from .scatter import (FluidHalfSpace, ScatteringConfig, ScatteringResult,
                      form_function, pressure_field, scalar_impedance_z0,
                      scattering_coefficient, solve_scattering,
                      solve_sweep, total_cross_section)
from .tilayers import (LayerTI, TIWavenumbers, global_twopoint, join_twopoint,
                       layer_twopoint, ti_conditional_impedance,
                       ti_displacement_matrix, ti_traction_matrix,
                       ti_wavenumbers)

__version__ = "0.1.0"

__all__ = [
    "AccuracyLoss", "Admittance", "BasisDegenerate", "C_W",
    "ConditionalImpedance", "CylwaveError", "DomainError", "FluidHalfSpace",
    "InterfaceResonance", "InteriorPoint", "KIND_H1", "KIND_H2", "KIND_J",
    "KIND_Y", "KzZeroCoupling", "LayerTI", "MODULUS_SCALE", "MaterialPoint",
    "Matricant", "MatricantOverflow", "ModeResonance", "Overflow",
    "PoleCrossing", "RHO_W", "RadialProfile", "ResonantInner", "RiccatiTrace",
    "SCHEMES",
    "SCHEME_NAMES", "SchemaError", "ScatteringConfig", "ScatteringResult",
    "Scheme", "SingularMatrix", "StepTooLarge", "StiffnessVoigt",
    "SystemMatrix", "TIWavenumbers", "TangentialResonance",
    "TwoPointImpedance", "UsageError", "VoigtBlocks", "WaveContext",
    "admittance_rhs", "aluminium", "block_swap", "conditional_from_twopoint",
    "cyl_f", "cyl_f_prime", "form_function", "g_matrix", "get_scheme",
    "global_twopoint", "has_z_mirror_symmetry", "hermitian_residual",
    "impedance_from_matricant", "integrate_impedance", "isotropic_stiffness",
    "join_twopoint", "lagrange_weights", "layer_twopoint", "mat_exp",
    "mat_inverse", "matricant_from_twopoint", "matricant_global",
    "matricant_step", "mobius_step", "naive_riccati_integrate",
    "pressure_field", "profile_from_json", "q_matrix", "riccati_rhs",
    "scalar_impedance_z0", "scattering_coefficient", "solve_scattering",
    "solve_sweep", "ti_conditional_impedance", "ti_displacement_matrix",
    "ti_stiffness", "ti_traction_matrix", "ti_wavenumbers",
    "total_cross_section",
    "twopoint_from_matricant", "voigt_blocks",
]
