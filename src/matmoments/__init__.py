"""Matrix moment problems: criteria, certificates, factorization, recovery."""

import sys
from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it; each submodule loads on
# first use, so ``import matmoments`` loads none of them
_EXPORTS = {
    "polymat": ("LaurentPoly", "MatrixPoly", "matmul", "matrixpoly_from_json",
                "matrixpoly_to_json", "scalar_poly_mult", "transpose_poly"),
    "moments": ("MomentSequence", "PsdReport", "block_hankel", "check_hamburger",
                "check_hausdorff", "check_stieltjes", "momentsequence_from_json",
                "momentsequence_to_json", "operator_check"),
    "spectral": ("NoConvergence", "NotPsdOnCircle", "SpectralFactor", "fejer_riesz",
                 "laurent_from_json", "laurent_to_json", "verify_factor"),
    "certificates": ("NotPsdOnHalfLine", "NotPsdOnInterval", "NotPsdOnLine", "OddDegree",
                     "ScalarizedSet", "SosCertificate", "SosConsistencyError",
                     "certificate_from_json", "certificate_to_json", "decompose_halfline",
                     "decompose_interval", "decompose_line", "scalarize", "verify_certificate"),
    "measures": ("AtomicMatrixMeasure", "AuditReport", "PositiveMapMeasure", "SupportViolation",
                 "forward_moments", "integrate_map", "integrate_trace", "map_measure_from_json",
                 "map_measure_to_json", "measure_from_json", "measure_to_json",
                 "positivity_audit"),
    "recovery": ("HankelNotPsd", "RecoveryResult", "recover"),
    "shiftgap": ("ChainReport", "ModulePositivityError", "ProbeReport", "ShiftFamily",
                 "build_family", "cauchy_schwarz_chain", "leading_coeff_probe",
                 "shift_compress", "support_collapse_check"),
}
_MODULE_OF = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items()
              for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # never cached here, so a name always reads its submodule's current binding;
    # a loaded submodule is read from sys.modules, skipping the import lock
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(sys.modules.get(module) or import_module(module), name)
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
