"""Matrix moment problems: criteria, certificates, factorization, recovery."""

from .polymat import (LaurentPoly, MatrixPoly, compose_scalar, eval_poly,
                      even_odd_split, matmul, matrixpoly_from_json,
                      matrixpoly_to_json, scalar_poly_mult, sup_norm_on,
                      transpose_poly)
from .moments import (MomentSequence, PsdReport, block_hankel, check_hamburger,
                      check_hausdorff, check_stieltjes, momentsequence_from_json,
                      momentsequence_to_json, operator_check)
from .spectral import (NoConvergence, NotPsdOnCircle, SpectralFactor, fejer_riesz,
                       laurent_from_json, laurent_to_json, verify_factor)
from .certificates import (NotPsdOnHalfLine, NotPsdOnInterval, NotPsdOnLine,
                           OddDegree, ScalarizedSet, SosCertificate,
                           certificate_from_json, certificate_to_json,
                           decompose_halfline, decompose_interval, decompose_line,
                           scalarize, verify_certificate)
from .measures import (AtomicMatrixMeasure, AuditReport, PositiveMapMeasure,
                       SupportViolation, forward_moments, integrate_map,
                       integrate_trace, map_measure_from_json, map_measure_to_json,
                       measure_from_json, measure_to_json, positivity_audit)
from .recovery import HankelNotPsd, RecoveryResult, recover
from .shiftgap import (ChainReport, ModulePositivityError, ProbeReport, ShiftFamily,
                       build_family, cauchy_schwarz_chain, leading_coeff_probe,
                       shift_compress, support_collapse_check)

__version__ = "0.1.0"

__all__ = [
    "AtomicMatrixMeasure", "AuditReport", "ChainReport", "HankelNotPsd",
    "LaurentPoly", "MatrixPoly", "ModulePositivityError",
    "MomentSequence", "NoConvergence", "NotPsdOnCircle", "NotPsdOnHalfLine",
    "NotPsdOnInterval", "NotPsdOnLine", "OddDegree", "PositiveMapMeasure",
    "ProbeReport", "PsdReport", "RecoveryResult", "ScalarizedSet",
    "ShiftFamily", "SosCertificate", "SpectralFactor", "SupportViolation",
    "block_hankel", "build_family", "cauchy_schwarz_chain",
    "certificate_from_json", "certificate_to_json", "check_hamburger",
    "check_hausdorff", "check_stieltjes", "compose_scalar",
    "decompose_halfline", "decompose_interval", "decompose_line", "eval_poly",
    "even_odd_split", "fejer_riesz", "forward_moments", "integrate_map",
    "integrate_trace", "laurent_from_json", "laurent_to_json",
    "leading_coeff_probe", "map_measure_from_json", "map_measure_to_json",
    "matmul", "matrixpoly_from_json", "matrixpoly_to_json",
    "measure_from_json", "measure_to_json", "momentsequence_from_json",
    "momentsequence_to_json", "operator_check", "positivity_audit", "recover",
    "scalar_poly_mult", "scalarize", "shift_compress", "sup_norm_on",
    "support_collapse_check", "transpose_poly", "verify_certificate",
    "verify_factor",
]
