"""Approximation of periodic functions by translates of a single generator."""

from .approximant import (
    ClassElement,
    TranslateApproximant,
    approximation_error,
    assemble_Qm,
    build_Hm,
    class_inner_product,
    k_prime,
    kernel_section,
    spectral_image,
    vm_samples,
)
from . import approximant_md  # noqa: F401  (loaded before any tracer patches approximant)
from .error_budget import (
    EpsilonReport,
    RatePrediction,
    epsilon_general_p,
    epsilon_p2,
    gamma_k,
    predicted_rate,
)
from .lower_bound import (
    GrowthFunction,
    LowerBoundDesign,
    best_translate_fit,
    design_for_n,
    lattice_count,
    probe_Mn,
    sample_F_ns,
)
from .sequences import (
    Constant,
    CustomSequence,
    Exponential,
    ExponentMask,
    Korobov,
    MaskPower,
    MaskSpec,
    ProductSequence,
    TailRule,
    check_nondecreasing_type,
    eval_lambda,
    mask_sequence_value,
    truncated,
)
from .spectral import (
    GridSamples,
    SpectralFunction,
    analyze,
    convolve,
    evaluate,
    evaluate_many,
    freq_norm,
    lp_norm,
    partial_sum,
    synthesize,
)

__version__ = "0.1.0"
