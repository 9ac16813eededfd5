"""Quantum Tanner codes on left-right Cayley complexes: construction,
single-shot mismatch-decomposition decoding, and noise experiments."""

from .cayley import (
    FiniteGroup,
    GeneratingSet,
    LeftRightCayleyComplex,
    build_complex,
    build_group,
    validate_generating_set,
)
from .codes import (
    DualTensorCode,
    LinearCode,
    dual_tensor_code,
    full_space,
    min_distance_bruteforce,
    parity_code,
    repetition_code,
    sample_random_code,
    zero_code,
)
from .decoder import (
    LocalCodewordCache,
    initial_mismatch,
    parallel_decode,
    parallel_mismatch_decomposition,
    sequential_decode,
    sequential_mismatch_decomposition,
)
from .gf2 import BitMatrix, BitVector
from .noise import (
    DecoderConfig,
    NoiseModel,
    make_rng,
    run_multiround,
    run_single_shot_trial,
    run_sweep,
)
from .tanner import (
    QuantumTannerCode,
    classify_residual,
    code_dimension,
    reduced_weight,
    theory_report,
)

__version__ = "0.1.0"
