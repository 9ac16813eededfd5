"""Threshold bisection on lockstep trial blocks, for the tests that
print or pin an operating point (criterion 7 runs its context rates at a
quarter of it)."""

import numpy as np

from qtanner import tanner
from qtanner.noise import DecoderConfig, NoiseModel, run_trial_block
from qtanner.tanner import QuantumTannerCode


def estimate_threshold(
    code: QuantumTannerCode,
    cfg: DecoderConfig,
    trials: int = 100,
    master_seed: int = 0,
    lo: float = 0.0,
    hi: float = 0.5,
    iters: int = 8,
) -> float:
    """Bisect the bernoulli p = q level where the not-corrected frequency
    crosses 1/2; a coarse, reproducible operating-point estimate.

    Iteration ``it``, trial ``ti`` draws stream (it << 24) | ti, so
    ``trials`` must lie in [1, 2^24).
    """
    if not 1 <= trials < 1 << 24:
        raise ValueError(f"threshold trials must be in [1, 2^24), got {trials}")
    for it in range(iters):
        mid = (lo + hi) / 2
        model = NoiseModel(data_kind="bernoulli", p=mid, syn_kind="bernoulli", q=mid)
        [block] = run_trial_block(code, [(model, [(it << 24) | ti for ti in range(trials)])],
                                  [cfg], master_seed)
        fails = np.count_nonzero(block.classes[:, 0] != tanner.CORRECTED)
        if fails / trials < 0.5:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
