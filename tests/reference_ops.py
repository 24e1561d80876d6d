"""Autodiff ops and scalar oracles that only the tests' reference compositions use, kept out of slotlab."""

import numpy as np

from slotlab import tensor as T
from slotlab.tensor import Tensor


def logsumexp_lastdim(x: Tensor) -> Tensor:
    """log sum exp over the last axis, shifted by the row max; a row of -inf gives -inf."""
    d = x.data
    m = d.max(axis=-1, keepdims=True)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    s = np.exp(d - safe_m).sum(axis=-1, keepdims=True)
    out = (safe_m + np.log(s)).squeeze(-1)

    def bwd(g, sink):
        p = np.exp(d - safe_m) / s
        sink(x, p * np.expand_dims(g, -1))

    return T._result(out, (x,), bwd)


def relative_index(i: int, j: int, max_distance: int) -> int:
    """Bucket of the signed offset j - i, clipped to [-R, R], shifted to [0, 2R]."""
    return int(np.clip(j - i, -max_distance, max_distance)) + max_distance
