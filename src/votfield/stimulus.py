"""Gaussian input profiles and their composition into the external drive.

Each input is a static bump s(x) = a * exp(-(x - p)^2 / (2 w^2)) on the VOT
grid; the total drive fed to the field is the elementwise sum of all inputs.
Amplitudes may be negative (inhibitory input). Profiles are constant over a
trial.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .field import _finite, _width

logger = logging.getLogger(__name__)

# support-clipping warnings fire once per distinct (p, w, field_size)
_clip_warned = set()


@dataclass(frozen=True)
class GaussianInput:
    """One input bump: amplitude `a` (sign = excitatory/inhibitory), center
    `p` and width `w` in ms, plus a free-form `label` ("target", "mp", ...)."""

    a: float
    p: float
    w: float
    label: str = ""

    def __post_init__(self):
        for key in ("a", "p", "w"):
            val = _finite(f"input {self.label or key!r}: {key}", getattr(self, key))
            object.__setattr__(self, key, val)
        _width(f"input {self.label or 'gaussian'!r}: w", self.w)


def gaussian_profile(input, field_size):
    """Evaluate one input bump on the grid x = 0 .. field_size-1.

    Warns (once per geometry) when the bump is visibly clipped by a grid
    edge — when the edge value exceeds 1% of the amplitude, i.e. the edge lies
    within about three widths of the center. Clipped profiles are used as-is,
    without renormalization.
    """
    field_size = int(field_size)
    if field_size < 2:
        raise ConfigError(f"field_size must be >= 2, got {field_size}")
    if not 0 <= input.p < field_size:
        raise ConfigError(f"input {input.label or 'gaussian'!r}: p must lie on the grid "
                          f"[0, {field_size}), got {input.p}")
    x = np.arange(field_size, dtype=np.float64)
    profile = input.a * np.exp(-((x - input.p) ** 2) / (2.0 * input.w ** 2))
    if input.a != 0.0:
        left = np.exp(-(input.p ** 2) / (2.0 * input.w ** 2))
        right = np.exp(-((field_size - 1 - input.p) ** 2) / (2.0 * input.w ** 2))
        key = (input.p, input.w, field_size)
        if max(left, right) > 0.01 and key not in _clip_warned:
            _clip_warned.add(key)
            edge, frac = (0, left) if left >= right else (field_size - 1, right)
            logger.warning("input %r (p=%g, w=%g): support clipped at grid edge x=%d "
                           "(edge value %.1f%% of amplitude); using as-is",
                           input.label or "gaussian", input.p, input.w, edge, 100.0 * frac)
    return profile


def compose_inputs(inputs, field_size):
    """Elementwise sum of the given input profiles (empty list -> zeros)."""
    total = np.zeros(int(field_size), dtype=np.float64)
    for inp in inputs:
        total += gaussian_profile(inp, field_size)
    return total
