"""Differentially private noise primitives.

The production mechanism is the two-sided geometric (discrete Laplace); its
default sampler runs on exact integer comparisons against a fixed 64-bit
threshold, so no floating-point structure leaks into the noise. A continuous
Laplace sampler exists only as an explicitly gated demo target for the
floating-point attack literature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .bitgen import GeneratorHandle
from .errors import InsecureUseRefused

_WORD_SPAN = 1 << 64


@dataclass(frozen=True)
class MechanismParams:
    """Privacy-loss budget and query sensitivity; the decay alpha is derived."""

    epsilon: float
    sensitivity: float = 1.0

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be positive")
        if not (self.sensitivity > 0 and math.isfinite(self.sensitivity)):
            raise ValueError("sensitivity must be positive")

    @property
    def alpha(self) -> float:
        # recomputed on demand, never stored, so it cannot drift from (epsilon, sensitivity)
        return math.exp(-self.epsilon / self.sensitivity)

    @cached_property
    def bernoulli_threshold(self) -> int:
        """floor(alpha * 2^64), computed exactly from the binary value of alpha, once.

        Remaining bias versus the real-valued alpha is at most 2^-64 plus
        alpha's own representation error; documented, not hidden.
        """
        frac = Fraction(self.alpha)
        return (frac.numerator << 64) // frac.denominator


@dataclass(frozen=True)
class NoisyMeasurement:
    """One protected value with the mechanism that produced it."""

    value: float | int
    mechanism: str
    params: MechanismParams
    insecure: bool = field(default=False)


def two_sided_geometric(params: MechanismParams, g: GeneratorHandle) -> int:
    """Sample k with P(k) = ((1-a)/(1+a)) * a^|k|, a = exp(-eps/sensitivity).

    Difference of two one-sided geometric variates, each counted by exact
    Bernoulli(alpha) trials: one fresh 64-bit word per trial, compared
    against the fixed integer threshold. Word consumption is unbounded but
    geometrically distributed, and its exact sequence is reproducible for a
    fixed seed.
    """
    t = params.bernoulli_threshold
    g1 = 0
    while g.next_u64() < t:
        g1 += 1
    g2 = 0
    while g.next_u64() < t:
        g2 += 1
    return g1 - g2


def two_sided_geometric_fast_insecure(params: MechanismParams, g: GeneratorHandle) -> int:
    """Inverse-CDF fast path on one 53-bit uniform; speed over leak-freedom.

    The float inverse map reintroduces exactly the representation structure
    the default sampler exists to avoid: do not use it on confidential data.
    """
    alpha = params.alpha
    u = g.next_double53()
    c = 1.0 / (1.0 + alpha)
    if u < c:
        if u <= 0.0:
            u = _WORD_SPAN ** -1  # smallest plausible mass; avoids log(0)
        return -math.floor(math.log(u / c) / math.log(alpha))
    k = math.ceil(math.log((1.0 - u) / c) / math.log(alpha)) - 1
    return max(k, 0)


def geometric_mechanism(true_counts, params: MechanismParams,
                        g: GeneratorHandle) -> list[NoisyMeasurement]:
    """Protect an integer array cell by cell, consuming words in array order.

    The draw order per cell is pinned: the state-recovery demo depends on
    knowing exactly which words belong to which cell.
    """
    out = []
    for count in true_counts:
        noise = two_sided_geometric(params, g)
        out.append(NoisyMeasurement(int(count) + noise, "geometric", params))
    return out


def laplace_mechanism_insecure(true_values, params: MechanismParams, g: GeneratorHandle,
                               *, insecure_override: bool = False) -> list[NoisyMeasurement]:
    """Continuous Laplace via the textbook inverse CDF on 53-bit uniforms.

    Kept solely so the attack module can exhibit the floating-point
    structure of this construction; refuses to run without the explicit
    override flag. One uniform per value; u = 0.5 maps to zero noise.
    """
    if not insecure_override:
        raise InsecureUseRefused(
            "the continuous Laplace sampler is a demonstration target; "
            "pass insecure_override=True to run it anyway")
    b = params.sensitivity / params.epsilon
    out = []
    for value in true_values:
        u = g.next_double53()
        x = u - 0.5
        inner = 1.0 - 2.0 * abs(x)
        if inner <= 0.0:  # u == 0.0, one draw in 2^53
            inner = _WORD_SPAN ** -1
        noise = -b * math.copysign(1.0, x) * math.log(inner)
        if x == 0.0:
            noise = 0.0
        out.append(NoisyMeasurement(value + noise, "laplace-insecure", params, insecure=True))
    return out


# --- closed forms used by callers and tests ---

def two_sided_geometric_pmf(k: int, alpha: float) -> float:
    return (1.0 - alpha) / (1.0 + alpha) * alpha ** abs(k)


def two_sided_geometric_mass_within(K: int, alpha: float) -> float:
    """Total probability of |k| <= K: 1 - 2 a^(K+1) / (1+a)."""
    return 1.0 - 2.0 * alpha ** (K + 1) / (1.0 + alpha)
