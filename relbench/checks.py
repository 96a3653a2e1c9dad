"""Output checks that hold for any correct program, computed apart from dprand.

Each check returns a list of failure messages; an empty list is a pass.
Thresholds are set so that a correct program fails a run with probability
below 1e-6. A mechanism run makes three statistical checks (noise
chi-square, mean, variance) at P_FLOOR each; the mean and variance use the
normal approximation, which the hundreds of thousands of cells in a run
support. A bulk run splits RUN_FLOOR over every p-value of its battery.
Two streams share a first word with chance n^2 / 2^65 for n streams.
"""
from __future__ import annotations

import math
from collections import Counter
from numbers import Integral

import numpy as np
from scipy import stats

from refdrbg import reference_stream

P_FLOOR = 1e-7    # per noise check (chi-square, mean, variance)
RUN_FLOOR = 5e-7  # whole byte battery of one run, split evenly over its p-values
MIN_EXPECTED = 50  # smallest expected count of a chi-square bin
_Z_FLOOR = float(stats.norm.isf(P_FLOOR / 2))


def geometric_pmf(k: np.ndarray, alpha: float) -> np.ndarray:
    """Two-sided geometric pmf (1-a)/(1+a) * a^|k|."""
    return (1.0 - alpha) / (1.0 + alpha) * alpha ** np.abs(k)


class NoiseTally:
    """Histogram of protected - true over every cell of a run."""

    def __init__(self):
        self.hist: Counter = Counter()
        self.non_integer = 0

    def add(self, protected, true_counts) -> None:
        noise = [p - t for p, t in zip(protected, true_counts)]
        ints = [k for k in noise if isinstance(k, Integral)]
        self.non_integer += len(noise) - len(ints)
        self.hist.update(int(k) for k in ints)


def check_noise(tally: NoiseTally, epsilon: float) -> list[str]:
    """Noise is integer, fits the pmf at alpha = e^-epsilon, mean 0, variance 2a/(1-a)^2."""
    if tally.non_integer:
        return [f"{tally.non_integer} cells carry non-integer noise"]
    n = sum(tally.hist.values())
    if n == 0:
        return ["no protected cells to check"]
    alpha = math.exp(-epsilon)
    ks = np.array(list(tally.hist), dtype=np.int64)
    counts = np.array(list(tally.hist.values()), dtype=np.float64)
    failures = []

    # chi-square over |k| <= K plus one pooled bin per tail, every bin expected >= MIN_EXPECTED
    tail = lambda K: n * alpha ** (K + 1) / (1.0 + alpha)  # expected count of k > K
    K = 0
    while n * geometric_pmf(K + 1, alpha) >= MIN_EXPECTED and tail(K + 1) >= MIN_EXPECTED:
        K += 1
    centre = np.arange(-K, K + 1)
    expected = np.concatenate([[tail(K)], n * geometric_pmf(centre, alpha), [tail(K)]])
    observed = np.concatenate([
        [counts[ks < -K].sum()],
        [counts[ks == k].sum() for k in centre],
        [counts[ks > K].sum()],
    ])
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    p = float(stats.chi2.sf(chi2, expected.size - 1))
    if p < P_FLOOR:
        failures.append(f"noise chi-square {chi2:.1f} on {expected.size - 1} df, p={p:.3g}")

    # moments about the known mean 0; the fourth moment is summed from the pmf
    var = 2 * alpha / (1 - alpha) ** 2
    span = np.arange(-int(60 / epsilon) - 1, int(60 / epsilon) + 2).astype(np.float64)
    mu4 = float((span ** 4 * geometric_pmf(span, alpha)).sum())
    mean = float((ks * counts).sum()) / n
    second = float((ks.astype(np.float64) ** 2 * counts).sum()) / n
    z_mean = mean / math.sqrt(var / n)
    z_var = (second - var) / math.sqrt((mu4 - var ** 2) / n)
    if abs(z_mean) > _Z_FLOOR:
        failures.append(f"noise mean {mean:.4f} is {z_mean:.1f} standard errors from 0")
    if abs(z_var) > _Z_FLOOR:
        failures.append(f"noise variance {second:.3f} is {z_var:.1f} standard errors "
                        f"from {var:.3f}")
    return failures


def check_distinct(first_words: list[int]) -> list[str]:
    """The first 64-bit words of a run's streams are pairwise distinct."""
    dupes = len(first_words) - len(set(first_words))
    return [f"{dupes} streams repeat another stream's first word"] if dupes else []


def check_battery(results: list[tuple[str, float, float]]) -> list[str]:
    """Every (test, statistic, p) of the smoke battery stays above RUN_FLOOR / count.

    The runs test reports p = 0 with an infinite statistic when its
    precondition, a bit balance within 4 standard deviations, fails; that
    happens to 6e-5 of correct samples, so the balance is judged by the
    monobit p-value alone.
    """
    if not results:
        return ["no chunk went through the stat battery"]
    floor = RUN_FLOOR / len(results)
    return [f"{name} p={p:.3g} below the run floor {floor:.3g}"
            for name, stat, p in results
            if p < floor and not (name == "runs" and math.isinf(stat))]


def check_stream(seed_material: bytes, received: bytes, refill: int = 65536) -> list[str]:
    """The bytes a handle delivered equal the reference DRBG's stream from the same seed."""
    expected = reference_stream(seed_material, len(received), refill)
    if received == expected:
        return []
    first = next(i for i, (a, b) in enumerate(zip(received, expected)) if a != b)
    return [f"stream differs from the reference at byte {first} "
            f"({first // refill} refills in)"]


def check_word_count(words_emitted: int, nbytes: int) -> list[str]:
    """A handle's 32-bit word counter must match the bytes it handed out."""
    if words_emitted * 4 == nbytes:
        return []
    return [f"handle counted {words_emitted} 32-bit words for {nbytes} bytes"]
