"""Exact values, bounds and estimates of the coupon-subsequence probabilities.

For a uniform random sequence of length ell over the alphabet {0..k-1},
`p_jump_exact` is the probability that no "jump" subsequence occurs: one
symbol from each of q consecutive equal blocks of the alphabet, in block
order.  At q = k that is the plain pattern 0,1,...,k-1.  The closed form
has a floating-point upper bound and a Monte-Carlo estimator.

All exact values are `fractions.Fraction`s computed in integer arithmetic;
floats appear only in the bounds and estimators.

`p_jump_sweep` yields the exact values over a range of ell by a one-term
recurrence instead of the q-term closed form.  With b = k/q, let T(ell)
count the words that miss the pattern (so p = T / k^ell) and
a(ell) = C(ell, q-1) b^(q-1) (k-b)^(ell-q+1) the words at the last greedy
stage, q-1.  Appending a letter keeps every missing word missing except a
last-stage word followed by one of the b letters of the last block, so

    T(ell+1) = k T(ell) - b a(ell),
    a(ell+1) = a(ell) (k-b) (ell+1) / (ell+2-q)    (an exact division),

and a row costs O(1) big-integer operations.  The plain pattern is q = k;
q = 1 has k - b = 0, so a and T vanish.  Note the bound base
exp(-1/q) of the jump chain is unrelated to the isolation probability
`isolation_gamma` below despite the notational similarity.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator

import numpy as np

# Trials per Monte-Carlo chunk, fewer (but one at least) where a chunk would
# hold more than MC_MAX_ELEMENTS draws.  A chunk peaks at about 9 bytes per
# draw: the 8-byte draw and its one-byte blocks (two-byte past 255 blocks).
# Rows drawn chunk by chunk from one generator are the rows of one big draw,
# so estimates do not change.
MC_CHUNK = 4096
MC_MAX_ELEMENTS = 2**22


def _validate_ell_k(ell: int, k: int) -> None:
    if k < 2:
        raise ValueError("k must be at least 2")
    if ell < 1:
        raise ValueError("ell must be at least 1")


def p_exact(ell: int, k: int) -> Fraction:
    """Probability that a uniform length-ell sequence over {0..k-1} does not
    contain 0,1,...,k-1 as a subsequence: `p_jump_exact(ell, k, k)`, the
    jump pattern with q = k blocks of one symbol, named so that
    perfbench/tracer.py can time it.  Call `p_jump_exact`.

    Closed form: sum_{j=0}^{k-1} C(ell,j) (k-1)^(ell-j) / k^ell.  For
    ell < k the sum telescopes to exactly 1 (the pattern cannot fit).
    """
    return p_jump_exact(ell, k, k)


def p_jump_exact(ell: int, k: int, q: int) -> Fraction:
    """Probability that a uniform length-ell sequence over {0..k-1} contains
    no length-q jump subsequence (one symbol from each consecutive block of
    k/q symbols, in block order).

    Requires q to divide k; the uneven-block case has no exact closed form
    here and is served by `p_monte_carlo` only.
    """
    _validate_jump(ell, k, q)
    return Fraction(_missing_words(ell, k, q), k**ell)


def _validate_jump(ell: int, k: int, q: int) -> None:
    _validate_ell_k(ell, k)
    if not 1 <= q <= k:
        raise ValueError(f"q must be in [1, k], got {q}")
    if k % q != 0:
        raise ValueError(f"q={q} must divide k={k} for the exact formula")


def _missing_words(ell: int, k: int, q: int) -> int:
    """The closed form: words of length ell that miss the q-block pattern."""
    b = k // q
    # Terms with j > ell vanish (comb is 0); skipping them keeps the
    # arithmetic in plain integers.
    return sum(comb(ell, j) * b**j * (k - b) ** (ell - j) for j in range(min(q, ell + 1)))


def p_jump_sweep(k: int, q: int, ell_min: int, ell_max: int) -> Iterator[Fraction]:
    """p_jump_exact(ell, k, q) for ell = ell_min..ell_max, in order, by the
    recurrence in the module docstring.

    The inputs are checked here, before the first value is computed, and
    an empty range is an error.
    """
    _validate_jump(ell_min, k, q)
    if ell_max < ell_min:
        raise ValueError(f"ell_max must be at least ell_min, got ell_min={ell_min}, "
                         f"ell_max={ell_max}")
    return _sweep(k, q, ell_min, ell_max)


def _sweep(k: int, q: int, ell_min: int, ell_max: int) -> Iterator[Fraction]:
    b, rest = k // q, k - k // q
    missing, words = _missing_words(ell_min, k, q), k**ell_min
    # Words at the last greedy stage, q - 1; there are none while ell < q - 1.
    last = 0
    if ell_min >= q - 1:
        last = comb(ell_min, q - 1) * b ** (q - 1) * rest ** (ell_min - q + 1)
    for ell in range(ell_min, ell_max + 1):
        yield Fraction(missing, words)
        missing, words = k * missing - b * last, words * k
        if ell + 1 == q - 1:
            last = b ** (q - 1)
        elif ell + 1 > q - 1:
            last = last * rest * (ell + 1) // (ell + 2 - q)


# ---------------------------------------------------------------------------
# upper bounds
# ---------------------------------------------------------------------------

def p_bound(ell: int, k: int) -> float:
    """The analytic upper bound exp(-ell/k) * (2 ell / k)^k on p_exact, for ell >= k
    and k >= 2: `p_jump_bound(ell, k)`, named so that perfbench/tracer.py can
    time it.  Call `p_jump_bound`."""
    _validate_ell_k(ell, k)
    return p_jump_bound(ell, k)


def p_jump_bound(ell: int, q: int) -> float:
    """The analytic upper bound exp(-ell/q) * (2 ell / q)^q on p_jump_exact,
    for every k.  Past the float range it is math.inf, a vacuous but valid
    upper bound.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    if ell < q:
        raise ValueError(f"the bound needs ell >= q, got ell={ell}, q={q}")
    try:
        return math.exp(-ell / q) * (2.0 * ell / q) ** q
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Monte-Carlo estimators
# ---------------------------------------------------------------------------

def jump_blocks(k: int, q: int) -> list[range]:
    """Partition {0..k-1} into q consecutive blocks; when q does not divide k
    the first k % q blocks take the extra symbol."""
    if not 1 <= q <= k:
        raise ValueError(f"q must be in [1, k], got {q}")
    small, extra = divmod(k, q)
    blocks, start = [], 0
    for h in range(q):
        size = small + (1 if h < extra else 0)
        blocks.append(range(start, start + size))
        start += size
    return blocks


def p_monte_carlo(ell: int, k: int, q: int, trials: int = 10_000,
                  seed: int = 0) -> tuple[float, float]:
    """Frequency estimate of p_jump_exact (q = k is the plain pattern), with
    its binomial standard error.  Unlike the exact forms, any q <= k is
    allowed; uneven blocks follow `jump_blocks`.

    Trials are drawn and scanned in chunks (see MC_CHUNK), so memory is
    O(max(MC_MAX_ELEMENTS, ell)) whatever the number of trials.
    """
    _validate_ell_k(ell, k)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    # Stages never exceed q, so the smallest type that holds it will do.
    stage_type = np.min_scalar_type(q)
    block_of = np.empty(k, dtype=stage_type)
    for h, block in enumerate(jump_blocks(k, q)):
        block_of[list(block)] = h
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    misses = 0
    chunk = max(1, min(MC_CHUNK, MC_MAX_ELEMENTS // ell))
    for start in range(0, trials, chunk):
        rows = min(chunk, trials - start)
        # Gathering on the draw as drawn frees it before the one-byte blocks
        # are transposed: row j then holds the block of letter j of every
        # trial of the chunk, contiguous.
        blocks = np.ascontiguousarray(block_of.take(rng.integers(0, k, size=(rows, ell))).T)
        state = np.zeros(rows, dtype=stage_type)
        for letter_blocks in blocks:
            state += letter_blocks == state
        misses += int(np.count_nonzero(state < q))
    estimate = misses / trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, std_error


# ---------------------------------------------------------------------------
# tail and union bounds
# ---------------------------------------------------------------------------

def isolation_gamma(k: int) -> float:
    """Probability that a random 1/k-density set isolates some element of a
    fixed k-set: (1 - 1/k)**(k-1), in (1/e, 1/2] for k >= 2."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return (1.0 - 1.0 / k) ** (k - 1)


def chernoff_delta(k: int) -> float:
    """Relative deviation 1 - 1/(4 gamma) of the Chernoff lower tail."""
    return 1.0 - 1.0 / (4.0 * isolation_gamma(k))


def chernoff_alpha(k: int) -> float:
    """Base of the lower-tail bound on the isolation count: exp(-delta^2*gamma/2)."""
    delta = chernoff_delta(k)
    return math.exp(-delta * delta * isolation_gamma(k) / 2.0)


def tail_beta(k: int) -> float:
    """max(alpha, e^{-1/4}), the base of the per-instance failure bound."""
    return max(chernoff_alpha(k), math.exp(-0.25))


@dataclass(frozen=True)
class UnionBoundReport:
    """Log-space evaluation of the existence certificate.

    `log2_per_instance` is the per-instance failure bound
    beta^(m/k) * (m/k)^k at m = c*k^2*log2(N); `log2_value` is the full
    union bound N^(4k) * (c*beta^c)^(k*log2 N).  Existence is certified
    when the latter is below 1.
    """

    log2_per_instance: float
    log2_value: float
    existence_certified: bool


def union_bound_value(k: int, universe_size: int, c: float) -> UnionBoundReport:
    """Evaluate the union bound in log2 space and report whether it
    certifies existence (log2_value < 0).  `isolation_gamma` refuses k < 2."""
    beta = tail_beta(k)
    if universe_size < 2:
        raise ValueError("universe size must be at least 2")
    if c <= 0:
        raise ValueError("c must be positive")
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got c={c!r}")
    log_n = math.log2(universe_size)
    m = c * k * k * log_n
    if math.isinf(m):
        raise ValueError(f"c={c!r} is too large: m = c*k^2*log2(N) overflows a float")
    log2_per_instance = (m / k) * math.log2(beta) + k * math.log2(m / k)
    # Below the smallest normal float c * beta**c has lost digits (or is 0);
    # only there split the log2 of the product.
    product = c * beta**c
    if product >= sys.float_info.min:
        log2_product = math.log2(product)
    else:
        log2_product = math.log2(c) + c * math.log2(beta)
    log2_value = 4.0 * k * log_n + k * log_n * log2_product
    return UnionBoundReport(log2_per_instance, log2_value, log2_value < 0.0)
