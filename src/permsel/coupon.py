"""Exact and empirical oracles for the coupon-subsequence probabilities.

For a uniform random sequence of length ell over the alphabet {0..k-1},
`p_exact` is the probability that 0,1,...,k-1 does NOT occur as a
subsequence; `p_jump_exact` is the same for "jump" subsequences that pick
one symbol from each of q consecutive equal blocks of the alphabet, in
block order.  Every closed form is paired with an enumeration oracle and a
floating-point upper bound, plus Monte-Carlo estimators.

All exact values are `fractions.Fraction`s computed in integer arithmetic;
floats appear only in the bounds and estimators.  Note the bound base
exp(-1/q) of the jump chain is unrelated to the isolation probability
gamma of `permsel.build` despite the notational similarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

import numpy as np

from .build import chernoff_alpha, tail_beta
from .errors import BudgetExceededError

# Ceiling on k**ell for the enumeration oracles.
DEFAULT_ENUM_BUDGET = 2**24


def _validate_ell_k(ell: int, k: int) -> None:
    if k < 2:
        raise ValueError("k must be at least 2")
    if ell < 1:
        raise ValueError("ell must be at least 1")


def p_exact(ell: int, k: int) -> Fraction:
    """Probability that a uniform length-ell sequence over {0..k-1} does not
    contain 0,1,...,k-1 as a subsequence.

    Closed form: sum_{j=0}^{k-1} C(ell,j) (k-1)^(ell-j) / k^ell.  For
    ell < k the sum telescopes to exactly 1 (the pattern cannot fit).  The
    plain pattern is the jump pattern with q = k blocks of one symbol.
    """
    return p_jump_exact(ell, k, k)


def p_jump_exact(ell: int, k: int, q: int) -> Fraction:
    """Probability that a uniform length-ell sequence over {0..k-1} contains
    no length-q jump subsequence (one symbol from each consecutive block of
    k/q symbols, in block order).

    Requires q to divide k; the uneven-block case has no exact closed form
    here and is served by `p_monte_carlo` only.
    """
    _validate_ell_k(ell, k)
    if not 1 <= q <= k:
        raise ValueError(f"q must be in [1, k], got {q}")
    if k % q != 0:
        raise ValueError(f"q={q} must divide k={k} for the exact formula")
    b = k // q
    # Terms with j > ell vanish (comb is 0); skipping them keeps the
    # arithmetic in plain integers.
    total = sum(comb(ell, j) * b**j * (k - b) ** (ell - j) for j in range(min(q, ell + 1)))
    return Fraction(total, k**ell)


# ---------------------------------------------------------------------------
# enumeration oracles
# ---------------------------------------------------------------------------

def _count_missing(ell: int, k: int, target_of_symbol: np.ndarray, goal: int,
                   budget: int) -> int:
    """Count sequences in {0..k-1}^ell whose greedy scan through
    target_of_symbol never reaches `goal` stages."""
    total = k**ell
    if total > budget:
        raise BudgetExceededError(f"k^ell = {total} exceeds enumeration budget {budget}")
    idx = np.arange(total, dtype=np.int64)
    state = np.zeros(total, dtype=np.int64)
    for j in range(ell):
        column = (idx // k ** (ell - 1 - j)) % k
        state += target_of_symbol[column] == state
    return int(np.count_nonzero(state < goal))


def p_bruteforce(ell: int, k: int, budget: int = DEFAULT_ENUM_BUDGET) -> Fraction:
    """p_exact by enumerating all k^ell sequences with a greedy scan."""
    return p_jump_bruteforce(ell, k, k, budget)


def p_jump_bruteforce(ell: int, k: int, q: int, budget: int = DEFAULT_ENUM_BUDGET) -> Fraction:
    """p_jump_exact by enumeration; symbol s belongs to block s // (k/q)."""
    _validate_ell_k(ell, k)
    if not 1 <= q <= k:
        raise ValueError(f"q must be in [1, k], got {q}")
    if k % q != 0:
        raise ValueError(f"q={q} must divide k={k}")
    block_of = np.arange(k, dtype=np.int64) // (k // q)
    return Fraction(_count_missing(ell, k, block_of, q, budget), k**ell)


# ---------------------------------------------------------------------------
# upper bounds
# ---------------------------------------------------------------------------

def p_bound(ell: int, k: int) -> float:
    """The analytic upper bound exp(-ell/k) * (2 ell / k)^k on p_exact."""
    _validate_ell_k(ell, k)
    if ell < k:
        raise ValueError(f"the bound needs ell >= k, got ell={ell}, k={k}")
    return p_jump_bound(ell, k, k)


def p_jump_bound(ell: int, k: int, q: int) -> float:
    """The analytic upper bound exp(-ell/q) * (2 ell / q)^q on p_jump_exact.

    The bound does not depend on k; the argument is kept for symmetry with
    the exact forms.  Past the float range it is math.inf, a vacuous but
    valid upper bound.
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


def p_monte_carlo(ell: int, k: int, q: Optional[int] = None, trials: int = 10_000,
                  seed: int = 0) -> tuple[float, float]:
    """Frequency estimate of p_exact (q=None) or p_jump_exact, with its
    binomial standard error.  Unlike the exact forms, any q <= k is allowed;
    uneven blocks follow `jump_blocks`."""
    _validate_ell_k(ell, k)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    goal = k if q is None else q
    target_of_symbol = np.empty(k, dtype=np.int64)
    for h, block in enumerate(jump_blocks(k, goal)):
        target_of_symbol[list(block)] = h
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    seqs = rng.integers(0, k, size=(trials, ell))
    state = np.zeros(trials, dtype=np.int64)
    for j in range(ell):
        state += target_of_symbol[seqs[:, j]] == state
    misses = int(np.count_nonzero(state < goal))
    estimate = misses / trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, std_error


# ---------------------------------------------------------------------------
# tail and union bounds
# ---------------------------------------------------------------------------

def chernoff_tail(m: int, k: int) -> float:
    """The lower-tail bound alpha^m on Pr[h <= m/4], where h counts the sets
    of a length-m random selector isolating some element of a fixed k-set."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return chernoff_alpha(k) ** m


def chernoff_tail_empirical(m: int, k: int, trials: int, seed: int = 0,
                            chunk: int = 10_000) -> tuple[float, float]:
    """Empirical frequency of the tail event h <= floor(m/4) under the random
    construction, with its binomial standard error.

    Isolation of X = {0..k-1} depends only on the k membership draws inside
    X, so only those columns are simulated; the universe size is irrelevant.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if k < 2:
        raise ValueError("k must be at least 2")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    threshold = m // 4
    hits = 0
    remaining = trials
    while remaining > 0:
        batch = min(chunk, remaining)
        draws = rng.random((batch, m, k)) < 1.0 / k
        h = (draws.sum(axis=2) == 1).sum(axis=1)
        hits += int(np.count_nonzero(h <= threshold))
        remaining -= batch
    freq = hits / trials
    return freq, math.sqrt(freq * (1.0 - freq) / trials)


@dataclass(frozen=True)
class UnionBoundReport:
    """Log-space evaluation of the existence certificate.

    `log2_per_instance` is the per-instance failure bound
    beta^(m/k) * (m/k)^k at m = c*k^2*log2(N); `log2_value` is the full
    union bound N^(4k) * (c*beta^c)^(k*log2 N).  Existence is certified
    when the latter is below 1.
    """

    k: int
    universe_size: int
    c: float
    beta: float
    log2_per_instance: float
    log2_value: float
    existence_certified: bool

    @property
    def value(self) -> float:
        try:
            return 2.0**self.log2_value
        except OverflowError:
            return math.inf


def union_bound_value(k: int, universe_size: int, c: float) -> UnionBoundReport:
    """Evaluate the union bound in log2 space and report whether it
    certifies existence (value < 1)."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if universe_size < 2:
        raise ValueError("universe size must be at least 2")
    if c <= 0:
        raise ValueError("c must be positive")
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got c={c!r}")
    beta = tail_beta(k)
    log_n = math.log2(universe_size)
    m = c * k * k * log_n
    if math.isinf(m):
        raise ValueError(f"c={c!r} is too large: m = c*k^2*log2(N) overflows a float")
    log2_per_instance = (m / k) * math.log2(beta) + k * math.log2(m / k)
    # beta**c underflows to 0 for large c; only then split the log2 of the product.
    product = c * beta**c
    log2_product = math.log2(product) if product > 0 else math.log2(c) + c * math.log2(beta)
    log2_value = 4.0 * k * log_n + k * log_n * log2_product
    return UnionBoundReport(
        k=k,
        universe_size=universe_size,
        c=c,
        beta=beta,
        log2_per_instance=log2_per_instance,
        log2_value=log2_value,
        existence_certified=log2_value < 0.0,
    )
