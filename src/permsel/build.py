"""Probabilistic selector construction: size formulas and Las Vegas search.

Random selectors include each label in each set independently with
probability 1/k.  The size formulas give a length m at which such a draw is
a permutation selector with positive probability; `build_verified` pairs the
draw with an exhaustive verifier and retries until a certified selector
comes out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AttemptsExhaustedError, BudgetExceededError
from .selectors import DEFAULT_BUDGET, Selector, _charge, check_target, verify

# Grid searched for the smallest constant c with c * beta**c < 1/16.
C_GRID_STEP = 0.25
C_GRID_MAX = 1024.0


def isolation_gamma(k: int) -> float:
    """Probability that a random 1/k-density set isolates some element of a
    fixed k-set: (1 - 1/k)**(k-1), in (1/e, 1/2] for k >= 2."""
    if k < 2:
        raise ValueError("gamma is defined for k >= 2")
    return (1.0 - 1.0 / k) ** (k - 1)


def chernoff_alpha(k: int) -> float:
    """Base of the lower-tail bound on the isolation count: exp(-delta^2*gamma/2)."""
    gamma = isolation_gamma(k)
    delta = 1.0 - 1.0 / (4.0 * gamma)
    return math.exp(-delta * delta * gamma / 2.0)


def tail_beta(k: int) -> float:
    """max(alpha, e^{-1/4}), the base of the per-instance failure bound."""
    return max(chernoff_alpha(k), math.exp(-0.25))


def smallest_c(beta: float) -> float:
    """Smallest c on the grid {0.25, 0.5, ..., 1024} with c * beta**c < 1/16."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must be in (0, 1)")
    steps = int(round(C_GRID_MAX / C_GRID_STEP))
    for i in range(1, steps + 1):
        c = i * C_GRID_STEP
        if c * beta**c < 1.0 / 16.0:
            return c
    raise ValueError(f"no c on the grid satisfies c*beta^c < 1/16 for beta={beta}")


@dataclass(frozen=True)
class SizeParams:
    """Derived constants and the resulting selector length for a (k, N) or
    (k, q, N) target.  `clamped` records whether m was raised to 2k."""

    k: int
    universe_size: int
    q: Optional[int]
    gamma: float
    delta: float
    alpha: float
    beta: float
    c: float
    m: int
    clamped: bool = False

    def report(self) -> str:
        return (
            f"gamma={self.gamma!r} delta={self.delta!r} alpha={self.alpha!r} "
            f"beta={self.beta!r} c={self.c!r} m={self.m}"
        )


def derive_size_params(k: int, universe_size: int, q: Optional[int] = None) -> SizeParams:
    """Compute gamma, delta, alpha, beta, the grid constant c, and
    m = ceil(c * k^2 * log2 N), or ceil(c * k * q * log2 N) when q is given.

    m is clamped to at least 2k (recorded in `clamped`).  Logarithms are
    base 2 throughout.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if universe_size < 2:
        raise ValueError("universe size must be at least 2")
    if k > universe_size:
        raise ValueError(f"k={k} exceeds universe size {universe_size}")
    if q is not None and not 1 <= q <= k:
        raise ValueError(f"q must be in [1, k], got {q}")
    gamma = isolation_gamma(k)
    delta = 1.0 - 1.0 / (4.0 * gamma)
    alpha = chernoff_alpha(k)
    beta = tail_beta(k)
    c = smallest_c(beta)
    log_n = math.log2(universe_size)
    raw = c * k * (q if q is not None else k) * log_n
    m = math.ceil(raw)
    clamped = m < 2 * k
    if clamped:
        m = 2 * k
    return SizeParams(k, universe_size, q, gamma, delta, alpha, beta, c, m, clamped)


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------

def substream_seed(seed: int, *key: int) -> int:
    """Derive a 64-bit child seed from (seed, key) via SeedSequence spawn keys."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def random_selector(k: int, universe_size: int, m: int, seed: int) -> Selector:
    """m random sets over [0, universe_size), each label included independently
    with probability 1/k.

    Set index t draws from its own PCG64 sub-stream (spawn key (t,)), so the
    length-m selector for a seed is a prefix of the length-(m+1) one.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if m < 0:
        raise ValueError("m must be non-negative")
    p = 1.0 / k
    sets = []
    for t in range(m):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(t,))))
        members = np.flatnonzero(rng.random(universe_size) < p)
        sets.append(frozenset(int(x) for x in members))
    return Selector(universe_size, tuple(sets))


@dataclass(frozen=True)
class BuildConfig:
    """Knobs for the generate-and-verify loop."""

    seed: int = 0
    max_attempts: int = 50
    m_override: Optional[int] = None
    size_mode: str = "up_to"
    target: str = "permutation"
    q: Optional[int] = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.m_override is not None and self.m_override < 0:
            raise ValueError("m_override must be non-negative")
        check_target(self.target, self.q)


def _default_m(k: int, universe_size: int, config: BuildConfig) -> int:
    if config.m_override is not None:
        return config.m_override
    if k == 1:
        # Inclusion probability 1 makes every set the full universe; one set
        # isolates every singleton.
        return 1
    return derive_size_params(k, universe_size, config.q).m


def _charge_length(k: int, universe_size: int, m: int, config: BuildConfig) -> None:
    """Refuse a length the configured verifier would refuse, before drawing it."""
    _charge(universe_size, m, k, config.target, config.q, config.size_mode, config.budget)


def build_verified(k: int, universe_size: int, config: BuildConfig) -> tuple[Selector, int]:
    """Generate random selectors until one passes the configured verifier.

    Attempt a (1-based) draws with the child seed substream_seed(seed, a-1),
    so attempts are reproducible and independent.  Returns the selector and
    the number of attempts used.  Invalid arguments and a length over the
    verifier's budget are refused before the first draw.
    """
    m = _default_m(k, universe_size, config)
    _charge_length(k, universe_size, m, config)
    for attempt in range(1, config.max_attempts + 1):
        selector = random_selector(k, universe_size, m, substream_seed(config.seed, attempt - 1))
        if verify(selector, k, config.target, config.q, config.size_mode, config.budget).ok:
            return selector, attempt
    raise AttemptsExhaustedError(
        f"no verified selector in {config.max_attempts} attempts "
        f"(k={k}, N={universe_size}, m={m}, target={config.target})"
    )


def minimal_m_search(k: int, universe_size: int, config: BuildConfig,
                     trials_per_m: int, max_m: Optional[int] = None) -> int:
    """Smallest m in [1, max_m] at which one of trials_per_m seeded draws
    verifies; max_m defaults to the configured length (m_override, else the
    derived size).

    Trial j draws with the child seed substream_seed(seed, j) at every
    length, and random_selector gives each set its own sub-stream, so the
    length-m draw of a trial is a prefix of its length-(m+1) draw and a
    trial that verifies at m verifies at every larger m.  The test "some
    trial verifies at m" is therefore monotone, and a galloping search
    (m = 1, 2, 4, ... until it holds, then bisection below) finds the same
    smallest m as trying every length in turn.  A length is probed by
    drawing and verifying the trials in order up to the first that passes;
    the trials before it failed at that length, so they cannot pass at any
    smaller one and are dropped.

    A length over the verifier's budget is refused before anything is
    drawn.  That refusal is monotone in m too, so it ends the search like a
    pass: when the smallest length that does not fail is refused, the
    refusal is raised, as a scan from m = 1 would raise it.
    """
    if trials_per_m < 1:
        raise ValueError("trials_per_m must be at least 1")
    if max_m is None:
        max_m = _default_m(k, universe_size, config)
    seeds = [substream_seed(config.seed, j) for j in range(trials_per_m)]

    def stops(m: int) -> bool:
        """Whether length m ends the search: it is over budget, or a trial
        verifies at it (and the trials before that one are dropped)."""
        try:
            _charge_length(k, universe_size, m, config)
        except BudgetExceededError:
            return True
        for i, s in enumerate(seeds):
            selector = random_selector(k, universe_size, m, s)
            if verify(selector, k, config.target, config.q, config.size_mode, config.budget).ok:
                del seeds[:i]
                return True
        return False

    # Every length <= lo fails; hi is probed next, then is the smallest stop.
    lo, hi = 0, 1
    while hi <= max_m and not stops(hi):
        lo, hi = hi, (min(2 * hi, max_m) if hi < max_m else hi + 1)
    if hi > max_m:
        raise AttemptsExhaustedError(
            f"no verified selector up to m={max_m} with {trials_per_m} trials per length"
        )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if stops(mid):
            hi = mid
        else:
            lo = mid
    _charge_length(k, universe_size, hi, config)  # raises when hi stopped by its refusal
    return hi
