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

from .coupon import chernoff_alpha, chernoff_delta, isolation_gamma, tail_beta
from .errors import AttemptsExhaustedError, BudgetExceededError
from .selectors import DEFAULT_BUDGET, Selector, _charge, check_request, check_target, verify

# Grid searched for the smallest constant c with c * beta**c < 1/16.
C_GRID_STEP = 0.25
C_GRID_MAX = 1024.0


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
    (k, q, N) target."""

    gamma: float
    delta: float
    alpha: float
    beta: float
    c: float
    m: int

    def report(self) -> str:
        return (
            f"gamma={self.gamma!r} delta={self.delta!r} alpha={self.alpha!r} "
            f"beta={self.beta!r} c={self.c!r} m={self.m}"
        )


def derive_size_params(k: int, universe_size: int, q: Optional[int] = None) -> SizeParams:
    """Compute gamma, delta, alpha, beta, the grid constant c, and
    m = ceil(c * k^2 * log2 N), or ceil(c * k * q * log2 N) when q is given.

    Logarithms are base 2 throughout.  tail_beta(k) >= e^{-1/4} makes
    c >= 24, so m >= 24k.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    # k <= N (so N >= 2) and q in [1, k], as every request is checked.
    check_request(universe_size, k, "permutation", q, "exact")
    gamma = isolation_gamma(k)
    delta = chernoff_delta(k)
    alpha = chernoff_alpha(k)
    beta = tail_beta(k)
    c = smallest_c(beta)
    log_n = math.log2(universe_size)
    m = math.ceil(c * k * (q if q is not None else k) * log_n)
    return SizeParams(gamma, delta, alpha, beta, c, m)


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------

def substream_seed(seed: int, *key: int) -> int:
    """Derive a 64-bit child seed from (seed, key) via SeedSequence spawn keys."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def random_selector(k: int, universe_size: int, m: int, seed: int,
                    prefix: Optional[Selector] = None) -> Selector:
    """m random sets over [0, universe_size), each label included independently
    with probability 1/k.

    Set index t draws from its own PCG64 sub-stream (spawn key (t,)), so the
    length-m selector for a seed is a prefix of the length-(m+1) one.  prefix,
    an earlier draw of the same (k, universe_size, seed), lends its first
    min(m, len(prefix)) sets; only the sets after them are drawn.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if m < 0:
        raise ValueError("m must be non-negative")
    p = 1.0 / k
    sets = list(prefix.sets[:m]) if prefix is not None else []
    for t in range(len(sets), m):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(t,))))
        sets.append(frozenset(np.flatnonzero(rng.random(universe_size) < p).tolist()))
    return Selector(universe_size, tuple(sets))


@dataclass(frozen=True)
class BuildConfig:
    """Settings of `build_verified` and `minimal_m_search`: both try
    max_attempts seeded draws per length, at m_override (the search's cap)
    or else the derived length.  q is the one `check_target` says the target
    uses: kept for kq and kq_permutation, None for the others, so it never
    resizes them."""

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
        object.__setattr__(self, "q", check_target(self.target, self.q))


def _default_m(k: int, universe_size: int, config: BuildConfig) -> int:
    if config.m_override is not None:
        return config.m_override
    if k == 1:
        # Inclusion probability 1 makes every set the full universe; one set
        # isolates every singleton.
        return 1
    return derive_size_params(k, universe_size, config.q).m


def build_verified(k: int, universe_size: int, config: BuildConfig) -> tuple[Selector, int]:
    """Generate random selectors until one passes the configured verifier.

    Attempt a (1-based) draws with the child seed substream_seed(seed, a-1),
    so attempts are reproducible and independent.  Returns the selector and
    the number of attempts used.  Invalid arguments and a length over the
    verifier's budget are refused before the first draw.
    """
    m = _default_m(k, universe_size, config)
    _charge(universe_size, m, k, config.target, config.q, config.size_mode, config.budget)
    for attempt in range(1, config.max_attempts + 1):
        selector = random_selector(k, universe_size, m, substream_seed(config.seed, attempt - 1))
        if verify(selector, k, config.target, config.q, config.size_mode, config.budget).ok:
            return selector, attempt
    raise AttemptsExhaustedError(
        f"no verified selector in {config.max_attempts} attempts "
        f"(k={k}, N={universe_size}, m={m}, target={config.target})"
    )


def minimal_m_search(k: int, universe_size: int, config: BuildConfig) -> int:
    """Smallest m at which `build_verified` succeeds with this config and
    m_override=m: the smallest m in [1, cap] at which one of the
    config.max_attempts seeded draws verifies, where the cap is the length
    `build_verified` would use (m_override, else the derived size).

    Trial j draws with the child seed substream_seed(seed, j) at every
    length, as attempt j+1 of `build_verified` does, and random_selector
    gives each set its own sub-stream, so the length-m draw of a trial is a
    prefix of its length-(m+1) draw and a trial that verifies at m verifies
    at every larger m.  The test "some trial verifies at m" is therefore
    monotone, and a galloping search (m = 1, 2, 4, ... until it holds, then
    bisection below) finds the same smallest m as trying every length in
    turn.  A length is probed by drawing and verifying the trials in order
    up to the first that passes; the trials before it failed at that
    length, so they cannot pass at any smaller one and are dropped.

    A live trial is [seed, longest draw so far], the draw lent to the
    trial's later draws as their prefix, so a set of a trial is drawn once
    per search however many lengths are probed; a dropped trial takes it along.

    A length over the verifier's budget is refused before anything is
    drawn.  That refusal is monotone in m too, so it ends the search like a
    pass: when the smallest length that does not fail is refused, the
    refusal is raised, as a scan from m = 1 would raise it.
    """
    cap = _default_m(k, universe_size, config)
    trials = [[substream_seed(config.seed, j), Selector(universe_size, ())]
              for j in range(config.max_attempts)]

    def stops(m: int) -> bool:
        """Whether length m ends the search: it is over budget, or a trial
        verifies at it (and the trials before that one are dropped)."""
        try:
            _charge(universe_size, m, k, config.target, config.q, config.size_mode, config.budget)
        except BudgetExceededError:
            return True
        for i, (seed, longest) in enumerate(trials):
            selector = random_selector(k, universe_size, m, seed, prefix=longest)
            if m > len(longest):
                trials[i][1] = selector
            if verify(selector, k, config.target, config.q, config.size_mode, config.budget).ok:
                del trials[:i]
                return True
        return False

    # Every length <= lo fails; hi is probed next, then is the smallest stop.
    lo, hi = 0, 1
    while hi <= cap and not stops(hi):
        lo, hi = hi, (min(2 * hi, cap) if hi < cap else hi + 1)
    if hi > cap:
        raise AttemptsExhaustedError(
            f"no verified selector up to m={cap} with {config.max_attempts} trials per length"
        )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if stops(mid):
            hi = mid
        else:
            lo = mid
    # Raises when hi stopped by its refusal.
    _charge(universe_size, hi, k, config.target, config.q, config.size_mode, config.budget)
    return hi
