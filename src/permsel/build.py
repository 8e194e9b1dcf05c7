"""Probabilistic selector construction: size formulas and Las Vegas search.

Random selectors include each label in each set independently with
probability 1/k.  The size formulas give a length m at which such a draw is
a permutation selector with positive probability; `build_verified` pairs the
draw with an exhaustive verifier and retries until a certified selector
comes out.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional

from .coupon import chernoff_alpha, chernoff_delta, isolation_gamma, tail_beta
from .errors import AttemptsExhaustedError
from .selectors import (DEFAULT_BUDGET, Selector, _charge, _instances, check_request, check_target,
                        verify)

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
    gamma = isolation_gamma(k)  # refuses k < 2
    # k <= N (so N >= 2) and q in [1, k], as every request is checked.
    check_request(universe_size, k, "permutation", q, "exact")
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

def substream_seed(seed: int, j: int) -> int:
    """Derive the 64-bit child seed j of seed via the SeedSequence spawn key (j,)."""
    import numpy as np
    ss = np.random.SeedSequence(seed, spawn_key=(j,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# numpy's SeedSequence (pool size 4) and PCG64 constants.  A set's stream is
# SeedSequence(seed, spawn_key=(t,)) -> PCG64 -> Generator.random(N) < 1/k.
# numpy computes the steps that depend on the seed alone, as the pool of
# SeedSequence(seed); `_draw_sets` recomputes the rest for many t at once: the
# four hash steps that mix t's word into the pool and generate_state's eight.
# numpy is imported by the functions that draw, so commands that never draw
# start without it.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_L = 0xCA01F9DD
_SS_MIX_R = 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# A chunk of the draw holds _DRAW_CHUNK // universe_size sets (at least one),
# so its (set, label) grid of raw outputs stays about this size.
_DRAW_CHUNK = 1 << 13


def _hash_constants(init: int, mult: int, first: int, count: int):
    """SeedSequence's hash constants first..first+count-1, a uint32 array:
    step i hashes with init * mult^i mod 2^32 and leaves step i+1's."""
    import numpy as np
    return np.array([init * pow(mult, i, 1 << 32) & _MASK32 for i in range(first, first + count)],
                    dtype=np.uint32)


@functools.cache
def _constants():
    """generate_state's hash constants before and after its eight steps,
    read-only.  Step i hashes pool word i % 4, so they come as two rows of
    four, one per pass."""
    arrays = tuple(_hash_constants(_SS_INIT_B, _SS_MULT_B, first, 8).reshape(2, 4)
                   for first in (0, 1))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _seed_pool(seed: int):
    """What SeedSequence(seed, spawn_key=(t,)) computes before it reads t.

    The entropy is the seed's 32-bit words, zero-padded to the pool size,
    followed by t.  SeedSequence(seed) hashes a missing word as 0, so its
    pool is the state before t, reached after 16 hash steps plus four per
    word past the fourth.  Returns the pool times _SS_MIX_L, and the hash
    constants before and after each of the four steps that t goes through.
    """
    import numpy as np
    first = 16 + 4 * max(0, (seed.bit_length() + 31) // 32 - 4)
    hash_consts = _hash_constants(_SS_INIT_A, _SS_MULT_A, first, 5)
    pool = np.random.SeedSequence(seed).pool
    return pool * np.uint32(_SS_MIX_L), hash_consts[:4], hash_consts[1:]


def _draw_sets(k: int, universe_size: int, seed: int, t0: int, t1: int) -> list[frozenset]:
    """Sets t0..t1-1 of random_selector(k, universe_size, m, seed), t1 <= 2^32.

    Each set t is the labels x with Generator(PCG64(SeedSequence(seed,
    spawn_key=(t,)))).random(universe_size)[x] < 1/k.  The SeedSequence
    steps that read t run as uint32 array operations over t; each set's
    PCG64 state is then written into one bit generator, whose raw outputs
    are the set's draws, and (output >> 11) * 2^-53 < 1/k is the integer
    test (output >> 11) < ceil(2^53 * (1/k)).
    """
    import numpy as np
    n = universe_size
    gen_before, gen_after = _constants()
    threshold = np.uint64(math.ceil(1.0 / k * 2.0**53))
    pool, hash_before, hash_after = _seed_pool(seed)
    # A fixed seed: every state it starts from is overwritten before a draw.
    bits = np.random.PCG64(0)
    state = bits.state
    pcg = state["state"]
    rows = max(1, _DRAW_CHUNK // max(n, 1))
    sets: list[frozenset] = []
    for a in range(t0, t1, rows):
        b = min(t1, a + rows)
        # SeedSequence: t's word mixed into each pool word, then the eight
        # words of generate_state(4, uint64), paired low word first.
        v = (np.arange(a, b, dtype=np.uint32)[:, None] ^ hash_before) * hash_after
        v ^= v >> np.uint32(16)
        v = pool - np.uint32(_SS_MIX_R) * v
        v ^= v >> np.uint32(16)
        w = (v[:, None, :] ^ gen_before) * gen_after
        w ^= w >> np.uint32(16)
        w = w.reshape(b - a, 8).astype(np.uint64)
        words = (w[:, 0::2] | (w[:, 1::2] << np.uint64(32))).tolist()
        raw = []
        # PCG64 seeds with s = words[0]:words[1] (high:low) and initseq =
        # words[2]:words[3]: inc = 2 initseq + 1, state = (inc + s) M + inc.
        for s0, s1, i0, i1 in words:
            inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
            pcg["state"] = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
            pcg["inc"] = inc
            bits.state = state
            raw.append(bits.random_raw(n))
        hits = np.flatnonzero((np.concatenate(raw) >> np.uint64(11)) < threshold)
        labels = (hits % n).tolist()
        # Set a + r's hits end before flat index (r + 1) * n.
        start = 0
        for end in np.searchsorted(hits, np.arange(1, b - a + 1) * n).tolist():
            sets.append(frozenset(labels[start:end]))
            start = end
    return sets


def random_selector(k: int, universe_size: int, m: int, seed: int,
                    prefix: Optional[Selector] = None) -> Selector:
    """m random sets over [0, universe_size), each label included independently
    with probability 1/k.

    Set index t draws from its own PCG64 sub-stream (spawn key (t,)): it is
    the labels x with Generator(PCG64(SeedSequence(seed, spawn_key=(t,))))
    .random(universe_size)[x] < 1/k.  So the length-m selector for a seed is
    a prefix of the length-(m+1) one.  prefix, an earlier draw of the same
    (k, universe_size, seed), lends its first min(m, len(prefix)) sets; only
    the sets after them are drawn (`_draw_sets`).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if universe_size < 0:
        raise ValueError("universe_size must be non-negative")
    if m < 0:
        raise ValueError("m must be non-negative")
    if m > 2**32:
        raise ValueError("m must be at most 2**32")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, not {seed}")
    sets = list(prefix.sets[:m]) if prefix is not None else []
    if len(sets) < m:
        sets += _draw_sets(k, universe_size, seed, len(sets), m)
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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, not {self.seed}")
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
    """Smallest m in [1, cap] at which `build_verified` succeeds with this
    config and m_override=m, where the cap is the length `build_verified`
    would use (m_override, else the derived size).

    Trial j draws with the child seed substream_seed(seed, j), as attempt
    j+1 of `build_verified` does.  random_selector gives each set its own
    sub-stream, so a trial's length-m draw is a prefix of its longer draws
    and a trial that verifies at m verifies at every larger m.  "Some trial
    verifies at m" is therefore monotone, and a galloping search (m = 1, 2,
    4, ... until it holds, then bisection below) finds the same smallest m
    as trying every length in turn.  A probe draws and verifies the trials
    in order up to the first that passes and drops the ones before it: they
    failed at that length, so they cannot pass at any smaller one.

    A live trial is [seed, longest draw so far], the draw lent to its
    later draws as their prefix, so each set is drawn once per search.  The
    request and the budget are validated whatever the cap.  No length past
    the longest the budget accepts is probed; the next one is refused
    (`_charge`), as a scan from m = 1 refuses it, if none passed.
    """
    cap = _default_m(k, universe_size, config)
    top = min(cap, config.budget // _instances(universe_size, k, config.target, config.q,
                                               config.size_mode, config.budget))
    trials = [[substream_seed(config.seed, j), Selector(universe_size, ())]
              for j in range(config.max_attempts)]

    def passes(m: int) -> bool:
        """Whether a trial verifies at m (the trials before it are dropped)."""
        for i, (seed, longest) in enumerate(trials):
            selector = random_selector(k, universe_size, m, seed, prefix=longest)
            if m > len(longest):
                trials[i][1] = selector
            if verify(selector, k, config.target, config.q, config.size_mode, config.budget).ok:
                del trials[:i]
                return True
        return False

    # Every length <= lo fails; hi is probed next, then is the smallest pass.
    lo, hi = 0, 1
    while hi <= top and not passes(hi):
        lo, hi = hi, (min(2 * hi, top) if hi < top else hi + 1)
    if hi > top:
        if top < cap:
            _charge(universe_size, top + 1, k, config.target, config.q, config.size_mode,
                    config.budget)
        raise AttemptsExhaustedError(
            f"no verified selector up to m={cap} with {config.max_attempts} trials per length"
        )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi
