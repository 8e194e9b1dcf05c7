"""Reference implementations the tests compare the package against.

They are slow or exhaustive on purpose, and nothing in `permsel` calls
them: the enumeration oracle of the coupon probabilities, the simulated
isolation-count tail, the isolation test of one set written from the
definition, the active-path DFS of the quasi-gossip analysis, and an
independent copy of the collision rule that audits a recorded run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from permsel import coupon
from permsel.coupon import _validate_jump
from permsel.errors import BudgetExceededError
from permsel.radio import Network, SimState
from permsel.selectors import Label

# ---------------------------------------------------------------------------
# coupon: enumeration and the simulated tail
# ---------------------------------------------------------------------------

# Ceiling on k**ell for the enumeration oracles.
DEFAULT_ENUM_BUDGET = 2**24


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


def p_jump_bruteforce(ell: int, k: int, q: int, budget: int = DEFAULT_ENUM_BUDGET) -> Fraction:
    """p_jump_exact by enumeration; symbol s belongs to block s // (k/q)."""
    _validate_jump(ell, k, q)
    block_of = np.arange(k, dtype=np.int64) // (k // q)
    return Fraction(_count_missing(ell, k, block_of, q, budget), k**ell)


def chernoff_tail_empirical(m: int, k: int, trials: int, seed: int = 0) -> tuple[float, float]:
    """Empirical frequency of the tail event h <= floor(m/4) under the random
    construction, with its binomial standard error.

    Isolation of X = {0..k-1} depends only on the k membership draws inside
    X, so only those columns are simulated; the universe size is irrelevant.
    Trials, m * k draws each, are drawn in chunks as in `p_monte_carlo`,
    under `coupon`'s chunk settings as they are at the call.
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
    chunk = max(1, min(coupon.MC_CHUNK, coupon.MC_MAX_ELEMENTS // (m * k)))
    for start in range(0, trials, chunk):
        draws = rng.random((min(chunk, trials - start), m, k)) < 1.0 / k
        h = (draws.sum(axis=2) == 1).sum(axis=1)
        hits += int(np.count_nonzero(h <= threshold))
    freq = hits / trials
    return freq, math.sqrt(freq * (1.0 - freq) / trials)


# ---------------------------------------------------------------------------
# selectors: isolation by one set
# ---------------------------------------------------------------------------

def isolates(s: Iterable[Label], x_set: Iterable[Label]) -> Optional[Label]:
    """The unique element of s & x_set, or None when the intersection is not a singleton."""
    inter = frozenset(s) & frozenset(x_set)
    if len(inter) == 1:
        return next(iter(inter))
    return None


# ---------------------------------------------------------------------------
# radio: the trace audit and active paths
# ---------------------------------------------------------------------------

def audit_trace(network: Network, state: SimState) -> bool:
    """Re-derive every delivery and collision from the transmitter sets and
    the topology; raises on any inconsistency."""
    for rec in state.records:
        count: dict[int, int] = {}
        sender: dict[int, int] = {}
        for u in rec.transmitters:
            for v in network.out_edges[u]:
                count[v] = count.get(v, 0) + 1
                sender[v] = u
        received = tuple(sorted((v, sender[v]) for v, c in count.items() if c == 1))
        collisions = frozenset(v for v, c in count.items() if c >= 2)
        if received != rec.received or collisions != rec.collisions:
            raise ValueError(f"round {rec.index}: trace inconsistent with the collision rule")
    return True


def _labels(mask: int) -> list[int]:
    """The labels whose bits are set in mask, ascending."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


ACTIVE_PATH_BUDGET = 1_000_000  # DFS expansions allowed per active_path_ell call


def active_path_ell(network: Network, state: SimState, kappa: int) -> int:
    """Largest L such that every directed path of L active nodes has an
    active in-neighborhood (active nodes with edges into the path) smaller
    than kappa; returns n when no active path of any length violates this.

    Exhaustive DFS over simple active paths, pruned where the running
    in-neighborhood already reached kappa (extensions only grow it).
    """
    n = network.n
    active = _labels(state.active)
    if not active:
        return n
    act_in = {v: frozenset(u for u in network.in_neighbors[v] if state.active >> u & 1)
              for v in active}
    act_out = {v: sorted(w for w in network.out_edges[v] if state.active >> w & 1)
               for v in active}
    best: Optional[int] = None  # shortest violating path length found
    expansions = 0

    def extend(path: set[int], last: int, nbhd: frozenset[int], length: int) -> None:
        nonlocal best, expansions
        for w in act_out[last]:
            if w in path:
                continue
            expansions += 1
            if expansions > ACTIVE_PATH_BUDGET:
                raise BudgetExceededError(f"active-path enumeration exceeded {ACTIVE_PATH_BUDGET} expansions")
            if best is not None and length + 1 >= best:
                return
            new_nbhd = nbhd | act_in[w]
            if len(new_nbhd) >= kappa:
                best = length + 1
                continue
            path.add(w)
            extend(path, w, new_nbhd, length + 1)
            path.remove(w)

    for v in active:
        expansions += 1
        if expansions > ACTIVE_PATH_BUDGET:
            raise BudgetExceededError(f"active-path enumeration exceeded {ACTIVE_PATH_BUDGET} expansions")
        nbhd = act_in[v]
        if len(nbhd) >= kappa:
            return 0
        if best is None or best > 1:
            extend({v}, v, nbhd, 1)
    return n if best is None else best - 1
