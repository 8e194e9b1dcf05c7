"""The four verifiers against two oracles, compared on the full Verdict.

The naive oracle is written from the definitions.  It enumerates target
sets in sorted-tuple order (a prefix sorts before its extensions) and
orderings in lexicographic order, and decides in-order isolation by trying
every increasing tuple of set indices.  On about a hundred seeded small
selectors each verifier must return the very same Verdict, so the smallest
counterexample (x_set, element, order) is pinned for every target, not only
pass/fail.

The per-set oracle is the verifier core the bitset core replaced: for each
target set one scan of every set for its isolation trace, then a greedy
subsequence check or a longest increasing subsequence per ordering.  It is
fast enough for N <= 12 and m <= 180, so it pins the verifiers on a grid
of larger selectors, every q and both modes.
"""

import random
from bisect import bisect_right
from itertools import chain, combinations, permutations

from hypothesis import given, settings, strategies as st
import pytest

from oracles import isolates
from permsel.build import random_selector
from permsel.selectors import (
    DEFAULT_BUDGET,
    OK,
    Selector,
    Verdict,
    _charge,
    _columns,
    _critical_length,
    _isolation_times,
    iter_subsets,
    lis_length,
    verify,
)

SEEDS = range(100)


def target_sets(n, k, mode):
    sizes = [k] if mode == "exact" else range(1, k + 1)
    return sorted(chain.from_iterable(combinations(range(n), s) for s in sizes))


def isolated_in_order(sets, x_set, order):
    """Some increasing indices i_1 < ... < i_r have sets[i_j] isolate order[j] from x_set."""
    return any(all(isolates(sets[i], x_set) == x for i, x in zip(idx, order))
               for idx in combinations(range(len(sets)), len(order)))


def oracle_strong(sets, n, k, mode):
    for x_set in target_sets(n, k, mode):
        for x in x_set:
            if not any(isolates(s, x_set) == x for s in sets):
                return Verdict(ok=False, x_set=x_set, element=x)
    return OK


def oracle_permutation(sets, n, k, mode):
    for x_set in target_sets(n, k, mode):
        for order in sorted(permutations(x_set)):
            if not isolated_in_order(sets, x_set, order):
                return Verdict(ok=False, x_set=x_set, order=order)
    return OK


def oracle_kq(sets, n, k, q, mode):
    for x_set in target_sets(n, k, mode):
        isolated = {isolates(s, x_set) for s in sets} - {None}
        if len(isolated) < min(q, len(x_set)):
            return Verdict(ok=False, x_set=x_set)
    return OK


def oracle_kq_permutation(sets, n, k, q, mode):
    for x_set in target_sets(n, k, mode):
        need = min(q, len(x_set))
        for order in sorted(permutations(x_set)):
            if not any(isolated_in_order(sets, x_set, sub) for sub in combinations(order, need)):
                return Verdict(ok=False, x_set=x_set, order=order)
    return OK


def random_case(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    k = rng.randint(1, min(3, n))
    q = rng.randint(1, k)
    m = rng.randint(0, 9)
    density = rng.choice((0.2, 1.0 / k, 0.5))
    sets = [frozenset(x for x in range(n) if rng.random() < density) for _ in range(m)]
    return Selector(n, tuple(sets)), k, q


@pytest.mark.parametrize("mode", ["exact", "up_to"])
@pytest.mark.parametrize("seed", SEEDS)
def test_verifiers_match_oracle(seed, mode):
    selector, k, q = random_case(seed)
    sets, n = selector.sets, selector.universe_size
    assert verify(selector, k, "strong", size_mode=mode) == oracle_strong(sets, n, k, mode)
    assert (verify(selector, k, "permutation", size_mode=mode)
            == oracle_permutation(sets, n, k, mode))
    assert verify(selector, k, "kq", q, mode) == oracle_kq(sets, n, k, q, mode)
    assert (verify(selector, k, "kq_permutation", q, mode)
            == oracle_kq_permutation(sets, n, k, q, mode))


def test_oracle_cases_cover_pass_and_fail():
    # The seeded cases must exercise both outcomes of every target, or the
    # comparison above would pin nothing.
    outcomes = {name: set() for name in ("strong", "permutation", "kq", "kq_permutation")}
    for seed in SEEDS:
        selector, k, q = random_case(seed)
        sets, n = selector.sets, selector.universe_size
        for mode in ("exact", "up_to"):
            outcomes["strong"].add(oracle_strong(sets, n, k, mode).ok)
            outcomes["permutation"].add(oracle_permutation(sets, n, k, mode).ok)
            outcomes["kq"].add(oracle_kq(sets, n, k, q, mode).ok)
            outcomes["kq_permutation"].add(oracle_kq_permutation(sets, n, k, q, mode).ok)
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


# ---------------------------------------------------------------------------
# the per-set oracle: the former verifier core
# ---------------------------------------------------------------------------

def _mask(labels):
    m = 0
    for x in labels:
        m |= 1 << x
    return m


def _trace_labels(masks, xmask):
    labels = []
    for m in masks:
        inter = m & xmask
        if inter and inter & (inter - 1) == 0:
            labels.append(inter.bit_length() - 1)
    return labels


def _positions_by_label(trace_labels):
    pos = {}
    for i, x in enumerate(trace_labels):
        pos.setdefault(x, []).append(i)
    return pos


def _contains_in_order(pos, order):
    # Greedy earliest match; exact for subsequence containment.
    cur = -1
    for x in order:
        lst = pos.get(x)
        if lst is None:
            return False
        j = bisect_right(lst, cur)
        if j == len(lst):
            return False
        cur = lst[j]
    return True


def _traces(selector, k, target, q, size_mode, budget):
    _charge(selector.universe_size, len(selector), k, target, q, size_mode, budget)
    masks = [_mask(s) for s in selector.sets]
    for x_tuple in iter_subsets(selector.universe_size, k, size_mode):
        yield x_tuple, _trace_labels(masks, _mask(x_tuple))


def per_set_strong(selector, k, size_mode, budget=DEFAULT_BUDGET):
    for x_tuple, labels in _traces(selector, k, "strong", None, size_mode, budget):
        seen = set(labels)
        for x in x_tuple:
            if x not in seen:
                return Verdict(ok=False, x_set=x_tuple, element=x)
    return OK


def per_set_permutation(selector, k, size_mode, budget=DEFAULT_BUDGET):
    for x_tuple, labels in _traces(selector, k, "permutation", None, size_mode, budget):
        pos = _positions_by_label(labels)
        for order in permutations(x_tuple):
            if not _contains_in_order(pos, order):
                return Verdict(ok=False, x_set=x_tuple, order=order)
    return OK


def per_set_kq(selector, k, q, size_mode, budget=DEFAULT_BUDGET):
    for x_tuple, labels in _traces(selector, k, "kq", q, size_mode, budget):
        if len(set(labels)) < min(q, len(x_tuple)):
            return Verdict(ok=False, x_set=x_tuple)
    return OK


def per_set_kq_permutation(selector, k, q, size_mode, budget=DEFAULT_BUDGET):
    for x_tuple, labels in _traces(selector, k, "kq_permutation", q, size_mode, budget):
        need = min(q, len(x_tuple))
        for order in permutations(x_tuple):
            pos_of = {x: d for d, x in enumerate(order)}
            if lis_length([pos_of[x] for x in labels]) < need:
                return Verdict(ok=False, x_set=x_tuple, order=order)
    return OK


def assert_same_as_per_set(selector, k, modes=("exact", "up_to"), qs=None):
    """Equal full Verdicts for all four targets, the given modes and every q (default 1..k)."""
    outcomes = set()
    for mode in modes:
        pairs = [(verify(selector, k, "strong", size_mode=mode),
                  per_set_strong(selector, k, mode)),
                 (verify(selector, k, "permutation", size_mode=mode),
                  per_set_permutation(selector, k, mode))]
        for q in qs or range(1, k + 1):
            pairs.append((verify(selector, k, "kq", q, mode),
                          per_set_kq(selector, k, q, mode)))
            pairs.append((verify(selector, k, "kq_permutation", q, mode),
                          per_set_kq_permutation(selector, k, q, mode)))
        for got, want in pairs:
            assert got == want, (selector, k, mode)
            outcomes.add(got.ok)
    return outcomes


def grid_case(seed):
    """N <= 10, k <= 4 (k = 5 on every tenth seed), m in 0..80, with empty
    and repeated sets; seeds 0-9 have k = N and seeds 10-14 have m = 0."""
    rng = random.Random(seed)
    n = rng.randint(5, 10) if seed % 10 == 9 else rng.randint(1, 10)
    k = 5 if seed % 10 == 9 else rng.randint(1, min(4, n))
    if seed < 10:
        n = k
    m = 0 if 10 <= seed < 15 else rng.randint(1, 80)
    density = rng.choice((0.1, 1.0 / k, 0.5))
    sets = []
    for _ in range(m):
        if sets and rng.random() < 0.2:
            sets.append(rng.choice(sets))
        elif rng.random() < 0.1:
            sets.append(frozenset())
        else:
            sets.append(frozenset(x for x in range(n) if rng.random() < density))
    return Selector(n, tuple(sets)), k


GRID_SEEDS = range(120)


@pytest.mark.parametrize("seed", GRID_SEEDS)
def test_verifiers_match_per_set_oracle(seed):
    selector, k = grid_case(seed)
    assert_same_as_per_set(selector, k)


def test_per_set_grid_covers_its_corners():
    cases = [grid_case(seed) for seed in GRID_SEEDS]
    assert any(s.universe_size == k for s, k in cases)
    assert any(len(s) == 0 for s, _ in cases)
    assert any(k == 5 for _, k in cases)
    assert any(frozenset() in s.sets for s, _ in cases)
    assert any(len(set(s.sets)) < len(s) for s, _ in cases)
    # Both outcomes of every target occur, or the grid would pin little.
    for target in ("strong", "permutation"):
        assert {verify(s, k, target, size_mode="up_to").ok for s, k in cases} == {True, False}
    for target in ("kq", "kq_permutation"):
        assert {verify(s, k, target, 2 if k > 1 else 1, "up_to").ok
                for s, k in cases} == {True, False}


@pytest.mark.parametrize("seed", [0, 1])
def test_passing_certify_sized_selectors_match_per_set_oracle(seed):
    # k=4 N=12 m=180 is the size the `certify` benchmark verifies.
    selector = random_selector(4, 12, 180, seed)
    assert verify(selector, 4, "permutation", size_mode="up_to").ok
    qs = range(1, 5) if seed == 0 else (2,)
    assert assert_same_as_per_set(selector, 4, modes=("up_to",), qs=qs) == {True}


@given(st.integers(1, 8), st.data())
@settings(max_examples=80, deadline=None)
def test_verifiers_match_per_set_oracle_random(n, data):
    k = data.draw(st.integers(1, min(4, n)))
    m = data.draw(st.integers(0, 40))
    sets = data.draw(st.lists(st.frozensets(st.integers(0, n - 1), max_size=n),
                              min_size=m, max_size=m))
    assert_same_as_per_set(Selector(n, tuple(sets)), k)


@pytest.mark.parametrize("seed", range(40))
def test_critical_length_is_shortest_passing_prefix(seed):
    selector, k, _ = random_case(seed)
    sets, cols = selector.sets, _columns(selector)
    for x_tuple in iter_subsets(selector.universe_size, k, "up_to"):
        passing = [t for t in range(len(sets) + 1)
                   if all(isolated_in_order(sets[:t], x_tuple, order)
                          for order in permutations(x_tuple))]
        assert _critical_length(_isolation_times(cols, x_tuple)) == min(passing, default=None)
