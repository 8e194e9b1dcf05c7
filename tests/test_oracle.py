"""The four verifiers against a naive oracle written from the definitions.

The oracle enumerates target sets in sorted-tuple order (a prefix sorts
before its extensions) and orderings in lexicographic order, and decides
in-order isolation by trying every increasing tuple of set indices.  On
about a hundred seeded small selectors each verifier must return the very
same Verdict, so the smallest counterexample (x_set, element, order) is
pinned for every target, not only pass/fail.
"""

import random
from itertools import chain, combinations, permutations

import pytest

from permsel.selectors import (
    OK,
    Selector,
    Verdict,
    isolates,
    verify_kq_permutation_selector,
    verify_kq_selector,
    verify_permutation_selector,
    verify_strong,
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
    assert verify_strong(selector, k, mode) == oracle_strong(sets, n, k, mode)
    assert verify_permutation_selector(selector, k, mode) == oracle_permutation(sets, n, k, mode)
    assert verify_kq_selector(selector, k, q, mode) == oracle_kq(sets, n, k, q, mode)
    assert (verify_kq_permutation_selector(selector, k, q, mode)
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
