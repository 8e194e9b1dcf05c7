"""The galloping `minimal_m_search` against the linear scan it replaced.

`linear_scan` is the former implementation, kept here as the oracle: it
tries m = 1, 2, 3, ... and at each length draws and verifies every trial
(through `build`'s names, so a test can count its calls).
Both are compared on the full outcome: the returned length, or the type and
message of the exception raised.
"""

import itertools
from typing import Optional

from hypothesis import given, settings, strategies as st
import pytest

from permsel import build
from permsel.build import (
    BuildConfig,
    _default_m,
    minimal_m_search,
    random_selector,
    substream_seed,
)
from permsel.errors import AttemptsExhaustedError, BudgetExceededError
from permsel.selectors import VERIFY_TARGETS, verify


def linear_scan(k: int, universe_size: int, config: BuildConfig,
                trials_per_m: int, max_m: Optional[int] = None) -> int:
    if trials_per_m < 1:
        raise ValueError("trials_per_m must be at least 1")
    if max_m is None:
        max_m = _default_m(k, universe_size, config)
    seeds = [substream_seed(config.seed, j) for j in range(trials_per_m)]
    for m in range(1, max_m + 1):
        for s in seeds:
            selector = build.random_selector(k, universe_size, m, s)
            if build.verify(selector, k, config.target, config.q, config.size_mode, config.budget).ok:
                return m
    raise AttemptsExhaustedError(
        f"no verified selector up to m={max_m} with {trials_per_m} trials per length"
    )


def outcome(search, *args):
    try:
        return search(*args)
    except Exception as e:  # the exception itself is the outcome compared
        return type(e), str(e)


def assert_same(k, n, config, trials, max_m):
    args = (k, n, config, trials, max_m)
    assert outcome(minimal_m_search, *args) == outcome(linear_scan, *args), args


MODES = ("exact", "up_to")
# 0 refuses m=1; 600 and 3000 refuse some of the scans below part-way,
# before their answer.
BUDGETS = (0, 600, 3000, 10**8)
MAX_MS = (None, 0, 1, 7, 200)


@pytest.mark.parametrize("target,mode", itertools.product(VERIFY_TARGETS, MODES))
def test_matches_linear_scan_over_budgets_and_caps(target, mode):
    for budget, max_m in itertools.product(BUDGETS, MAX_MS):
        config = BuildConfig(seed=5, target=target, size_mode=mode, q=2, budget=budget)
        assert_same(3, 6, config, 3, max_m)


@settings(max_examples=60, deadline=None)
@given(
    target=st.sampled_from(VERIFY_TARGETS),
    mode=st.sampled_from(MODES),
    k=st.integers(1, 4),
    n=st.integers(1, 6),
    q=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    trials=st.integers(1, 4),
    budget=st.sampled_from((0, 1, 100, 1000, 5000, 10**8)),
    max_m=st.sampled_from(MAX_MS + (30,)),
)
def test_matches_linear_scan_random(target, mode, k, n, q, seed, trials, budget, max_m):
    # k > n and q > k are left in: both searches must raise the same error.
    config = BuildConfig(seed=seed, target=target, size_mode=mode, q=q, budget=budget,
                         m_override=60)
    assert_same(k, n, config, trials, max_m)


def test_bad_trials_and_negative_cap_match():
    config = BuildConfig(seed=0, target="permutation", size_mode="exact")
    assert_same(2, 3, config, 0, None)
    assert_same(2, 3, config, 2, -4)


def count_calls(monkeypatch):
    """Record build's draws (as their lengths) and verifies, in call order."""
    calls = []

    def draw(k, n, m, seed):
        calls.append(m)
        return random_selector(k, n, m, seed)

    def check(*args):
        calls.append("verify")
        return verify(*args)

    monkeypatch.setattr(build, "random_selector", draw)
    monkeypatch.setattr(build, "verify", check)
    return calls


def assert_each_draw_verified_once(calls):
    # Draw, verify, draw, verify, ...: nothing drawn without its verify.
    assert calls[1::2] == ["verify"] * (len(calls) // 2)
    assert all(isinstance(m, int) for m in calls[::2]) and len(calls) % 2 == 0


def test_each_draw_is_verified_once_and_the_search_draws_less(monkeypatch):
    config = BuildConfig(seed=5, target="permutation", size_mode="up_to")
    calls = count_calls(monkeypatch)
    assert minimal_m_search(3, 6, config, 3) == 44
    assert_each_draw_verified_once(calls)
    searched_sets = sum(calls[::2])
    calls.clear()
    assert linear_scan(3, 6, config, 3) == 44
    # The scan draws every trial at every length below 44: over 2,800 sets.
    assert searched_sets * 3 < sum(calls[::2])


def test_refused_length_is_not_drawn(monkeypatch):
    # 156 ordered instances over N=6: m=20 is the first length over 3000.
    config = BuildConfig(seed=5, target="permutation", size_mode="up_to", budget=3000)
    calls = count_calls(monkeypatch)
    with pytest.raises(BudgetExceededError, match="needs ~3120 primitive"):
        minimal_m_search(3, 6, config, 3)
    assert_each_draw_verified_once(calls)
    assert max(calls[::2]) == 19
