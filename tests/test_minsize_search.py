"""The galloping `minimal_m_search` against the linear scan it replaced.

`linear_scan` is the former implementation, kept here as the oracle: it
refuses a bad request or budget as `build_verified` does, then tries
m = 1, 2, 3, ... and at each length draws and verifies every trial
(through `build`'s names, so a test can count its calls).  Both take their
trials from config.max_attempts and their cap from config.m_override.
Both are compared on the full outcome: the returned length, or the type and
message of the exception raised.
"""

from dataclasses import replace
import itertools

from hypothesis import given, settings, strategies as st
import pytest

from permsel import build
from permsel.build import (
    BuildConfig,
    _default_m,
    build_verified,
    minimal_m_search,
    random_selector,
    substream_seed,
)
from permsel.errors import AttemptsExhaustedError, BudgetExceededError
from permsel.selectors import VERIFY_TARGETS, Selector, check_request, verify


def linear_scan(k: int, universe_size: int, config: BuildConfig) -> int:
    max_m = _default_m(k, universe_size, config)
    # Refused whatever the cap, even one of 0 that scans no length.
    check_request(universe_size, k, config.target, config.q, config.size_mode)
    if config.budget < 0:
        raise ValueError(f"budget must be non-negative, got {config.budget}")
    seeds = [substream_seed(config.seed, j) for j in range(config.max_attempts)]
    for m in range(1, max_m + 1):
        for s in seeds:
            selector = build.random_selector(k, universe_size, m, s)
            if build.verify(selector, k, config.target, config.q, config.size_mode, config.budget).ok:
                return m
    raise AttemptsExhaustedError(
        f"no verified selector up to m={max_m} with {config.max_attempts} trials per length"
    )


def outcome(search, *args):
    try:
        return search(*args)
    except Exception as e:  # the exception itself is the outcome compared
        return type(e), str(e)


def assert_same(k, n, config):
    args = (k, n, config)
    assert outcome(minimal_m_search, *args) == outcome(linear_scan, *args), args


MODES = ("exact", "up_to")
# 0 refuses m=1; 600 and 3000 refuse some of the scans below part-way,
# before their answer.
BUDGETS = (0, 600, 3000, 10**8)
MAX_MS = (None, 0, 1, 7, 200)


@pytest.mark.parametrize("target,mode", itertools.product(VERIFY_TARGETS, MODES))
def test_matches_linear_scan_over_budgets_and_caps(target, mode):
    for budget, max_m in itertools.product(BUDGETS, MAX_MS):
        config = BuildConfig(seed=5, target=target, size_mode=mode, q=2, budget=budget,
                             max_attempts=3, m_override=max_m)
        assert_same(3, 6, config)


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
                         max_attempts=trials, m_override=60 if max_m is None else max_m)
    assert_same(k, n, config)


@pytest.mark.parametrize("target,mode", itertools.product(VERIFY_TARGETS, MODES))
@pytest.mark.parametrize("k,n,seed", [(3, 6, 5), (2, 5, 4)])
def test_answer_is_the_smallest_length_gen_succeeds_at(target, mode, k, n, seed):
    config = BuildConfig(seed=seed, target=target, size_mode=mode, q=2, max_attempts=3)
    m = minimal_m_search(k, n, config)
    selector, _ = build_verified(k, n, replace(config, m_override=m))
    assert len(selector) == m
    with pytest.raises(AttemptsExhaustedError):
        build_verified(k, n, replace(config, m_override=m - 1))


def test_bad_trials_and_negative_cap_match():
    # Both searches read their trials and cap from the config, which refuses
    # a trial count below 1 and a negative cap before either search runs.
    with pytest.raises(ValueError, match="max_attempts must be at least 1"):
        BuildConfig(seed=0, target="permutation", size_mode="exact", max_attempts=0)
    with pytest.raises(ValueError, match="m_override must be non-negative"):
        BuildConfig(seed=0, target="permutation", size_mode="exact", m_override=-4)


@pytest.mark.parametrize("k,config,message", [
    (2, BuildConfig(budget=-1, m_override=0), "^budget must be non-negative, got -1$"),
    (5, BuildConfig(m_override=0), "^k=5 exceeds universe size 4$"),
], ids=["negative-budget", "k-above-n"])
def test_cap_of_zero_still_validates_request_and_budget(k, config, message):
    # A cap of 0 probes no length, yet the search refuses what build_verified
    # refuses with the same arguments.
    for search in (minimal_m_search, build_verified):
        with pytest.raises(ValueError, match=message):
            search(k, 4, config)


def count_calls(monkeypatch):
    """Record build's draws (as their lengths) and verifies, in call order."""
    calls = []

    def draw(k, n, m, seed, prefix=None):
        calls.append(m)
        return random_selector(k, n, m, seed, prefix=prefix)

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
    config = BuildConfig(seed=5, target="permutation", size_mode="up_to", max_attempts=3)
    calls = count_calls(monkeypatch)
    assert minimal_m_search(3, 6, config) == 44
    assert_each_draw_verified_once(calls)
    searched_sets = sum(calls[::2])
    calls.clear()
    assert linear_scan(3, 6, config) == 44
    # The scan draws every trial at every length below 44: over 2,800 sets.
    assert searched_sets * 3 < sum(calls[::2])


# Instances over N=6 at k=3 (q=2): 20 target sets in exact mode and 41 in
# up_to, or 120 and 156 orderings for the ordered targets.  Each budget is
# refused at a length below the target's answer (19, 44, 11 and 17-18).
REFUSALS = [
    ("strong", "exact", 20, 300),
    ("strong", "up_to", 41, 600),
    ("permutation", "exact", 120, 3000),
    ("permutation", "up_to", 156, 3000),
    ("kq", "exact", 20, 150),
    ("kq", "up_to", 41, 300),
    ("kq_permutation", "exact", 120, 1000),
    ("kq_permutation", "up_to", 156, 1000),
]


@pytest.mark.parametrize("target,mode,instances,budget", REFUSALS)
def test_refused_length_is_not_drawn(monkeypatch, target, mode, instances, budget):
    config = BuildConfig(seed=5, target=target, size_mode=mode, q=2, budget=budget,
                         max_attempts=3)
    refusal = outcome(linear_scan, 3, 6, config)
    assert refusal[0] is BudgetExceededError
    calls = count_calls(monkeypatch)
    assert outcome(minimal_m_search, 3, 6, config) == refusal
    assert_each_draw_verified_once(calls)
    # The longest length the budget accepts is drawn, and none past it.
    assert max(calls[::2]) == budget // instances


@pytest.mark.parametrize("call", [
    lambda: verify(Selector(4, (frozenset({0}),)), 2, "permutation", budget=-1),
    lambda: build_verified(2, 4, BuildConfig(budget=-1, m_override=3)),
    lambda: minimal_m_search(2, 4, BuildConfig(budget=-1, max_attempts=2)),
], ids=["verify", "build_verified", "minimal_m_search"])
def test_negative_budget_is_refused_before_any_draw(monkeypatch, call):
    calls = count_calls(monkeypatch)
    with pytest.raises(ValueError, match="^budget must be non-negative, got -1$"):
        call()
    assert calls == []


def test_search_draws_each_set_once(monkeypatch):
    # Every set of every trial is one (seed, t) sub-stream; the search draws
    # each at most once across all the lengths it probes.
    built = []
    real = build._draw_sets

    def draw_sets(k, n, seed, t0, t1):
        built.extend((seed, t) for t in range(t0, t1))
        return real(k, n, seed, t0, t1)

    monkeypatch.setattr(build, "_draw_sets", draw_sets)
    config = BuildConfig(seed=5, target="permutation", size_mode="up_to", max_attempts=3)
    assert minimal_m_search(3, 6, config) == 44
    assert len(built) > 44 and len(set(built)) == len(built)
