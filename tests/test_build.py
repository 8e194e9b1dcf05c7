import math
import re

import numpy as np
import pytest

from permsel.build import (
    BuildConfig,
    build_verified,
    chernoff_alpha,
    derive_size_params,
    isolation_gamma,
    minimal_m_search,
    random_selector,
    smallest_c,
    substream_seed,
    tail_beta,
)
from permsel.errors import AttemptsExhaustedError
from permsel.selectors import selector_to_text, verify


def test_gamma_k2():
    assert isolation_gamma(2) == 0.5


def test_k2_constants():
    p = derive_size_params(2, 16)
    assert p.gamma == 0.5
    assert p.delta == 0.5
    assert p.alpha == pytest.approx(math.exp(-1 / 16), rel=1e-12)
    assert p.beta == p.alpha  # exp(-1/16) > exp(-1/4)


def test_gamma_range_over_k():
    for k in range(2, 65):
        g = isolation_gamma(k)
        assert 1 / math.e < g <= 0.5


def test_size_params_invariants_grid():
    for k in range(2, 13):
        for n in (4, 16, 64, 256):
            p = derive_size_params(k, n) if k <= n else None
            if p is None:
                continue
            assert 0 < p.delta < 1
            assert p.alpha < 1 and p.beta < 1
            assert p.c * p.beta**p.c < 1 / 16
            # smallest grid point: the previous one must fail
            prev = p.c - 0.25
            assert prev <= 0 or prev * p.beta**prev >= 1 / 16
            assert p.m >= 2 * k
            assert p.m == max(2 * k, math.ceil(p.c * k * k * math.log2(n)))


def test_size_params_kq_variant():
    p = derive_size_params(4, 16, q=2)
    assert p.m == max(8, math.ceil(p.c * 4 * 2 * math.log2(16)))


def test_size_params_rejections():
    with pytest.raises(ValueError):
        derive_size_params(1, 4)
    with pytest.raises(ValueError):
        derive_size_params(5, 4)
    with pytest.raises(ValueError):
        derive_size_params(2, 4, q=3)


def test_smallest_c_rejects_bad_beta():
    with pytest.raises(ValueError):
        smallest_c(1.0)


@pytest.mark.parametrize("call,message", [
    (lambda: random_selector(0, 4, 3, seed=0), "k must be at least 1"),
    (lambda: random_selector(2, 4, -1, seed=0), "m must be non-negative"),
    (lambda: smallest_c(0.999), "no c on the grid satisfies c*beta^c < 1/16 for beta=0.999"),
], ids=["k-zero", "m-negative", "no-c-on-grid"])
def test_build_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# ---------------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------------

def test_random_selector_empty():
    assert len(random_selector(2, 4, 0, seed=1)) == 0


def test_random_selector_reproducible():
    a = random_selector(3, 10, 7, seed=42)
    b = random_selector(3, 10, 7, seed=42)
    assert selector_to_text(a, 3) == selector_to_text(b, 3)


def test_random_selector_prefix_property():
    short = random_selector(3, 10, 5, seed=9)
    long = random_selector(3, 10, 8, seed=9)
    assert long.sets[:5] == short.sets


@pytest.mark.parametrize("m", [0, 1, 6])
@pytest.mark.parametrize("m2", [0, 1, 3, 6, 9])
def test_random_selector_from_a_prefix_is_the_fresh_draw(m, m2):
    # An earlier draw lends its sets whether it is shorter, as long or longer.
    prefix = random_selector(3, 10, m2, seed=9)
    assert random_selector(3, 10, m, seed=9, prefix=prefix) == random_selector(3, 10, m, seed=9)


def test_random_selector_k1_includes_everything():
    s = random_selector(1, 6, 3, seed=0)
    assert all(set_ == frozenset(range(6)) for set_ in s.sets)


def test_random_selector_mean_set_size():
    # Binomial mean N/k with standard error sqrt(N p (1-p) / m).
    n, k, m = 100, 10, 10_000
    s = random_selector(k, n, m, seed=123)
    mean = sum(len(x) for x in s.sets) / m
    se = math.sqrt(n * (1 / k) * (1 - 1 / k) / m)
    assert abs(mean - n / k) <= 3 * se


def test_substream_seeds_differ():
    seeds = {substream_seed(5, i) for i in range(32)}
    assert len(seeds) == 32


# ---------------------------------------------------------------------------
# build_verified
# ---------------------------------------------------------------------------

def test_build_verified_small_permutation():
    cfg = BuildConfig(seed=3, target="permutation", size_mode="up_to", m_override=16)
    selector, attempts = build_verified(2, 4, cfg)
    assert attempts <= cfg.max_attempts
    assert verify(selector, 2, "permutation", size_mode="up_to").ok


def test_build_verified_uses_formula_m_by_default():
    cfg = BuildConfig(seed=0, target="permutation", size_mode="up_to")
    selector, attempts = build_verified(2, 4, cfg)
    assert len(selector) == derive_size_params(2, 4).m
    assert attempts == 1  # formula length passes essentially always


def test_build_verified_k1_full_universe():
    cfg = BuildConfig(seed=0, target="strong", size_mode="exact", m_override=1)
    selector, _ = build_verified(1, 5, cfg)
    assert selector.sets == (frozenset(range(5)),)
    assert verify(selector, 1, "strong").ok


def test_build_verified_m_zero_exhausts():
    cfg = BuildConfig(seed=0, target="permutation", size_mode="exact", m_override=0, max_attempts=3)
    with pytest.raises(AttemptsExhaustedError):
        build_verified(2, 2, cfg)


def test_build_verified_kq_target():
    cfg = BuildConfig(seed=11, target="kq_permutation", size_mode="up_to", q=2, m_override=40)
    selector, _ = build_verified(4, 8, cfg)
    assert verify(selector, 4, "kq_permutation", 2, "up_to").ok


def test_build_verified_soundness_reverifies():
    cfg = BuildConfig(seed=21, target="strong", size_mode="exact", m_override=30)
    selector, _ = build_verified(3, 8, cfg)
    assert verify(selector, 3, "strong", size_mode="exact").ok


def test_build_config_validation():
    with pytest.raises(ValueError):
        BuildConfig(max_attempts=0)
    with pytest.raises(ValueError):
        BuildConfig(target="kq_permutation")
    with pytest.raises(ValueError):
        BuildConfig(target="nonsense")


def test_build_config_keeps_q_only_for_targets_that_take_one():
    for target in ("strong", "permutation"):
        assert BuildConfig(target=target, q=1) == BuildConfig(target=target)
    for target in ("kq", "kq_permutation"):
        assert BuildConfig(target=target, q=1).q == 1


def test_smallest_c_is_at_least_24():
    # tail_beta(k) >= e^{-1/4}, and c = 24 is the first grid point with
    # c * e^{-c/4} < 1/16, so every derived m is at least 24k.
    for k in range(2, 401):
        assert smallest_c(tail_beta(k)) >= 24


# ---------------------------------------------------------------------------
# minimal_m_search
# ---------------------------------------------------------------------------

def test_minimal_m_22_permutation_exact_is_3():
    cfg = BuildConfig(seed=0, target="permutation", size_mode="exact", max_attempts=200)
    assert minimal_m_search(2, 2, cfg) == 3


def test_minimal_m_k1_strong_is_1():
    cfg = BuildConfig(seed=0, target="strong", size_mode="exact", max_attempts=5)
    assert minimal_m_search(1, 4, cfg) == 1


def test_minimal_m_passing_trial_is_monotone_in_m():
    # The same trial seed keeps passing as sets are appended.
    cfg = BuildConfig(seed=0, target="permutation", size_mode="exact", max_attempts=50)
    m_star = minimal_m_search(2, 3, cfg)
    seeds = [substream_seed(0, j) for j in range(50)]
    passing = [s for s in seeds
               if verify(random_selector(2, 3, m_star, s), 2, "permutation", size_mode="exact").ok]
    assert passing
    for s in passing[:3]:
        assert verify(random_selector(2, 3, m_star + 4, s), 2, "permutation", size_mode="exact").ok


def test_minimal_m_exhausts_on_tiny_cap():
    cfg = BuildConfig(seed=0, target="permutation", size_mode="exact", max_attempts=4,
                      m_override=2)
    with pytest.raises(AttemptsExhaustedError):
        minimal_m_search(2, 2, cfg)
