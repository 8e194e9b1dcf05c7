import decimal
from decimal import Decimal
import math
from fractions import Fraction
from itertools import product
from math import comb
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (DEFAULT_ENUM_BUDGET, chernoff_tail_empirical, p_jump_bruteforce,
                     p_jump_closed_form, p_jump_sweep)
from permsel import coupon
from permsel.coupon import (
    MC_CHUNK,
    chernoff_alpha,
    isolation_gamma,
    jump_blocks,
    p_jump_bound,
    p_jump_exact,
    p_monte_carlo,
    union_bound_value,
)
from permsel.errors import BudgetExceededError


# ---------------------------------------------------------------------------
# naive oracle (pure python, tiny sizes) to validate the vectorized
# enumeration oracle in tests/oracles.py
# ---------------------------------------------------------------------------

def naive_missing_fraction(ell, k, target_of_symbol, goal):
    misses = 0
    for seq in product(range(k), repeat=ell):
        stage = 0
        for sym in seq:
            if target_of_symbol[sym] == stage:
                stage += 1
        if stage < goal:
            misses += 1
    return Fraction(misses, k**ell)


@pytest.mark.parametrize("ell,k", [(1, 2), (3, 2), (5, 2), (2, 3), (4, 3), (3, 4)])
def test_bruteforce_matches_naive_enumeration(ell, k):
    assert p_jump_bruteforce(ell, k, k) == naive_missing_fraction(ell, k, list(range(k)), k)


@pytest.mark.parametrize("ell,k,q", [(3, 4, 2), (5, 4, 2), (4, 6, 3), (3, 6, 2)])
def test_jump_bruteforce_matches_naive_enumeration(ell, k, q):
    block_of = [s // (k // q) for s in range(k)]
    assert p_jump_bruteforce(ell, k, q) == naive_missing_fraction(ell, k, block_of, q)


# ---------------------------------------------------------------------------
# exact formula values
# ---------------------------------------------------------------------------

def test_p_exact_known_values():
    assert p_jump_exact(2, 2, 2) == Fraction(3, 4)
    assert p_jump_exact(3, 2, 2) == Fraction(1, 2)
    assert p_jump_exact(4, 2, 2) == Fraction(5, 16)


def test_p_exact_short_sequences_are_certain_misses():
    for k in (2, 3, 5):
        for ell in range(1, k):
            assert p_jump_exact(ell, k, k) == 1


def test_p_exact_rejects_small_k():
    with pytest.raises(ValueError):
        p_jump_exact(3, 1, 1)


def test_formula_matches_bruteforce_grid():
    for k in (2, 3, 4):
        for ell in range(1, 11):
            assert p_jump_exact(ell, k, k) == p_jump_bruteforce(ell, k, k)


def test_p_jump_known_values():
    assert p_jump_exact(2, 4, 2) == Fraction(3, 4)
    assert p_jump_exact(2, 2, 2) == Fraction(3, 4)


def test_p_jump_degenerate_q1_is_zero():
    for ell in (1, 3, 7):
        for k in (2, 4, 6):
            assert p_jump_exact(ell, k, 1) == 0


def test_p_jump_reduces_to_p_exact_at_q_eq_k():
    # At q = k every block is one symbol: the pattern is 0,1,...,k-1.
    for k in (2, 3):
        for ell in range(1, 9):
            assert p_jump_exact(ell, k, k) == naive_missing_fraction(ell, k, list(range(k)), k)


def test_p_exact_matches_the_plain_closed_form():
    # The plain pattern is p_jump_exact at q = k; the plain sum is its oracle.
    for k in (2, 3, 7):
        for ell in (1, 2, 5, 40, 333):
            total = sum(comb(ell, j) * (k - 1) ** (ell - j) for j in range(min(k, ell + 1)))
            assert p_jump_exact(ell, k, k) == Fraction(total, k**ell)


def test_p_jump_rejects_non_divisor():
    with pytest.raises(ValueError):
        p_jump_exact(2, 4, 3)
    with pytest.raises(ValueError):
        p_jump_bruteforce(2, 4, 3)


def test_jump_formula_matches_bruteforce_grid():
    for k in (2, 4):
        for q in (1, 2, k):
            for ell in range(1, 9):
                assert p_jump_exact(ell, k, q) == p_jump_bruteforce(ell, k, q)


@given(st.integers(2, 4), st.integers(1, 25))
@settings(max_examples=80, deadline=None)
def test_p_exact_monotone_decreasing_in_ell(k, ell):
    assert p_jump_exact(ell + 1, k, k) <= p_jump_exact(ell, k, k)


# ---------------------------------------------------------------------------
# the recurrence sweep against the closed form and the enumeration
# ---------------------------------------------------------------------------

def divisors(k):
    return [q for q in range(1, k + 1) if k % q == 0]


def test_sweep_matches_closed_form_grid():
    # Every divisor q of every k <= 30, q = 1 and q = k included; the
    # windows start before, at and past the last greedy stage q - 1.
    for k in range(2, 31):
        for q in divisors(k):
            for lo, hi in ((1, q + 12), (max(1, q - 2), q + 3), (q + 1, q + 1), (57, 75)):
                assert list(p_jump_sweep(k, q, lo, hi)) == \
                    [p_jump_exact(ell, k, q) for ell in range(lo, hi + 1)], (k, q, lo, hi)


def test_sweep_matches_bruteforce_grid():
    for k in (2, 3, 4, 6):
        longest = int(math.log(2**16, k))
        for q in divisors(k):
            for lo in (1, 2, 3):
                assert list(p_jump_sweep(k, q, lo, longest)) == \
                    [p_jump_bruteforce(ell, k, q) for ell in range(lo, longest + 1)]


@given(st.integers(2, 60), st.data(), st.integers(1, 300), st.integers(0, 40))
@settings(max_examples=120, deadline=None)
def test_sweep_matches_closed_form(k, data, ell_min, length):
    q = data.draw(st.sampled_from(divisors(k)))
    values = list(p_jump_sweep(k, q, ell_min, ell_min + length))
    assert values == [p_jump_exact(ell, k, q) for ell in range(ell_min, ell_min + length + 1)]


def test_jump_pattern_is_the_plain_pattern_over_q_letters():
    # Mapping each letter to its block makes the word uniform over q letters
    # and the pattern 0..q-1: p_jump(ell, k, q) = p(ell, q), and 0 at q = 1.
    for k in range(2, 61):
        for q in divisors(k):
            for ell in range(1, 81):
                expected = p_jump_closed_form(ell, k, q)
                assert p_jump_exact(ell, k, q) == expected, (ell, k, q)
                assert expected == (0 if q == 1 else coupon.p_exact(ell, q)), (ell, k, q)


@given(st.integers(1, 240), st.integers(1, 60), st.integers(0, 180), st.integers(0, 10**40))
@example(q=12, ell=40, a=0, u=0)  # missing = 0
@example(q=12, ell=40, a=40, u=1)  # missing = q^ell
@example(q=6, ell=40, a=30, u=5)  # 6^16 and 6^30 at c = 16: the full gcd
@example(q=12, ell=2, a=1, u=7)  # 2c >= ell at once: the full gcd
@example(q=12, ell=9, a=1, u=2)  # gcd 12 with 12, 24 with 12^2 and 12^4
@settings(max_examples=300, deadline=None)
def test_common_factor_is_the_gcd(q, ell, a, u):
    missing = q ** (a % (3 * ell + 1)) * u
    assert coupon._common_factor(Decimal(missing), q, ell) == math.gcd(missing, q**ell)


def test_sweep_arithmetic_is_exact_or_raises():
    # Every division of the sweep checks its remainder; the grid tests above
    # run it on every row.  Products and quotients are plain integers.
    assert str(coupon._quotient(Decimal(10**60), 10**20)) == str(10**40)
    assert str(coupon._EXACT.multiply(Decimal(3**400), 7**90)) == str(3**400 * 7**90)
    with pytest.raises(decimal.Inexact):
        coupon._quotient(Decimal(3**400 * 7 + 1), 7)


def test_sweep_plain_is_q_equal_k():
    assert list(p_jump_sweep(5, 5, 1, 30)) == [p_jump_exact(ell, 5, 5) for ell in range(1, 31)]


def test_sweep_below_q_computes_no_count():
    # Rows with ell < q are 1/1 without a count; the count at ell = q = 10^5
    # would take minutes.
    assert list(p_jump_sweep(10**5, 10**5, 1, 3)) == [1, 1, 1]


@pytest.mark.parametrize("args", [(1, 1, 5, 4), (7, 3, 5, 4), (7, 1, 0, -1), (7, 1, 5, 4),
                                  (4, 0, 1, 3), (4, 8, 1, 3)])
def test_sweep_checks_inputs_at_the_call(args):
    # The check must not wait for the first value: these are not iterated.
    with pytest.raises(ValueError):
        p_jump_sweep(*args)


def test_bruteforce_budget_refusal():
    with pytest.raises(BudgetExceededError):
        p_jump_bruteforce(25, 2, 2)
    assert 2**24 == DEFAULT_ENUM_BUDGET


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_p_bound_values_and_domination():
    assert p_jump_bound(4, 2) == pytest.approx(math.exp(-2) * 16, rel=1e-12)
    assert p_jump_bound(2, 2) == pytest.approx(math.exp(-1) * 4, rel=1e-12)
    for k in (2, 3, 4, 5, 6):
        for ell in range(k, 41):
            assert Fraction(p_jump_bound(ell, k)) >= p_jump_exact(ell, k, k)


def test_p_jump_bound_values_and_domination():
    assert p_jump_bound(2, 2) == pytest.approx(math.exp(-1) * 4, rel=1e-12)
    assert p_jump_bound(5, 1) == pytest.approx(math.exp(-5) * 10, rel=1e-12)
    for k in (2, 4, 6):
        for q in (1, 2, k):
            if k % q:
                continue
            for ell in range(q, 41):
                assert Fraction(p_jump_bound(ell, q)) >= p_jump_exact(ell, k, q)


def test_bounds_are_inf_past_the_float_range():
    # (2 * 1700 / 300)^300 overflows a float; a finite bound keeps its
    # expression bit for bit.
    assert p_jump_bound(1700, 300) == math.inf
    assert p_jump_bound(40, 6) == math.exp(-40 / 6) * (2.0 * 40 / 6) ** 6


@pytest.mark.parametrize("ell,q", [(80000, 100), (70000, 100), (8880, 12), (1417, 2)])
def test_bound_where_a_factor_leaves_the_float_range(ell, q):
    # exp(-ell/q) is subnormal or 0, or (2 ell/q)^q overflows, while the
    # bound is a normal float.
    with decimal.localcontext(decimal.Context(prec=50)):
        reference = (Decimal(-ell) / q).exp() * (Decimal(2 * ell) / q) ** q
    assert p_jump_bound(ell, q) == pytest.approx(float(reference), rel=1e-12)


def test_p_jump_bound_rejects_short():
    with pytest.raises(ValueError):
        p_jump_bound(1, 2)


# ---------------------------------------------------------------------------
# monte carlo
# ---------------------------------------------------------------------------

def test_monte_carlo_plain():
    est, se = p_monte_carlo(3, 2, 2, trials=100_000, seed=5)
    assert abs(est - 0.5) <= 3 * se


def test_monte_carlo_plain_draws_are_pinned():
    # The plain pattern runs as the jump pattern with q = k blocks; the
    # estimates must not change with that.
    assert p_monte_carlo(6, 3, 3, trials=2000, seed=4) == (0.6735, 0.010485650909695592)
    assert p_monte_carlo(9, 4, 4, trials=500, seed=1) == (0.858, 0.01560999679692472)


def test_monte_carlo_default_seed_is_pinned():
    # seed=0 when none is given; seed 1 reads 0.105 here.
    assert p_monte_carlo(6, 4, 2, trials=1000) == (0.096, 0.009315793041926168)


def one_draw_monte_carlo(ell, k, q, trials, seed):
    """The estimate from one (trials, ell) draw scanned column by column:
    the oracle for the chunked sampler."""
    target_of_symbol = np.empty(k, dtype=np.int64)
    for h, block in enumerate(jump_blocks(k, q)):
        target_of_symbol[list(block)] = h
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    seqs = rng.integers(0, k, size=(trials, ell))
    state = np.zeros(trials, dtype=np.int64)
    for j in range(ell):
        state += target_of_symbol[seqs[:, j]] == state
    estimate = int(np.count_nonzero(state < q)) / trials
    return estimate, math.sqrt(estimate * (1.0 - estimate) / trials)


@pytest.mark.parametrize("ell,k,q,trials,seed", [
    (9, 4, None, 2 * MC_CHUNK + 7, 1),     # plain, odd ell, three chunks, last one short
    (12, 6, 3, MC_CHUNK, 2),               # exactly one chunk
    (15, 7, 3, MC_CHUNK + 1, 3),           # uneven blocks, a one-trial last chunk
    (16, 10, 4, 3 * MC_CHUNK - 5, 4),      # uneven blocks
    (5, 300, 300, MC_CHUNK + 99, 5),       # more blocks than a byte holds
    (1, 2, 1, 10, 6),                      # q = 1 misses nothing
])
def test_monte_carlo_matches_one_draw(ell, k, q, trials, seed):
    q = k if q is None else q  # the plain pattern, as `prob` without -q runs it
    assert p_monte_carlo(ell, k, q, trials, seed) == one_draw_monte_carlo(ell, k, q, trials, seed)


# Captured before trials were drawn in chunks.
@pytest.mark.parametrize("args,trials,seed,expected", [
    ((13, 5, 5), 50_000, 2, (0.89878, 0.0013488848105008818)),
    ((49, 30, 6), 50_000, 3, (0.15104, 0.0016014176119925746)),
    ((25, 7, 3), 50_001, 1, (0.0060998780024399514, 0.0003482110922940424)),
    ((143, 144, 12), 50_000, 11, (0.46986, 0.002232001704300425)),
])
def test_monte_carlo_large_draws_are_pinned(args, trials, seed, expected):
    assert p_monte_carlo(*args, trials=trials, seed=seed) == expected


def peak_bytes(call):
    call()  # numpy's first-use allocations are not the draws'
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monte_carlo_peaks_near_nine_bytes_per_draw():
    # Ten trials of 4000 draws in one chunk: the 8-byte draw is freed once its
    # one-byte blocks are gathered, so the peak is about 9 bytes per draw
    # (361 kB), not 17 (682 kB, a transposed copy of the draw).
    assert peak_bytes(lambda: p_monte_carlo(4000, 4, 4, trials=10, seed=1)) < 450_000


def test_monte_carlo_memory_is_bounded_by_elements(monkeypatch):
    # Ten trials of 4000 draws in one chunk peak near 360 kB in p_monte_carlo;
    # the cap 2**12 leaves one trial per chunk.
    monkeypatch.setattr(coupon, "MC_MAX_ELEMENTS", 2**12)
    for call in (lambda: p_monte_carlo(4000, 4, 4, trials=10, seed=1),
                 lambda: chernoff_tail_empirical(400, 10, trials=10, seed=1)):
        assert peak_bytes(call) < 300_000


@pytest.mark.parametrize("max_elements", [1, 10, 100])
def test_monte_carlo_short_chunks_match_one_draw(monkeypatch, max_elements):
    tail = chernoff_tail_empirical(40, 2, 1001, 1002)
    monkeypatch.setattr(coupon, "MC_MAX_ELEMENTS", max_elements)
    for ell, k, q, trials, seed in [(9, 4, 4, 301, 1), (16, 10, 4, 97, 4)]:
        assert p_monte_carlo(ell, k, q, trials, seed) == one_draw_monte_carlo(ell, k, q, trials, seed)
    assert chernoff_tail_empirical(40, 2, 1001, 1002) == tail


def test_monte_carlo_jump():
    est, se = p_monte_carlo(2, 4, q=2, trials=100_000, seed=6)
    assert abs(est - 0.75) <= 3 * se


def test_monte_carlo_uneven_blocks():
    # q does not divide k: only the sampler supports it; sanity bounds only.
    est, se = p_monte_carlo(6, 5, q=2, trials=20_000, seed=7)
    assert 0.0 <= est <= 1.0 and se >= 0.0


def test_monte_carlo_single_trial():
    est, _ = p_monte_carlo(2, 2, 2, trials=1, seed=8)
    assert est in (0.0, 1.0)


def test_monte_carlo_deterministic():
    assert p_monte_carlo(4, 3, 3, trials=500, seed=9) == p_monte_carlo(4, 3, 3, trials=500, seed=9)


def test_jump_blocks_partition():
    assert [list(b) for b in jump_blocks(4, 2)] == [[0, 1], [2, 3]]
    assert [list(b) for b in jump_blocks(7, 3)] == [[0, 1, 2], [3, 4], [5, 6]]
    assert [list(b) for b in jump_blocks(5, 5)] == [[0], [1], [2], [3], [4]]


# ---------------------------------------------------------------------------
# tail and union bounds
# ---------------------------------------------------------------------------

def test_chernoff_tail_values():
    # The lower-tail bound on Pr[h <= m/4] is alpha^m.
    assert chernoff_alpha(2) ** 16 == pytest.approx(math.exp(-1), rel=1e-12)
    assert chernoff_alpha(2) ** 0 == 1.0


@pytest.mark.parametrize("args,expected", [
    ((40, 2, 100_000, 1002), (0.00106, 0.00010290172010224125)),
    ((60, 3, 23_457, 7), (0.0014920919128618322, 0.0002520213355531704)),
    ((80, 4, 10_001, 3), (0.0004999500049995, 0.00022352854179791062)),
])
def test_chernoff_tail_empirical_is_pinned(args, expected):
    # Captured with 10,000-trial chunks; no trial count here is a multiple
    # of 10,000 or of MC_CHUNK.
    assert chernoff_tail_empirical(*args) == expected


def test_chernoff_tail_empirical_under_bound():
    freq, _ = chernoff_tail_empirical(40, 2, trials=100_000, seed=12)
    bound = chernoff_alpha(2) ** 40
    assert freq <= bound + 3 * math.sqrt(bound * (1 - bound) / 100_000)


@pytest.mark.parametrize("call,message", [
    (lambda: p_jump_bound(5, 0), "q must be at least 1"),
    (lambda: jump_blocks(4, 0), "q must be in [1, k], got 0"),
    (lambda: jump_blocks(4, 5), "q must be in [1, k], got 5"),
    (lambda: isolation_gamma(1), "k must be at least 2"),
    (lambda: chernoff_tail_empirical(0, 2, 10), "m must be at least 1"),
    (lambda: chernoff_tail_empirical(4, 1, 10), "k must be at least 2"),
    (lambda: chernoff_tail_empirical(4, 2, 0), "trials must be at least 1"),
    (lambda: union_bound_value(1, 16, 30.0), "k must be at least 2"),
    (lambda: union_bound_value(2, 1, 30.0), "universe size must be at least 2"),
    (lambda: union_bound_value(2, 16, 0.0), "c must be positive"),
], ids=["bound-q-zero", "blocks-q-zero", "blocks-q-above-k", "gamma-k1", "empirical-m-zero",
        "empirical-k1", "empirical-no-trials", "union-k1", "union-n1", "union-c-zero"])
def test_coupon_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_union_bound_certifies_derived_c():
    from permsel.build import derive_size_params

    for k in (2, 3, 4):
        for n in (4, 16, 64):
            if k > n:
                continue
            p = derive_size_params(k, n)
            assert union_bound_value(k, n, p.c).existence_certified


def test_union_bound_accepts_the_smallest_universe():
    assert union_bound_value(2, 2, 30.0).log2_value == 12.403674787883427


def test_union_bound_matches_hand_log_computation():
    # Independent log-space evaluation of N^(4k) * (c*beta^c)^(k*log2 N).
    from permsel.build import tail_beta

    k, n, c = 4, 16, 0.001
    beta = tail_beta(k)
    hand = 4 * k * math.log2(n) + k * math.log2(n) * math.log2(c * beta**c)
    report = union_bound_value(k, n, c)
    assert report.log2_value == pytest.approx(hand, rel=1e-12)
    assert report.existence_certified == (hand < 0)


def test_union_bound_monotone_beyond_peak():
    # c * beta^c peaks at c = -1/ln(beta); the bound is non-increasing beyond it.
    from permsel.build import tail_beta

    k, n = 3, 16
    beta = tail_beta(k)
    peak = -1.0 / math.log(beta)
    values = [union_bound_value(k, n, c).log2_value for c in
              [peak + i * 5.0 for i in range(12)]]
    assert all(a >= b for a, b in zip(values, values[1:]))

