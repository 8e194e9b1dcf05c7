"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
from fractions import Fraction
from itertools import combinations, permutations, product

from permsel import radio
from permsel.build import (
    BuildConfig,
    build_verified,
    derive_size_params,
    minimal_m_search,
    random_selector,
    substream_seed,
)
from permsel.cli import main as cli_main
from permsel.coupon import (
    chernoff_tail,
    chernoff_tail_empirical,
    p_bound,
    p_bruteforce,
    p_exact,
    p_jump_bound,
    p_jump_bruteforce,
    p_jump_exact,
    union_bound_value,
)
from permsel.radio import (
    Selector,
    SimState,
    active_path_ell,
    check_quasi_gossip_done,
    gossip,
    quasi_gossip,
    random_strongly_connected,
)
from permsel.selectors import (
    isolates_permutation,
    isolation_trace,
    verify_kq_permutation_selector,
    verify_permutation_selector,
    verify_strong,
)


def _report(number, label):
    print(f"[criterion {number:2d}] PASS  {label}")


# ---------------------------------------------------------------------------
# 1. exact-formula equivalence
# ---------------------------------------------------------------------------

def test_criterion_01_exact_formula_equivalence():
    for k in (2, 3, 4):
        for ell in range(k, 11):
            assert p_exact(ell, k) == p_bruteforce(ell, k)
    for ell in range(2, 21):
        assert p_exact(ell, 2) == p_bruteforce(ell, 2)
    for k in (2, 4):
        for q in (x for x in range(1, k + 1) if k % x == 0):
            for ell in range(1, 9):
                assert p_jump_exact(ell, k, q) == p_jump_bruteforce(ell, k, q)
    _report(1, "formula == enumeration, exact rationals")


# ---------------------------------------------------------------------------
# 2. bound domination (float rounded down by one ulp)
# ---------------------------------------------------------------------------

def test_criterion_02_bound_domination():
    def down(x):
        return Fraction(math.nextafter(x, -math.inf))

    for k in (2, 3, 4):
        for ell in range(k, 41):
            assert down(p_bound(ell, k)) >= p_exact(ell, k)
    for k in (2, 4):
        for q in (x for x in range(1, k + 1) if k % x == 0):
            for ell in range(q, 41):
                assert down(p_jump_bound(ell, k, q)) >= p_jump_exact(ell, k, q)
    _report(2, "analytic bounds dominate exact values")


# ---------------------------------------------------------------------------
# 3. chernoff empirical tail
# ---------------------------------------------------------------------------

def test_criterion_03_chernoff_empirical_tail():
    trials = 100_000
    for k, m in ((2, 40), (3, 60), (4, 80)):
        bound = chernoff_tail(m, k)
        freq, _ = chernoff_tail_empirical(m, k, trials=trials, seed=1000 + k)
        limit = bound + 3 * math.sqrt(bound * (1 - bound) / trials)
        assert freq <= limit, f"(k={k}, m={m}): freq {freq} > {limit}"
    _report(3, "empirical tail frequency within the bound")


# ---------------------------------------------------------------------------
# 4. las vegas construction at minimal_m + 25%
# ---------------------------------------------------------------------------

def _reverify(selector, k, target, q, mode):
    if target == "strong":
        return verify_strong(selector, k, mode).ok
    if target == "permutation":
        return verify_permutation_selector(selector, k, mode).ok
    return verify_kq_permutation_selector(selector, k, q, mode).ok


def test_criterion_04_las_vegas_construction():
    cases = [(k, n, target, None)
             for k, n in ((2, 4), (2, 8), (3, 8), (3, 16))
             for target in ("strong", "permutation")]
    cases += [(4, 16, "kq_permutation", 2), (3, 16, "kq_permutation", 1)]
    for k, n, target, q in cases:
        search_cfg = BuildConfig(seed=0, target=target, size_mode="up_to", q=q,
                                 max_attempts=20, m_override=200)
        m_star = minimal_m_search(k, n, search_cfg)
        m_target = math.ceil(m_star * 1.25)
        build_cfg = BuildConfig(seed=0, target=target, size_mode="up_to", q=q,
                                m_override=m_target, max_attempts=50)
        selector, attempts = build_verified(k, n, build_cfg)
        assert attempts <= 50
        assert len(selector) == m_target
        assert _reverify(selector, k, target, q, "up_to")
    _report(4, "all builds succeed within 50 attempts and re-verify")


# ---------------------------------------------------------------------------
# 5. minimal-size ground truths
# ---------------------------------------------------------------------------

def test_criterion_05_minimal_size_ground_truths():
    # Oracle: no length-2 selector over N=2 isolates both orders of {0,1}.
    subsets = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    for sets in product(subsets, repeat=2):
        assert not verify_permutation_selector(Selector(2, sets), 2, "exact").ok
    cfg = BuildConfig(seed=0, target="permutation", size_mode="exact", max_attempts=200)
    assert minimal_m_search(2, 2, cfg) == 3
    cfg1 = BuildConfig(seed=0, target="strong", size_mode="exact", max_attempts=5)
    assert minimal_m_search(1, 2, cfg1) == 1
    _report(5, "minimal sizes: (2,2)-permutation = 3, k=1 strong = 1")


# ---------------------------------------------------------------------------
# 6. size-formula consistency
# ---------------------------------------------------------------------------

def test_criterion_06_size_formula_consistency():
    for k in (2, 3):
        for n in (4, 8, 16, 32):
            cfg = BuildConfig(seed=0, target="permutation", size_mode="exact", max_attempts=5)
            m_star = minimal_m_search(k, n, cfg)
            params = derive_size_params(k, n)
            assert m_star <= params.m
            assert union_bound_value(k, n, params.c).existence_certified
    _report(6, "empirical minimal m below the formula length; existence certified")


# ---------------------------------------------------------------------------
# 7 & 8. protocol correctness and ell-doubling
# ---------------------------------------------------------------------------

_SELECTOR_CACHE = {}


def _provider(kappa, n):
    if (kappa, n) not in _SELECTOR_CACHE:
        cfg = BuildConfig(seed=99, target="permutation", size_mode="up_to",
                          m_override=4 * kappa * kappa * max(1, (n - 1).bit_length()),
                          max_attempts=50)
        selector, _ = build_verified(kappa, n, cfg)
        _SELECTOR_CACHE[(kappa, n)] = selector
    return _SELECTOR_CACHE[(kappa, n)]


def _protocol_cases():
    cases = []
    seed = 0
    for n in (4, 8, 16, 32):
        for p in (0.0, 0.1, 0.3):
            for _ in range(3):
                cases.append((n, p, seed, 2 if n == 4 else 3))
                seed += 1
    for i in range(7):  # sparse cycles with large kappa exercise the repeat loop
        cases.append((8, 0.0, 100 + i, 5 + (i % 2)))
    for i in range(7):
        cases.append((4, 0.0, 200 + i, 4))
    assert len(cases) == 50
    return cases


def _observe_disperse(monkeypatch, observe):
    """Call observe(network, state, mu) after every Disperse of the protocol:
    the end of quasi-gossip's line 4 and of each selector iteration."""
    disperse = radio.disperse

    def observed(network, state, mu):
        selections = disperse(network, state, mu)
        observe(network, state, mu)
        return selections

    monkeypatch.setattr(radio, "disperse", observed)


def test_criterion_07_protocol_correctness(monkeypatch):
    loop_runs = 0
    disperse_ok = []

    def observe(net_, st_, mu):
        piles = [st_.active_rumor_count(v) for v in range(net_.n)]
        disperse_ok.append(max(piles, default=0) < mu)

    _observe_disperse(monkeypatch, observe)
    for n, p, seed, kappa in _protocol_cases():
        network = random_strongly_connected(n, p, seed)
        state = gossip(network, kappa, _provider)
        assert state.checks["quasi_done"]
        assert state.checks["post_line4_max_active_in_degree"] < kappa
        assert state.checks["gossip_complete"]
        assert all(held == (1 << n) - 1 for held in state.rumors_held)
        if state.phase_rounds.get("selector", 0) > 0:
            loop_runs += 1
    assert disperse_ok and all(disperse_ok)
    assert loop_runs >= 5  # the repeat loop is genuinely exercised
    _report(7, f"gossip completes on all 50 networks ({loop_runs} used the selector phase)")


def test_criterion_08_ell_doubling(monkeypatch):
    checked = 0
    ell_log = []  # (ell, done) after each Disperse of the current case

    def observe(net_, st_, mu):  # kappa is the current case's
        ell_log.append((active_path_ell(net_, st_, kappa), check_quasi_gossip_done(net_, st_)))

    _observe_disperse(monkeypatch, observe)
    for n, p, seed, kappa in _protocol_cases():
        if n > 16:
            continue
        network = random_strongly_connected(n, p, seed)
        ell_log.clear()
        quasi_gossip(network, SimState(network), kappa, _provider)
        for (ell_prev, _), (ell_new, done_after) in zip(ell_log, ell_log[1:]):
            assert done_after or ell_new >= min(2 * ell_prev, n), \
                f"n={n} seed={seed} kappa={kappa}: ell {ell_prev} -> {ell_new}"
            checked += 1
    _report(8, f"ell at least doubles (or the task is done) across {checked} iterations")


# ---------------------------------------------------------------------------
# 9. verifier cross-validation
# ---------------------------------------------------------------------------

def _index_tuple_oracle(trace_labels, order):
    for idxs in combinations(range(len(trace_labels)), len(order)):
        if all(trace_labels[i] == x for i, x in zip(idxs, order)):
            return True
    return False


def test_criterion_09_verifier_cross_validation():
    # 200 random selectors: the q=k order verifier agrees with the full one.
    for i in range(200):
        n = 2 + i % 5  # N in 2..6
        k = 1 + i % min(3, n)
        m = 1 + (i * 7) % 12
        selector = random_selector(max(k, 2), n, m, seed=substream_seed(77, i))
        mode = ("exact", "up_to")[i % 2]
        a = verify_permutation_selector(selector, k, mode)
        b = verify_kq_permutation_selector(selector, k, k, mode)
        assert a == b
    # 500 (selector, instance) pairs: greedy matching equals the index-tuple oracle.
    import numpy as np

    for i in range(500):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(31, spawn_key=(i,))))
        n = int(rng.integers(2, 6))  # N in 2..5
        k = int(rng.integers(1, min(3, n) + 1))
        m = int(rng.integers(0, 13))
        selector = random_selector(max(k, 2), n, m, seed=substream_seed(88, i))
        x_tuple = tuple(int(x) for x in rng.choice(n, size=k, replace=False))
        labels = [x for _, x in isolation_trace(selector, x_tuple)]
        assert isolates_permutation(selector, x_tuple) == _index_tuple_oracle(labels, x_tuple)
    _report(9, "verifiers agree: q=k vs full (200), greedy vs index tuples (500)")


# ---------------------------------------------------------------------------
# 10. determinism of artifacts
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path, capsys):
    pairs = []
    for rep in ("a", "b"):
        sel = tmp_path / f"sel_{rep}.txt"
        trace = tmp_path / f"trace_{rep}.txt"
        csv = tmp_path / f"grid_{rep}.csv"
        assert cli_main(["gen", "-k", "2", "-N", "8", "--seed", "11", "-m", "24",
                         "--mode", "up_to", "-o", str(sel)]) == 0
        assert cli_main(["simulate", "--random", "8", "0.2", "4", "--kappa", "3",
                         "--auto", "--seed", "11", "-m", "40", "--trace", str(trace)]) == 0
        assert cli_main(["sweep", "-k", "4", "-q", "2", "--ell-min", "2", "--ell-max", "16",
                         "-o", str(csv)]) == 0
        pairs.append((sel.read_bytes(), trace.read_bytes(), csv.read_bytes()))
    capsys.readouterr()
    assert pairs[0] == pairs[1]
    _report(10, "selector files, traces, and CSV grids are byte-identical across runs")
