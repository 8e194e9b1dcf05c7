from collections import Counter
from itertools import combinations, permutations, product
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import isolates
from permsel import selectors
from permsel.build import random_selector
from permsel.errors import BudgetExceededError
from permsel.selectors import (
    OK,
    VERIFY_TARGETS,
    Selector,
    Verdict,
    _columns,
    _isolation_times,
    _ordered_count,
    _trace_events,
    iter_subsets,
    lis_length,
    load_selector,
    save_selector,
    selector_from_text,
    selector_to_text,
    verify,
)


def sel(n, *sets):
    return Selector(n, tuple(frozenset(s) for s in sets))


def singleton_selector(n, passes=1):
    return Selector(n, tuple(frozenset({x}) for _ in range(passes) for x in range(n)))


def trace(selector, x_tuple):
    """The (time, label) isolation events of x_tuple, read from the verifier core."""
    return tuple(_trace_events(x_tuple, _isolation_times(_columns(selector), x_tuple)))


def in_order(selector, order):
    """Whether the trace isolates every element of `order` in that order."""
    labels = [x for _, x in trace(selector, order)]
    return _ordered_count(labels, order) == len(order)


@pytest.mark.parametrize("n,sets,message", [
    (-1, (), "universe_size must be non-negative"),
    (3, ({0}, {3}), "set 1 contains label 3 outside [0, 3)"),
    (3, ({-1},), "set 0 contains label -1 outside [0, 3)"),
    (3, ({0, 1}, {2, 5, 1}), "set 1 contains label 5 outside [0, 3)"),
], ids=["negative-universe", "label-above", "label-below", "one-label-of-three"])
def test_selector_refusals(n, sets, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Selector(n, sets)


def test_labels_past_the_label_count_are_in_range():
    # Two labels over N = 100: the range check's universe is cut to [0, 2),
    # and labels 50 and 99 are still inside [0, 100).
    assert Selector(100, ({0, 50}, {99})).sets == (frozenset({0, 50}), frozenset({99}))


def test_empty_selector_over_the_empty_universe():
    assert len(Selector(0, ())) == 0


# ---------------------------------------------------------------------------
# isolation primitives
# ---------------------------------------------------------------------------

def test_isolates_singleton_intersection():
    assert isolates({2, 5}, {5, 7}) == 5


def test_isolates_wide_intersection():
    assert isolates({2, 5}, {2, 5, 9}) is None


def test_isolates_empty_set():
    assert isolates(set(), {0}) is None


def test_isolation_trace_basic():
    s = sel(2, {0}, {1}, {0})
    assert trace(s, (0, 1)) == ((0, 0), (1, 1), (2, 0))


def test_isolation_trace_skips_wide_sets():
    assert trace(sel(2, {0, 1}), (0, 1)) == ()


def test_isolation_trace_skips_empty_intersections():
    s = sel(2, {0}, {0, 1}, {1})
    assert trace(s, (1,)) == ((1, 1), (2, 1))


def test_isolates_permutation_true_and_false():
    s = sel(2, {0}, {1}, {0})
    assert in_order(s, (1, 0))
    assert not in_order(sel(2, {0}, {1}), (1, 0))


@pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (6, 3)])
def test_singleton_passes_isolate_everything(n, k):
    s = singleton_selector(n, passes=k)
    for x_tuple in combinations(range(n), k):
        for order in permutations(x_tuple):
            assert in_order(s, order)


# ---------------------------------------------------------------------------
# the in-order check (an LIS) vs exhaustive index-tuple oracle
# ---------------------------------------------------------------------------

def contains_by_index_tuples(trace_labels, order):
    """Oracle: search all increasing index tuples instead of taking an LIS."""
    k = len(order)
    for idxs in combinations(range(len(trace_labels)), k):
        if all(trace_labels[i] == x for i, x in zip(idxs, order)):
            return True
    return False


def test_greedy_matches_exhaustive_oracle_exhaustively_small():
    # All selectors of length 3 over N=2 against all instances with k <= 2.
    subsets = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    orders = [order
              for k in (1, 2)
              for t in combinations(range(2), k)
              for order in permutations(t)]
    for sets in product(subsets, repeat=3):
        s = Selector(2, sets)
        for order in orders:
            labels = [x for _, x in trace(s, order)]
            assert in_order(s, order) == contains_by_index_tuples(labels, order)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def test_verify_strong_singletons_ok():
    s = singleton_selector(5)
    assert verify(s, 3, "strong", size_mode="exact").ok
    assert verify(s, 3, "strong", size_mode="up_to").ok


def test_verify_strong_counterexample_is_smallest():
    v = verify(sel(2, {0, 1}), 2, "strong", size_mode="exact")
    assert not v.ok and v.x_set == (0, 1) and v.element == 0
    assert v.format() == "FAIL X={0,1} x=0"


def test_verify_strong_derived_example():
    assert verify(sel(3, {0}, {1}, {2}, {0, 1}), 2, "strong", size_mode="exact").ok


def test_verify_strong_rejects_large_k():
    with pytest.raises(ValueError):
        verify(singleton_selector(3), 4, "strong")


def test_verify_permutation_three_sets_two_labels():
    assert verify(sel(2, {0}, {1}, {0}), 2, "permutation", size_mode="exact").ok


def test_no_length_two_selector_is_a_two_permutation_selector():
    subsets = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    for sets in product(subsets, repeat=2):
        assert not verify(Selector(2, sets), 2, "permutation", size_mode="exact").ok


def test_verify_permutation_counterexample_order():
    v = verify(sel(2, {0}, {1}), 2, "permutation", size_mode="exact")
    assert not v.ok and v.x_set == (0, 1) and v.order == (1, 0)
    assert not in_order(sel(2, {0}, {1}), v.order)


def test_verify_kq_each_pair_has_one_isolated():
    assert verify(sel(3, {0}, {2}), 2, "kq", 1, "exact").ok


def test_verify_kq_no_singleton_intersection():
    v = verify(sel(3, {0, 1, 2}), 2, "kq", 1, "exact")
    assert not v.ok and v.x_set == (0, 1)


def test_verify_kq_equals_strong_at_q_eq_k():
    s = singleton_selector(4)
    for mode in ("exact", "up_to"):
        assert verify(s, 3, "kq", 3, mode).ok == verify(s, 3, "strong", size_mode=mode).ok


def test_kq_permutation_lis_examples():
    s = sel(2, {1}, {0})
    assert verify(s, 2, "kq_permutation", 1, "exact").ok
    v = verify(s, 2, "kq_permutation", 2, "exact")
    assert not v.ok and v.x_set == (0, 1) and v.order == (0, 1)


def test_up_to_skip_waits_for_k_sets_that_pass_in_full():
    # (0,1) isolates only 0, so it passes q=1 by its ordering walk but not in
    # full, and vouches nothing for (1,), which fails; skipping (1,) inside
    # the k-set (1,2) would report (1,2) instead.
    v = verify(Selector(3, (frozenset({0}),)), 2, "kq_permutation", 1, "up_to")
    assert v == Verdict(False, (1,), order=(1,))


def test_kq_up_to_skip_waits_for_k_sets_that_pass_in_full():
    # The same gate for kq: (0,1) isolates only 0, so it passes q=1 by its
    # count alone and vouches nothing for (1,); an ungated skip would
    # report (1,2).
    v = verify(Selector(3, (frozenset({0}),)), 2, "kq", 1, "up_to")
    assert v == Verdict(False, (1,))


def test_kq_up_to_walks_as_few_target_sets_as_strong(monkeypatch):
    # On a selector whose k-sets all pass in full, every set below k with
    # max(X) >= k - 1 is skipped: 495 4-sets plus the 7 smaller sets inside
    # {0, 1, 2}, of the 793 target sets of N=12 up to k=4.
    s = random_selector(4, 12, 180, 0)
    calls = Counter()
    monkeypatch.setattr(selectors, "_isolation_times",
                        counting("iso", selectors._isolation_times, calls))
    walked = {}
    for target in ("strong", "kq"):
        calls.clear()
        assert verify(s, 4, target, 2, "up_to").ok
        walked[target] = calls["iso"]
    assert walked == {"strong": 502, "kq": 502}


def test_kq_permutation_rejects_bad_q():
    with pytest.raises(ValueError):
        verify(singleton_selector(3), 2, "kq_permutation", 3)


def test_verify_dispatches_to_each_target():
    s = sel(3, {0}, {1, 2}, {2})
    budget = selectors.DEFAULT_BUDGET
    expected = {
        "strong": selectors.verify_strong(s, 2, "up_to", budget),
        "permutation": selectors.verify_permutation_selector(s, 2, "up_to", budget),
        "kq": selectors.verify_kq_selector(s, 2, 2, "up_to", budget),
        "kq_permutation": selectors.verify_kq_permutation_selector(s, 2, 2, "up_to", budget),
    }
    assert set(expected) == set(VERIFY_TARGETS)
    for target, verdict in expected.items():
        assert verify(s, 2, target, q=2, size_mode="up_to") == verdict


HOOKS = {"strong": "verify_strong", "permutation": "verify_permutation_selector",
         "kq": "verify_kq_selector", "kq_permutation": "verify_kq_permutation_selector"}


def counting(name, hook, calls):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return hook(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("target", VERIFY_TARGETS)
def test_verify_reaches_its_target_hook_once(monkeypatch, target):
    # The benchmark's traced runs count one hook call per verify.
    calls = Counter()
    for name in HOOKS.values():
        monkeypatch.setattr(selectors, name, counting(name, getattr(selectors, name), calls))
    verify(sel(3, {0}, {1, 2}, {2}), 2, target, q=2, size_mode="up_to")
    assert calls == {HOOKS[target]: 1}


def test_verify_rejects_unknown_target_and_missing_q():
    with pytest.raises(ValueError, match="target must be one of"):
        verify(singleton_selector(3), 2, "weak")
    for target in ("kq", "kq_permutation"):
        with pytest.raises(ValueError, match="needs q"):
            verify(singleton_selector(3), 2, target)


def test_budget_refusal():
    with pytest.raises(BudgetExceededError):
        verify(singleton_selector(12), 8, "permutation", size_mode="exact", budget=1000)


@pytest.mark.parametrize("target,cost", [("strong", 5940), ("kq", 5940),
                                         ("permutation", 239500800),
                                         ("kq_permutation", 239500800)])
def test_budget_refusal_builds_no_columns(monkeypatch, target, cost):
    # C(12, 8) = 495 target sets (x 8! orderings when ordered) x 12 sets.
    def no_columns(selector):
        raise AssertionError("columns built")

    monkeypatch.setattr(selectors, "_columns", no_columns)
    s = singleton_selector(12)
    with pytest.raises(BudgetExceededError) as refused:
        verify(s, 8, target, q=2, budget=1000)
    assert str(refused.value) == (
        f"verification needs ~{cost} primitive isolation checks, budget is 1000")
    # Within budget the same call does reach `_columns`.
    with pytest.raises(AssertionError, match="columns built"):
        verify(s, 8, target, q=2, budget=cost)


@pytest.mark.parametrize("length,shown", [(10**20 - 1, "99999999999999999999"),
                                          (10**20, "1.00e+20")])
def test_charge_of_more_than_20_digits_prints_rounded(length, shown):
    # One strong instance (k = N = 1), so the charge is the length.
    with pytest.raises(BudgetExceededError) as refused:
        selectors._charge(1, length, 1, "strong", None, "exact", 0)
    assert str(refused.value) == (
        f"verification needs ~{shown} primitive isolation checks, budget is 0")


@pytest.mark.parametrize("target", VERIFY_TARGETS)
@pytest.mark.parametrize("mode", ["exact", "up_to"])
@pytest.mark.parametrize("budget", [156, 1000, 3000, 10**8])
def test_charge_returns_the_longest_length_the_budget_accepts(target, mode, budget):
    # `_charge` returns without raising at budget // instances, the top
    # length `minimal_m_search` takes, and refuses one more.  Instances
    # counted here by enumeration: each target set, or each of its orderings
    # for the ordered targets.
    ordered = target in ("permutation", "kq_permutation")
    instances = sum(len(list(permutations(x))) if ordered else 1
                    for x in iter_subsets(6, 3, mode))
    longest = budget // instances
    selectors._charge(6, longest, 3, target, 2, mode, budget)
    with pytest.raises(BudgetExceededError):
        selectors._charge(6, longest + 1, 3, target, 2, mode, budget)


# ---------------------------------------------------------------------------
# lis
# ---------------------------------------------------------------------------

def lis_by_enumeration(seq):
    best = 0
    for r in range(len(seq) + 1):
        for idxs in combinations(range(len(seq)), r):
            vals = [seq[i] for i in idxs]
            if all(a < b for a, b in zip(vals, vals[1:])):
                best = max(best, r)
    return best


@pytest.mark.parametrize("seq,expect", [((2, 1), 1), ((1, 2, 3), 3), ((3, 1, 2, 5, 4), 3), ((), 0)])
def test_lis_known_values(seq, expect):
    assert lis_length(seq) == expect


@given(st.lists(st.integers(0, 6), max_size=9))
@settings(max_examples=200, deadline=None)
def test_lis_matches_enumeration(seq):
    assert lis_length(seq) == lis_by_enumeration(seq)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

@given(st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_appending_sets_preserves_ok(k_extra, data):
    n = 3
    m = data.draw(st.integers(2, 5))
    sets = [frozenset(data.draw(st.sets(st.integers(0, n - 1)))) for _ in range(m)]
    s = Selector(n, tuple(sets))
    extra = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
    grown = Selector(n, s.sets + (extra,))
    for k in (1, 2):
        for mode in ("exact", "up_to"):
            if verify(s, k, "permutation", size_mode=mode).ok:
                assert verify(grown, k, "permutation", size_mode=mode).ok
            if verify(s, k, "strong", size_mode=mode).ok:
                assert verify(grown, k, "strong", size_mode=mode).ok


def test_prefix_of_isolated_order_is_isolated():
    s = singleton_selector(4, passes=3)
    order = (3, 0, 2)
    assert in_order(s, order)
    for cut in (1, 2):
        assert in_order(s, order[:cut])


def test_permutation_ok_implies_strong_ok():
    s = sel(3, {0}, {1}, {2}, {0}, {1}, {2})
    for k in (1, 2):
        if verify(s, k, "permutation", size_mode="exact").ok:
            assert verify(s, k, "strong", size_mode="exact").ok


def test_iter_subsets_order_and_sizes():
    assert list(iter_subsets(3, 2, "up_to")) == [(0,), (0, 1), (0, 2), (1,), (1, 2), (2,)]
    assert list(iter_subsets(3, 2, "exact")) == [(0, 1), (0, 2), (1, 2)]


def recursive_subsets(universe_size, k, size_mode):
    """The depth-first enumeration `iter_subsets` used before it merged one
    `combinations` stream per size."""
    if size_mode == "exact":
        yield from combinations(range(universe_size), k)
        return

    def extend(prefix, start):
        for x in range(start, universe_size):
            cur = prefix + (x,)
            yield cur
            if len(cur) < k:
                yield from extend(cur, x + 1)

    yield from extend((), 0)


@pytest.mark.parametrize("mode", ["exact", "up_to"])
def test_iter_subsets_matches_recursive_enumeration(mode):
    for n in range(9):
        for k in range(1, 6):
            assert list(iter_subsets(n, k, mode)) == list(recursive_subsets(n, k, mode)), (n, k)


def test_iter_subsets_is_lazy():
    # C(10**6, 3) subsets: only a lazy enumeration returns the first at once.
    assert next(iter_subsets(10**6, 3, "up_to")) == (0,)


def test_iter_subsets_k_zero():
    # No verifier reaches k = 0 (`_charge` refuses it first).  up_to ranges
    # over sizes 1..0, which is none; the recursive enumeration yielded singletons.
    assert list(iter_subsets(3, 0, "exact")) == [()]
    assert list(iter_subsets(3, 0, "up_to")) == []


def test_iter_subsets_rejects_unknown_mode():
    with pytest.raises(ValueError, match="size_mode"):
        iter_subsets(3, 2, "some")


def _refuse(*args, **kwargs):
    raise AssertionError("a public verifier called another")


# Verdicts of random_selector(3, 6, 24, seed) at k = 3 (q = 2 for
# kq_permutation), as the two ordered verifiers gave them with separate loops.
ORDERED_PINS = [
    (1, "up_to", Verdict(False, (0, 2, 5), order=(0, 2, 5)), Verdict(False, (2, 5), order=(2, 5))),
    (1, "exact", Verdict(False, (0, 2, 5), order=(0, 2, 5)), OK),
    (2, "exact", Verdict(False, (0, 1, 4), order=(4, 1, 0)), OK),
]


@pytest.mark.parametrize("seed,mode,perm,kq_perm", ORDERED_PINS)
def test_ordered_verifiers_do_not_call_each_other(monkeypatch, seed, mode, perm, kq_perm):
    # A per-call tracer wraps every public verifier: a nested call would count twice.
    s, budget = random_selector(3, 6, 24, seed), selectors.DEFAULT_BUDGET
    with monkeypatch.context() as mp:
        mp.setattr(selectors, "verify_kq_permutation_selector", _refuse)
        assert selectors.verify_permutation_selector(s, 3, mode, budget) == perm
        assert verify(s, 3, "permutation", size_mode=mode) == perm
    with monkeypatch.context() as mp:
        mp.setattr(selectors, "verify_permutation_selector", _refuse)
        assert selectors.verify_kq_permutation_selector(s, 3, 2, mode, budget) == kq_perm
        assert verify(s, 3, "kq_permutation", 2, mode) == kq_perm


# ---------------------------------------------------------------------------
# types and text format
# ---------------------------------------------------------------------------

def test_selector_rejects_out_of_range_labels():
    with pytest.raises(ValueError):
        Selector(2, (frozenset({2}),))


def test_text_round_trip(tmp_path):
    s = sel(5, {0, 3}, set(), {1, 2, 4})
    text = selector_to_text(s, 2)
    assert text == "5 2 3\n0 3\n\n1 2 4\n"
    back, k = selector_from_text(text)
    assert back == s and k == 2
    path = tmp_path / "sel.txt"
    save_selector(path, s, 2)
    assert load_selector(path) == (s, 2)


def test_text_parse_errors():
    with pytest.raises(ValueError):
        selector_from_text("")
    with pytest.raises(ValueError):
        selector_from_text("3 1\n0\n")
    with pytest.raises(ValueError):
        selector_from_text("3 1 2\n0\n")


def test_text_rejects_repeated_label():
    with pytest.raises(ValueError, match="repeats a label"):
        selector_from_text("3 2 2\n0 0 1\n2\n")
    # A label repeated under another spelling is the same label.
    for line in ("1 01", "+1 1"):
        with pytest.raises(ValueError, match=f"^set 0 repeats a label: {re.escape(repr(line))}$"):
            selector_from_text(f"3 2 2\n{line}\n2\n")


def test_text_reads_signed_and_padded_labels_and_crlf():
    assert selector_from_text("4 2 2\n+2 03\n\n") == (sel(4, {2, 3}, set()), 2)
    text = selector_to_text(sel(5, {0, 3}, set(), {1, 2, 4}), 2)
    assert selector_from_text(text.replace("\n", "\r\n")) == selector_from_text(text)


def parse_outcome(parse, text):
    """What a parse returns, or the type and message of what it raises."""
    try:
        return parse(text)
    except Exception as e:  # the exception itself is the outcome compared
        return type(e), str(e)


@pytest.mark.parametrize("text", [
    "12 2 2\n07 +3 11\n\n",
    "12 2 2\n07 7\n3\n",
    "12 2 1\n1_0 -1\n",
    "12 2 1\n0 12\n",
    "4 2 1\n0 x\n",
    "4 2 1\n0 3.0\n",
    "4 2 1\n1 01\n",
    "4 2 1\n+1 1\n",
    "4 2 3\r\n1 2\r\n\r\n03 +0\r\n",
    "4 2 3\n\n\n\n",
    "4 2 2\n1 2\n",
    "4 2 x\n1 2\n",
    "",
], ids=["padded-and-plus", "padded-repeat", "underscore-and-negative", "label-N", "non-number", "float",
        "one-and-zero-one", "plus-one-and-one", "crlf", "empty-sets", "short", "bad-header", "empty"])
def test_parse_matches_the_word_by_word_parse(text):
    assert parse_outcome(selector_from_text, text) == parse_outcome(oracles.selector_from_text, text)


WORDS = ("0", "1", "01", "07", "7", "+3", "3", "-1", "1_0", "10", "11", "12", "x", "1.0", "+", "")


@st.composite
def selector_texts(draw):
    """Selector files over N <= 12, mostly well formed, whose labels are
    spelled padded, signed, with underscores or not as numbers at all."""
    n = draw(st.sampled_from(("0", "4", "12", "012", "+12", "x")))
    lines = draw(st.lists(st.lists(st.sampled_from(WORDS), max_size=5), max_size=6))
    m = len(lines) + draw(st.sampled_from((0, 0, 0, 1, -1)))
    eol = draw(st.sampled_from(("\n", "\r\n")))
    sep = draw(st.sampled_from((" ", "\t")))
    end = draw(st.sampled_from((eol, "")))
    return eol.join([f"{n} 2 {m}", *(sep.join(words) for words in lines)]) + end


@settings(max_examples=300, deadline=None)
@given(selector_texts())
def test_parse_matches_the_word_by_word_parse_on_drawn_files(text):
    assert parse_outcome(selector_from_text, text) == parse_outcome(oracles.selector_from_text, text)
