"""Selectors over a label universe and exhaustive isolation verifiers.

A selector is an ordered sequence of subsets of the universe {0, ..., N-1}.
A set S isolates x from X when S intersects X on exactly {x}.  The verifiers
here check, by exhaustive enumeration, the four selection properties this
package deals with: strong selection, ordered (permutation) selection, and
the two "at least q elements" relaxations of each.

All of them read one core.  A verify builds each label's column once (an
int with bit t set when set t contains the label); the isolation times of
each x in a target set X are then x's column minus the times that hit two
or more members of X.  Strong and kq selection count the non-empty ones.
The permutation target is the kq_permutation target at q = k, and both run
one path: every ordering of X is decided at once by a subset DP over X's
critical length, and only a failing X has its orderings walked once, in
lexicographic order, each checked by the longest increasing subsequence of
its trace positions, so counterexamples stay the lexicographically smallest.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb, factorial
from typing import Iterator, Optional, Sequence

from .errors import BudgetExceededError

Label = int

# Ceiling on the number of primitive isolation checks a verifier may perform.
DEFAULT_BUDGET = 100_000_000

SIZE_MODES = ("exact", "up_to")

VERIFY_TARGETS = ("strong", "permutation", "kq", "kq_permutation")
_ORDERED_TARGETS = ("permutation", "kq_permutation")
_Q_TARGETS = ("kq", "kq_permutation")


def _sizes(k: int, size_mode: str) -> range:
    """The target-set sizes of size_mode: k alone for "exact", 1..k for "up_to"."""
    if size_mode not in SIZE_MODES:
        raise ValueError(f"size_mode must be one of {SIZE_MODES}, got {size_mode!r}")
    return range(k, k + 1) if size_mode == "exact" else range(1, k + 1)


@dataclass(frozen=True)
class Selector:
    """An ordered sequence of subsets of the universe [0, universe_size).

    Sets may repeat and may be empty; their order in `sets` is the
    selector's time order.
    """

    universe_size: int
    sets: tuple[frozenset[Label], ...]

    def __post_init__(self):
        if self.universe_size < 0:
            raise ValueError("universe_size must be non-negative")
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))
        for t, s in enumerate(self.sets):
            for x in s:
                if not 0 <= x < self.universe_size:
                    raise ValueError(f"set {t} contains label {x} outside [0, {self.universe_size})")

    def __len__(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a verifier: ok, or the smallest counterexample found.

    Counterexample fields are filled as applicable: `x_set` always, plus
    `element` for the strong verifier and `order` for the permutation
    verifiers.
    """

    ok: bool
    x_set: Optional[tuple[Label, ...]] = None
    element: Optional[Label] = None
    order: Optional[tuple[Label, ...]] = None

    def format(self) -> str:
        if self.ok:
            return "OK"
        parts = ["FAIL X={" + ",".join(str(x) for x in self.x_set) + "}"]
        if self.order is not None:
            parts.append("pi=(" + ",".join(str(x) for x in self.order) + ")")
        if self.element is not None:
            parts.append(f"x={self.element}")
        return " ".join(parts)


OK = Verdict(ok=True)


# ---------------------------------------------------------------------------
# isolation primitives
# ---------------------------------------------------------------------------

def _columns(selector: Selector) -> list[int]:
    """For each label x, the bitset of the times t whose set contains x."""
    cols = [0] * selector.universe_size
    for t, s in enumerate(selector.sets):
        bit = 1 << t
        for x in s:
            cols[x] |= bit
    return cols


def _isolation_times(cols: Sequence[int], x_tuple: Sequence[Label]) -> list[int]:
    """For each x of x_tuple (distinct labels), the bitset of the times whose
    set isolates x from x_tuple."""
    seen = shared = 0
    for x in x_tuple:
        shared |= seen & cols[x]
        seen |= cols[x]
    return [cols[x] & ~shared for x in x_tuple]


def _critical_length(iso: Sequence[int]) -> Optional[int]:
    """The shortest selector prefix in which every ordering of X is isolated
    in order, given X's isolation times; None when the whole selector is not
    enough.

    Subset DP over bitmasks of X's positions: the greedy match of an
    ordering ending in x finishes at next(x, end of its prefix), and next is
    monotone, so the latest end over the orderings of S is
    end(S) = max over x in S of next(x, end(S - {x})).  That is 2^|X| |X|
    steps in place of |X|! |X|.
    """
    end = [-1] * (1 << len(iso))
    for subset in range(1, len(end)):
        latest = -1
        rest = subset
        while rest:
            bit = rest & -rest
            rest ^= bit
            t = end[subset ^ bit]
            later = iso[bit.bit_length() - 1] >> (t + 1)
            if not later:
                return None
            t += (later & -later).bit_length()
            if t > latest:
                latest = t
        end[subset] = latest
    return end[-1] + 1


def _trace_events(x_tuple: Sequence[Label], iso: Sequence[int]) -> list[tuple[int, Label]]:
    """The (time, label) isolation events of x_tuple's isolation times, in time order."""
    events = []
    for x, times in zip(x_tuple, iso):
        while times:
            low = times & -times
            events.append((low.bit_length() - 1, x))
            times ^= low
    events.sort()
    return events


def _ordered_count(labels: Sequence[Label], order: Sequence[Label]) -> int:
    """How many elements of `order` the trace labels isolate in that order:
    the longest strictly increasing subsequence of their positions in it."""
    pos_of = {x: d for d, x in enumerate(order)}
    return lis_length([pos_of[x] for x in labels])


def lis_length(positions: Sequence[int]) -> int:
    """Length of the longest strictly increasing subsequence (patience sorting)."""
    tails: list[int] = []
    for p in positions:
        i = bisect_left(tails, p)
        if i == len(tails):
            tails.append(p)
        else:
            tails[i] = p
    return len(tails)


# ---------------------------------------------------------------------------
# instance enumeration
# ---------------------------------------------------------------------------

def iter_subsets(universe_size: int, k: int, size_mode: str) -> Iterator[tuple[Label, ...]]:
    """Subsets of [0, universe_size) of the requested size(s), as sorted tuples
    in lexicographic order (a prefix sorts before each of its extensions)."""
    return heapq.merge(*(combinations(range(universe_size), s) for s in _sizes(k, size_mode)))


def _instances(universe_size: int, k: int, target: str, q: Optional[int], size_mode: str,
               budget: int) -> int:
    """Validate a verification of `target` (see `check_request`) and its
    budget >= 0, and return the instances it enumerates, counting each
    ordering of a target set as an instance for the ordered targets."""
    check_request(universe_size, k, target, q, size_mode)
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    ordered = target in _ORDERED_TARGETS
    return sum(comb(universe_size, s) * (factorial(s) if ordered else 1)
               for s in _sizes(k, size_mode))


def _charge(universe_size: int, length: int, k: int, target: str, q: Optional[int],
            size_mode: str, budget: int) -> None:
    """Validate a verification of `target` on a selector of `length` sets
    (see `_instances`) and charge it against the budget, raising before any
    set is drawn or enumerated.

    The charge is (instances) * max(length, 1).
    """
    instances = _instances(universe_size, k, target, q, size_mode, budget)
    cost = instances * max(length, 1)
    if cost > budget:
        raise BudgetExceededError(
            f"verification needs ~{cost} primitive isolation checks, budget is {budget}"
        )


def _isolations(selector: Selector, k: int, target: str, q: Optional[int], size_mode: str,
                budget: int) -> Iterator[tuple[tuple[Label, ...], list[int]]]:
    """Validate and charge (see `_charge`), then yield every target set X
    in lexicographic order with the isolation times of each of its elements."""
    _charge(selector.universe_size, len(selector), k, target, q, size_mode, budget)
    cols = _columns(selector)
    for x_tuple in iter_subsets(selector.universe_size, k, size_mode):
        yield x_tuple, _isolation_times(cols, x_tuple)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

# `verify`'s bodies, one per target, named so that perfbench/tracer.py can
# time each target.  Call `verify`, which checks the request first.

def verify_strong(selector: Selector, k: int, size_mode: str, budget: int) -> Verdict:
    """`verify`'s body for "strong": every element of every target set is
    isolated by some set.  Returns the lexicographically smallest failing
    (X, x)."""
    for x_tuple, iso in _isolations(selector, k, "strong", None, size_mode, budget):
        for x, times in zip(x_tuple, iso):
            if not times:
                return Verdict(ok=False, x_set=x_tuple, element=x)
    return OK


def _verify_ordered(selector: Selector, k: int, q: int, size_mode: str, budget: int) -> Verdict:
    """Check that some q elements of every ordering of every target set are
    isolated in that order (q capped at the set's size in up_to mode).

    A target set with a critical length (a subset DP, 2^|X| |X| steps)
    isolates every ordering in full and passes for every q.  Only a failing
    set has its orderings walked, in lexicographic order, so the verdict is
    the smallest failing instance (X sorted, then the order).
    """
    for x_tuple, iso in _isolations(selector, k, "kq_permutation", q, size_mode, budget):
        if _critical_length(iso) is not None:
            continue
        need = min(q, len(x_tuple))
        labels = [x for _, x in _trace_events(x_tuple, iso)]
        for order in permutations(x_tuple):
            if _ordered_count(labels, order) < need:
                return Verdict(ok=False, x_set=x_tuple, order=order)
    return OK


def verify_permutation_selector(selector: Selector, k: int, size_mode: str, budget: int) -> Verdict:
    """`verify`'s body for "permutation": every ordering of every target set
    is isolated in order, the (k, q)-permutation check at q = k."""
    return _verify_ordered(selector, k, k, size_mode, budget)


def verify_kq_selector(selector: Selector, k: int, q: int, size_mode: str, budget: int) -> Verdict:
    """`verify`'s body for "kq": at least q distinct elements of every target
    set are isolated (all of a set smaller than q, possible in up_to mode)."""
    for x_tuple, iso in _isolations(selector, k, "kq", q, size_mode, budget):
        if len(iso) - iso.count(0) < min(q, len(x_tuple)):
            return Verdict(ok=False, x_set=x_tuple)
    return OK


def verify_kq_permutation_selector(selector: Selector, k: int, q: int, size_mode: str,
                                   budget: int) -> Verdict:
    """`verify`'s body for "kq_permutation": some q elements of every ordering
    are isolated in that order (q capped at the set's size in up_to mode)."""
    return _verify_ordered(selector, k, q, size_mode, budget)


def check_target(target: str, q: Optional[int]) -> Optional[int]:
    """Raise ValueError unless target is one of VERIFY_TARGETS and has the q it
    needs; return the q the target uses (None for strong and permutation)."""
    if target not in VERIFY_TARGETS:
        raise ValueError(f"target must be one of {VERIFY_TARGETS}")
    if target in _Q_TARGETS and q is None:
        raise ValueError(f"target {target} needs q")
    return q if target in _Q_TARGETS else None


def check_request(universe_size: int, k: int, target: str, q: Optional[int],
                  size_mode: str) -> None:
    """Raise ValueError unless target has the q it needs (`check_target`),
    1 <= k <= universe_size, q is in [1, k] when given (for every target:
    strong and permutation ignore an in-range q) and size_mode is known."""
    check_target(target, q)
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > universe_size:
        raise ValueError(f"k={k} exceeds universe size {universe_size}")
    if q is not None and not 1 <= q <= k:
        raise ValueError(f"q must be in [1, k], got q={q}, k={k}")
    _sizes(k, size_mode)  # raises on an unknown size_mode


def verify(selector: Selector, k: int, target: str, q: Optional[int] = None,
           size_mode: str = "exact", budget: int = DEFAULT_BUDGET) -> Verdict:
    """Run the verifier for `target`, one of VERIFY_TARGETS, after
    `check_request`; the kq targets need q."""
    check_request(selector.universe_size, k, target, q, size_mode)
    if target == "strong":
        return verify_strong(selector, k, size_mode, budget)
    if target == "permutation":
        return verify_permutation_selector(selector, k, size_mode, budget)
    if target == "kq":
        return verify_kq_selector(selector, k, q, size_mode, budget)
    return verify_kq_permutation_selector(selector, k, q, size_mode, budget)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def selector_to_text(selector: Selector, k: int) -> str:
    """Serialize: first line "N k m", then one line of sorted labels per set."""
    lines = [f"{selector.universe_size} {k} {len(selector)}"]
    for s in selector.sets:
        lines.append(" ".join(str(x) for x in sorted(s)))
    return "\n".join(lines) + "\n"


def selector_from_text(text: str) -> tuple[Selector, int]:
    """Parse the text format; returns (selector, k)."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("empty selector file")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"bad header {lines[0]!r}: expected 'N k m'")
    n, k, m = (int(w) for w in header)
    if len(lines) - 1 != m:
        raise ValueError(f"header says m={m} sets but file has {len(lines) - 1} set lines")
    sets = []
    for t, line in enumerate(lines[1:]):
        words = line.split()
        labels = frozenset(map(int, words))
        if len(labels) != len(words):
            raise ValueError(f"set {t} repeats a label: {line!r}")
        sets.append(labels)
    return Selector(n, tuple(sets)), k


def save_selector(path, selector: Selector, k: int) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(selector_to_text(selector, k))


def load_selector(path) -> tuple[Selector, int]:
    with open(path, "r", encoding="utf-8") as f:
        return selector_from_text(f.read())
