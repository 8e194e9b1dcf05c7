"""Selectors over a label universe and exhaustive isolation verifiers.

A selector is an ordered sequence of subsets of the universe {0, ..., N-1}.
A set S isolates x from X when S intersects X on exactly {x}.  The verifiers
here check, by exhaustive enumeration, the four selection properties this
package deals with: strong selection, ordered (permutation) selection, and
the two "at least q elements" relaxations of each.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb, factorial
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BudgetExceededError

Label = int

# Ceiling on the number of primitive isolation checks a verifier may perform.
DEFAULT_BUDGET = 100_000_000

SIZE_MODES = ("exact", "up_to")

VERIFY_TARGETS = ("strong", "permutation", "kq", "kq_permutation")
_ORDERED_TARGETS = ("permutation", "kq_permutation")
_Q_TARGETS = ("kq", "kq_permutation")


def _check_mode(size_mode: str) -> None:
    if size_mode not in SIZE_MODES:
        raise ValueError(f"size_mode must be one of {SIZE_MODES}, got {size_mode!r}")


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

    def masks(self) -> list[int]:
        """Each set as an integer bit mask (bit x set iff x is a member)."""
        return [_mask(s) for s in self.sets]

    def append(self, extra: Iterable[Label]) -> "Selector":
        """A new selector with one more set at the end."""
        return Selector(self.universe_size, self.sets + (frozenset(extra),))


@dataclass(frozen=True)
class Instance:
    """A k-subset X of the universe together with an ordering of it."""

    subset: frozenset[Label]
    order: tuple[Label, ...]

    def __post_init__(self):
        object.__setattr__(self, "subset", frozenset(self.subset))
        object.__setattr__(self, "order", tuple(self.order))
        if len(self.subset) < 1:
            raise ValueError("instance subset must be non-empty")
        if len(self.order) != len(self.subset) or set(self.order) != self.subset:
            raise ValueError("order must be a permutation of subset")

    @property
    def k(self) -> int:
        return len(self.subset)


@dataclass(frozen=True)
class IsolationTrace:
    """The isolation events of a selector against a fixed set X, in time order.

    Each event is a pair (set_index, isolated_label) with strictly
    increasing set indices.
    """

    events: tuple[tuple[int, Label], ...]

    def labels(self) -> tuple[Label, ...]:
        return tuple(x for _, x in self.events)

    def __len__(self) -> int:
        return len(self.events)


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

    def instance(self) -> Instance:
        if self.ok or self.order is None:
            raise ValueError("verdict carries no counterexample instance")
        return Instance(frozenset(self.x_set), self.order)


OK = Verdict(ok=True)


def _mask(labels: Iterable[Label]) -> int:
    m = 0
    for x in labels:
        m |= 1 << x
    return m


# ---------------------------------------------------------------------------
# isolation primitives
# ---------------------------------------------------------------------------

def isolates(s: Iterable[Label], x_set: Iterable[Label]) -> Optional[Label]:
    """The unique element of s & x_set, or None when the intersection is not a singleton."""
    inter = frozenset(s) & frozenset(x_set)
    if len(inter) == 1:
        return next(iter(inter))
    return None


def isolation_trace(selector: Selector, x_set: Iterable[Label]) -> IsolationTrace:
    """All (index, label) isolation events of the selector against x_set."""
    xmask = _mask(x_set)
    events = []
    for t, s in enumerate(selector.sets):
        inter = _mask(s) & xmask
        if inter and inter & (inter - 1) == 0:
            events.append((t, inter.bit_length() - 1))
    return IsolationTrace(tuple(events))


def _trace_labels(masks: Sequence[int], xmask: int) -> list[Label]:
    labels = []
    for m in masks:
        inter = m & xmask
        if inter and inter & (inter - 1) == 0:
            labels.append(inter.bit_length() - 1)
    return labels


def _positions_by_label(trace_labels: Sequence[Label]) -> dict[Label, list[int]]:
    pos: dict[Label, list[int]] = {}
    for i, x in enumerate(trace_labels):
        pos.setdefault(x, []).append(i)
    return pos


def _contains_in_order(pos: dict[Label, list[int]], order: Sequence[Label]) -> bool:
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


def isolates_permutation(selector: Selector, instance: Instance) -> bool:
    """True iff the isolation trace of instance.subset contains instance.order
    as a (not necessarily contiguous) subsequence."""
    labels = _trace_labels(selector.masks(), _mask(instance.subset))
    return _contains_in_order(_positions_by_label(labels), instance.order)


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
    _check_mode(size_mode)
    if size_mode == "exact":
        yield from combinations(range(universe_size), k)
        return

    def extend(prefix: tuple[int, ...], start: int) -> Iterator[tuple[int, ...]]:
        for x in range(start, universe_size):
            cur = prefix + (x,)
            yield cur
            if len(cur) < k:
                yield from extend(cur, x + 1)

    yield from extend((), 0)


def _charge(universe_size: int, length: int, k: int, target: str, q: Optional[int],
            size_mode: str, budget: int) -> None:
    """Validate a verification of `target` on a selector of `length` sets
    and charge it against the budget, raising before any set is drawn or
    enumerated.

    The charge is (instances) * max(length, 1), counting each ordering of
    a target set as an instance for the ordered targets.  q is checked
    only when given and the target takes it.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > universe_size:
        raise ValueError(f"k={k} exceeds universe size {universe_size}")
    _check_mode(size_mode)
    if target in _Q_TARGETS and q is not None and not 1 <= q <= k:
        raise ValueError(f"q must be in [1, k], got q={q}, k={k}")
    ordered = target in _ORDERED_TARGETS
    sizes = range(k, k + 1) if size_mode == "exact" else range(1, k + 1)
    instances = sum(comb(universe_size, s) * (factorial(s) if ordered else 1) for s in sizes)
    cost = instances * max(length, 1)
    if cost > budget:
        raise BudgetExceededError(
            f"verification needs ~{cost} primitive isolation checks, budget is {budget}"
        )


def _traces(selector: Selector, k: int, target: str, q: Optional[int], size_mode: str,
            budget: int) -> Iterator[tuple[tuple[Label, ...], list[Label]]]:
    """Validate and charge (see `_charge`), then yield every target set X
    in lexicographic order with the labels of its isolation trace."""
    _charge(selector.universe_size, len(selector), k, target, q, size_mode, budget)
    masks = selector.masks()
    for x_tuple in iter_subsets(selector.universe_size, k, size_mode):
        yield x_tuple, _trace_labels(masks, _mask(x_tuple))


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def verify_strong(selector: Selector, k: int, size_mode: str = "exact",
                  budget: int = DEFAULT_BUDGET) -> Verdict:
    """Check that every element of every target set is isolated by some set.

    Mode "exact" ranges over sets of size exactly k, "up_to" over sizes
    1..k.  Returns the lexicographically smallest failing (X, x).
    """
    for x_tuple, labels in _traces(selector, k, "strong", None, size_mode, budget):
        seen = set(labels)
        for x in x_tuple:
            if x not in seen:
                return Verdict(ok=False, x_set=x_tuple, element=x)
    return OK


def verify_permutation_selector(selector: Selector, k: int, size_mode: str = "exact",
                                budget: int = DEFAULT_BUDGET) -> Verdict:
    """Check that every ordering of every target set is isolated in order.

    Returns the lexicographically smallest failing instance (X sorted,
    then the order lexicographically).
    """
    for x_tuple, labels in _traces(selector, k, "permutation", None, size_mode, budget):
        pos = _positions_by_label(labels)
        for order in permutations(x_tuple):
            if not _contains_in_order(pos, order):
                return Verdict(ok=False, x_set=x_tuple, order=order)
    return OK


def verify_kq_selector(selector: Selector, k: int, q: int, size_mode: str = "exact",
                       budget: int = DEFAULT_BUDGET) -> Verdict:
    """Check that at least q distinct elements of every target set are isolated.

    For target sets smaller than q (possible in up_to mode) the requirement
    drops to the set's size.
    """
    for x_tuple, labels in _traces(selector, k, "kq", q, size_mode, budget):
        if len(set(labels)) < min(q, len(x_tuple)):
            return Verdict(ok=False, x_set=x_tuple)
    return OK


def verify_kq_permutation_selector(selector: Selector, k: int, q: int,
                                   size_mode: str = "exact",
                                   budget: int = DEFAULT_BUDGET) -> Verdict:
    """Check that some q elements of every ordering are isolated in that order.

    For each instance the trace labels are mapped to their positions in the
    order; the instance passes when the longest strictly increasing
    subsequence of those positions reaches q (capped at the instance size
    in up_to mode).
    """
    for x_tuple, labels in _traces(selector, k, "kq_permutation", q, size_mode, budget):
        need = min(q, len(x_tuple))
        for order in permutations(x_tuple):
            pos_of = {x: d for d, x in enumerate(order)}
            if lis_length([pos_of[x] for x in labels]) < need:
                return Verdict(ok=False, x_set=x_tuple, order=order)
    return OK


def check_target(target: str, q: Optional[int]) -> None:
    """Raise ValueError unless target is one of VERIFY_TARGETS and has the q it needs."""
    if target not in VERIFY_TARGETS:
        raise ValueError(f"target must be one of {VERIFY_TARGETS}")
    if target in _Q_TARGETS and q is None:
        raise ValueError(f"target {target} needs q")


def verify(selector: Selector, k: int, target: str, q: Optional[int] = None,
           size_mode: str = "exact", budget: int = DEFAULT_BUDGET) -> Verdict:
    """Run the verifier for `target`, one of VERIFY_TARGETS; the kq targets need q."""
    check_target(target, q)
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
    if lines and lines[-1] == "":
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
        labels = [int(w) for w in line.split()]
        if len(set(labels)) != len(labels):
            raise ValueError(f"set {t} repeats a label: {line!r}")
        sets.append(frozenset(labels))
    return Selector(n, tuple(sets)), k


def save_selector(path, selector: Selector, k: int) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(selector_to_text(selector, k))


def load_selector(path) -> tuple[Selector, int]:
    with open(path, "r", encoding="utf-8") as f:
        return selector_from_text(f.read())
