#!/usr/bin/env python3
"""Walk through what a selector is and what the four verifiers check."""

from permsel import Selector, verify

print("=" * 64)
print("Isolation: a set S isolates x from X when S & X == {x}")
print("=" * 64)
print("Over N=3 with k=3 the one target set is X={0,1,2}: the (k,q) check")
print("at q=1 of the one-set selector (S) asks whether S isolates some x.")
for s, note in (({0}, ""), ({0, 1}, "(intersection too big)"), (set(), "(empty intersection)")):
    one = Selector(3, (frozenset(s),))
    print(f"  S={sorted(s)!s:<7} -> {verify(one, 3, 'kq', 1).format()} {note}".rstrip())

print()
print("=" * 64)
print("A selector is an ordered sequence of sets; S_t isolates elements")
print("of X at time t, and X is isolated in an order when that order")
print("appears among the isolated elements as time goes on")
print("=" * 64)

sel = Selector(2, (frozenset({0}), frozenset({1}), frozenset({0})))
print("selector over {0,1}:", [sorted(s) for s in sel.sets])
print("X={0,1}: 0 is isolated at times 0 and 2, 1 at time 1.  The permutation")
print("check of each prefix names the first order of X it misses:")
for t in range(1, len(sel) + 1):
    prefix = Selector(2, sel.sets[:t])
    print(f"  first {t} set(s): {verify(prefix, 2, 'permutation').format()}")

print()
print("=" * 64)
print("The four verifiers (exhaustive, with smallest counterexample)")
print("=" * 64)

print()
print("strong: every element of every k-set gets isolated at some time")
wide = Selector(2, (frozenset({0, 1}),))
print("  single set {0,1}, k=2:", verify(wide, 2, "strong").format())
print("  ({0},{1},{0}),  k=2:", verify(sel, 2, "strong").format())

print()
print("permutation: additionally every ORDER of every k-set is matched")
print("  ({0},{1},{0}), k=2:", verify(sel, 2, "permutation").format())
two = Selector(2, (frozenset({0}), frozenset({1})))
print("  ({0},{1}),    k=2:", verify(two, 2, "permutation").format())
print("  (two events cannot contain both (0,1) and (1,0))")

print()
print("(k,q): at least q distinct elements of each k-set are isolated")
part = Selector(3, (frozenset({0}), frozenset({2})))
print("  ({0},{2}), k=2, q=1 over N=3:", verify(part, 2, "kq", 1).format())

print()
print("(k,q)-ordered: some q elements appear in the requested order;")
print("checked via the longest increasing subsequence of trace positions")
rev = Selector(2, (frozenset({1}), frozenset({0})))
print("  ({1},{0}), k=2, q=1:", verify(rev, 2, "kq_permutation", 1).format())
print("  ({1},{0}), k=2, q=2:", verify(rev, 2, "kq_permutation", 2).format())
