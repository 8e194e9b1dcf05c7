#!/usr/bin/env python3
"""Walk through what a selector is and what the four verifiers check."""

from permsel import (
    Selector,
    isolates,
    isolates_permutation,
    isolation_trace,
    verify_kq_permutation_selector,
    verify_kq_selector,
    verify_permutation_selector,
    verify_strong,
)

print("=" * 64)
print("Isolation: a set S isolates x from X when S & X == {x}")
print("=" * 64)

print("isolates({2,5}, {5,7})   ->", isolates({2, 5}, {5, 7}))
print("isolates({2,5}, {2,5,9}) ->", isolates({2, 5}, {2, 5, 9}), "(intersection too big)")
print("isolates({},    {0})     ->", isolates(set(), {0}), "(empty intersection)")

print()
print("=" * 64)
print("A selector is an ordered sequence of sets; its trace against X")
print("lists every (time, isolated element) event in order")
print("=" * 64)

sel = Selector(2, (frozenset({0}), frozenset({1}), frozenset({0})))
print("selector over {0,1}:", [sorted(s) for s in sel.sets])
print("trace against X={0,1}:", isolation_trace(sel, {0, 1}))

print()
print("The ordered property: X must be isolated in a REQUESTED order,")
print("i.e. the order must appear as a subsequence of the trace labels.")
for order in ((0, 1), (1, 0)):
    print(f"  order {order}: isolated in order? {isolates_permutation(sel, order)}")

print()
print("=" * 64)
print("The four verifiers (exhaustive, with smallest counterexample)")
print("=" * 64)

print()
print("strong: every element of every k-set gets isolated at some time")
wide = Selector(2, (frozenset({0, 1}),))
print("  single set {0,1}, k=2:", verify_strong(wide, 2).format())
print("  ({0},{1},{0}),  k=2:", verify_strong(sel, 2).format())

print()
print("permutation: additionally every ORDER of every k-set is matched")
print("  ({0},{1},{0}), k=2:", verify_permutation_selector(sel, 2).format())
two = Selector(2, (frozenset({0}), frozenset({1})))
print("  ({0},{1}),    k=2:", verify_permutation_selector(two, 2).format())
print("  (two events cannot contain both (0,1) and (1,0))")

print()
print("(k,q): at least q distinct elements of each k-set are isolated")
part = Selector(3, (frozenset({0}), frozenset({2})))
print("  ({0},{2}), k=2, q=1 over N=3:", verify_kq_selector(part, 2, 1).format())

print()
print("(k,q)-ordered: some q elements appear in the requested order;")
print("checked via the longest increasing subsequence of trace positions")
rev = Selector(2, (frozenset({1}), frozenset({0})))
print("  ({1},{0}), k=2, q=1:", verify_kq_permutation_selector(rev, 2, 1).format())
print("  ({1},{0}), k=2, q=2:", verify_kq_permutation_selector(rev, 2, 2).format())
