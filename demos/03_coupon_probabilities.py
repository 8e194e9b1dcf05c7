#!/usr/bin/env python3
"""The coupon-subsequence probabilities behind the size analysis: exact
rationals, the recurrence sweep, analytic bounds, and Monte Carlo."""

from permsel import p_jump_bound, p_jump_exact, p_monte_carlo
from permsel.coupon import p_jump_sweep

print("=" * 70)
print("P[uniform length-ell sequence over {0..k-1} misses 0,1,...,k-1")
print("as a subsequence]  --  closed form vs recurrence sweep vs bound")
print("=" * 70)
print(f"{'ell':>4} {'k':>3} {'exact':>12} {'swept':>12} {'bound':>10}")
for k in (2, 3):
    # The plain pattern is the jump pattern with q = k blocks.
    for ell, swept in zip(range(k, k + 6), p_jump_sweep(k, k, k, k + 5)):
        exact = p_jump_exact(ell, k, k)
        assert exact == swept
        print(f"{ell:>4} {k:>3} {str(exact):>12} {str(swept):>12} {p_jump_bound(ell, k):>10.4f}")

print()
print("ell < k means the pattern cannot fit, so the miss probability is 1:")
print("  p_exact(2, 3) =", p_jump_exact(2, 3, 3))

print()
print("=" * 70)
print("Jump subsequences: alphabet split into q consecutive blocks, one")
print("symbol per block in block order.  q=k is the plain pattern; q=1")
print("is satisfied by any non-empty sequence.")
print("=" * 70)
print("  p_jump(ell=2, k=4, q=2) =", p_jump_exact(2, 4, 2))
print("  p_jump(ell=5, k=4, q=1) =", p_jump_exact(5, 4, 1))
print("  p_jump(ell=6, k=3, q=3) =", p_jump_exact(6, 3, 3),
      "== p_exact(6,3) =", p_jump_exact(6, 3, 3))
print("  bound at (2,4,2):", round(p_jump_bound(2, 2), 4))

print()
print("=" * 70)
print("Monte-Carlo estimates agree with the exact values")
print("=" * 70)
for ell, k, q in ((3, 2, None), (2, 4, 2)):
    blocks = k if q is None else q
    exact = p_jump_exact(ell, k, blocks)
    est, se = p_monte_carlo(ell, k, blocks, trials=100_000, seed=5)
    print(f"  ell={ell} k={k} q={q}: exact={float(exact):.4f}"
          f"  estimate={est:.4f} +- {se:.4f}")
