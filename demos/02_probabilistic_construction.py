#!/usr/bin/env python3
"""The random construction: derived constants, the existence certificate,
Las Vegas generate-and-verify, and the empirical minimal length."""

from permsel import (
    BuildConfig,
    build_verified,
    derive_size_params,
    minimal_m_search,
    random_selector,
    union_bound_value,
    verify_permutation_selector,
)

print("=" * 64)
print("Derived constants for a (k,N) target")
print("=" * 64)
print(f"{'k':>3} {'N':>4} {'gamma':>8} {'alpha':>8} {'beta':>8} {'c':>8} {'m':>7}")
for k, n in ((2, 16), (3, 16), (4, 64), (8, 256)):
    p = derive_size_params(k, n)
    print(f"{k:>3} {n:>4} {p.gamma:>8.4f} {p.alpha:>8.4f} {p.beta:>8.4f} {p.c:>8.2f} {p.m:>7}")

print()
print("The constant c is the smallest grid point with c*beta^c < 1/16,")
print("which makes the union bound certify existence (value < 1):")
for k, n in ((2, 16), (3, 32)):
    p = derive_size_params(k, n)
    r = union_bound_value(k, n, p.c)
    print(f"  k={k} N={n}: log2(union bound) = {r.log2_value:+.3f}"
          f"  certified={r.existence_certified}")

print()
print("=" * 64)
print("Random construction: each label joins each set with probability 1/k")
print("=" * 64)
sel = random_selector(3, 12, 5, seed=7)
for t, s in enumerate(sel.sets):
    print(f"  S_{t} = {sorted(s)}")
print("Same (k, N, m, seed) always reproduces the same sets;")
print("set t has its own random sub-stream, so a longer run extends a")
print("shorter one instead of reshuffling it.")

print()
print("=" * 64)
print("Las Vegas: draw, verify exhaustively, retry")
print("=" * 64)
cfg = BuildConfig(seed=3, target="permutation", size_mode="up_to", m_override=16)
selector, attempts = build_verified(2, 4, cfg)
print(f"(2,4) ordered target at m=16: success on attempt {attempts}")
print("re-verification:", verify_permutation_selector(selector, 2, "up_to").format())

print()
print("The theoretical m is very conservative at desk scale; the")
print("empirical minimal length is far smaller:")
for k, n in ((2, 8), (2, 16), (3, 8)):
    cfg = BuildConfig(seed=0, target="permutation", size_mode="up_to", max_attempts=20,
                      m_override=200)
    m_star = minimal_m_search(k, n, cfg)
    print(f"  k={k} N={n}: minimal m = {m_star:>3}   formula m = {derive_size_params(k, n).m}")
