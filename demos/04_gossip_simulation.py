#!/usr/bin/env python3
"""End-to-end gossip in a collision-prone radio network, driven by a
verified permutation selector."""

from permsel import (
    BuildConfig,
    Network,
    SimState,
    build_verified,
    choose_kappa,
    gossip,
    random_strongly_connected,
    step,
)
from permsel.radio import measure_broadcast_rounds

print("=" * 64)
print("The channel: simultaneous in-neighbor transmissions collide")
print("=" * 64)
g = Network((frozenset({2}), frozenset({2}), frozenset()))
st = SimState(g)
rec = step(g, st, {0})
print("only node 0 transmits ->", rec.line())
st = SimState(g)
rec = step(g, st, {0, 1})
print("nodes 0 and 1 together ->", rec.line())
print("(node 2 hears nothing and cannot tell collision from silence)")

print()
print("=" * 64)
print("Full gossip on a random strongly connected digraph")
print("=" * 64)
n, p, seed = 12, 0.15, 21
network = random_strongly_connected(n, p, seed)
print(f"n={n}, extra edge probability {p}, seed {seed}")

b_rounds = measure_broadcast_rounds(network)
kappa = choose_kappa(n, b_rounds)
kappa = min(kappa, 3)  # keep the selector verification desk-sized
print(f"measured broadcast time B = {b_rounds} rounds -> kappa = {kappa}")


def provider(k, n_):
    cfg = BuildConfig(seed=99, target="permutation", size_mode="up_to",
                      m_override=4 * k * k * max(1, (n_ - 1).bit_length()))
    selector, attempts = build_verified(k, n_, cfg)
    print(f"built a verified ({k},{n_}) ordered selector of length "
          f"{len(selector)} on attempt {attempts}")
    return selector


trace = gossip(network, kappa, provider)

print()
print("first rounds of the trace:")
for rec in trace.records[:6]:
    print(" ", rec.line())
print("  ...")
print("summary:", trace.summary_line())
# Gossip replays quasi-gossip's schedule once, so the replay is the second half.
print("replay starts at record", len(trace.records) // 2)
complete = all(held == (1 << n) - 1 for held in trace.rumors_held)
print(f"every node ended with all {n} rumors: {complete}")
