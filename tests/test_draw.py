"""random_selector's chunked draw against the per-set numpy loop.

`build._draw_sets` recomputes numpy's SeedSequence for many sets at once,
then writes each set's PCG64 state into one numpy bit generator and reads
its raw outputs; `oracles.draw_per_set` builds one generator per set, as
random_selector did before.  Every set must come out the same: over seeds
of one to seven 32-bit words (both sides of several word boundaries), every
universe size up to 40 plus 250, 1000 and both sides of two powers of two,
every k up to 12, ranges that start past 0 or end at the last one-word spawn
key, chunks of one row, universe sizes drawn in any order, and draws that
borrow a prefix.
"""

import hashlib

from hypothesis import given, settings, strategies as st
import pytest

from oracles import draw_per_set
from permsel import build
from permsel.build import random_selector
from permsel.selectors import Selector, selector_to_text

# Six- and seven-word seeds pin the four hash steps per word past the fourth.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128 + 3, 12345678901234567890,
         2**160, 2**224 - 1]
# 255..257 and 1023..1025 straddle two powers of two.
UNIVERSES = list(range(41)) + [250, 255, 256, 257, 1000, 1023, 1024, 1025]


def per_set(k, n, m, seed):
    return Selector(n, tuple(draw_per_set(k, n, seed, 0, m)))


@pytest.mark.parametrize("seed", SEEDS)
def test_draw_matches_per_set_oracle(seed):
    for n in UNIVERSES:
        m = 5 if n <= 40 else 2
        for k in range(1, 13):
            assert random_selector(k, n, m, seed) == per_set(k, n, m, seed), (n, k)


@pytest.mark.parametrize("t0,t1", [(0, 0), (0, 1), (5, 5), (3, 17), (1000, 1003),
                                   (2**32 - 4, 2**32)])
@pytest.mark.parametrize("n,k", [(0, 2), (1, 1), (12, 4), (250, 3)])
def test_draw_ranges_match_per_set_oracle(t0, t1, n, k):
    for seed in SEEDS:
        assert build._draw_sets(k, n, seed, t0, t1) == draw_per_set(k, n, seed, t0, t1)


@pytest.mark.parametrize("chunk", [1, 16, 100])
@pytest.mark.parametrize("n", [0, 7, 12, 40])
def test_draw_chunks_match_per_set_oracle(monkeypatch, chunk, n):
    # One row per chunk (chunk <= n), a few rows, and a last chunk cut short.
    monkeypatch.setattr(build, "_DRAW_CHUNK", chunk)
    assert build._draw_sets(3, n, 77, 2, 31) == draw_per_set(3, n, 77, 2, 31)


@pytest.mark.parametrize("sizes", [(1000,), (1, 2, 3, 7, 12, 40, 41, 250, 1000),
                                   (1000, 1, 2, 3, 7, 12, 40, 41, 250, 1000)])
def test_mixed_size_draws_match_per_set_oracle(sizes):
    # From a fresh cache: one jump to N = 1000, growth in uneven steps, and
    # small sizes drawn after the largest.
    build._constants.cache_clear()
    for n in sizes:
        assert build._draw_sets(5, n, 3, 0, 3) == draw_per_set(5, n, 3, 0, 3), n
    # The cached generate_state constants are shared by every draw.
    for a in build._constants():
        with pytest.raises(ValueError, match="read-only"):
            a[..., 0] = 0


def test_draw_spanning_default_chunks_matches_per_set_oracle():
    # 682 rows of 12 labels per chunk: 1500 sets end inside the third chunk.
    assert random_selector(4, 12, 1500, 5) == per_set(4, 12, 1500, 5)


def test_draw_above_every_benchmark_universe_is_pinned():
    # The oracle moves with numpy; this sha does not.  N=1000 is past every
    # benchmark universe.
    text = selector_to_text(random_selector(3, 1000, 40, 11), 3)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "8f340fdde63a612b36df65d38b024bbdc3b15e5289a67de3e06163a640c6bb04")


@pytest.mark.parametrize("m2", [0, 1, 5, 9])
def test_draw_after_a_prefix_matches_per_set_oracle(m2):
    # The lent sets come from the oracle; `_draw_sets` draws only the rest.
    prefix = per_set(3, 10, m2, 9)
    for m in (0, 1, 5, 9, 12):
        assert random_selector(3, 10, m, 9, prefix=prefix) == per_set(3, 10, m, 9)


def no_draw(*args):
    raise AssertionError("_draw_sets called")


def test_a_lent_draw_runs_no_kernel(monkeypatch):
    prefix = random_selector(3, 10, 6, 9)
    monkeypatch.setattr(build, "_draw_sets", no_draw)
    assert random_selector(3, 10, 6, 9, prefix=prefix) == prefix
    assert len(random_selector(3, 10, 0, 9)) == 0


def test_a_negative_universe_is_refused_before_the_draw(monkeypatch):
    # Drawing m empty rows first would take time that grows with m.
    monkeypatch.setattr(build, "_draw_sets", no_draw)
    with pytest.raises(ValueError, match="^universe_size must be non-negative$"):
        random_selector(2, -1, 10**6, 0)


@given(seed=st.integers(0, 2**160), n=st.integers(0, 64),
       k=st.one_of(st.integers(1, 16), st.integers(17, 2**70)),
       t0=st.integers(0, 2**32 - 1), count=st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_draw_matches_per_set_oracle_random(seed, n, k, t0, count):
    t1 = min(t0 + count, 2**32)
    assert build._draw_sets(k, n, seed, t0, t1) == draw_per_set(k, n, seed, t0, t1)
