import dataclasses
import math
import re

from hypothesis import example, given, settings, strategies
import numpy as np
import pytest

import oracles
from oracles import active_path_ell, audit_trace
from permsel import radio
from permsel.build import BuildConfig, build_verified
from permsel.errors import BudgetExceededError, NotStronglyConnectedError, QuasiGossipFailedError
from permsel.radio import (
    Network,
    RoundRecord,
    SimState,
    broadcast,
    check_quasi_gossip_done,
    choose_kappa,
    disperse,
    gossip,
    gossip_complete,
    is_strongly_connected,
    load_network,
    measure_broadcast_rounds,
    network_from_text,
    network_to_text,
    quasi_gossip,
    random_strongly_connected,
    step,
)
from permsel.selectors import Selector


def net(*out):
    return Network(tuple(frozenset(s) for s in out))


def cached_provider(seed=99):
    cache = {}

    def provider(k, n):
        if (k, n) not in cache:
            cfg = BuildConfig(seed=seed, target="permutation", size_mode="up_to",
                              m_override=4 * k * k * max(1, (n - 1).bit_length()))
            cache[(k, n)] = build_verified(k, n, cfg)[0]
        return cache[(k, n)]

    return provider


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------

def test_network_in_neighbors_exclude_self_loops():
    g = net({0, 1}, set())
    assert g.in_neighbors[0] == frozenset()
    assert g.in_neighbors[1] == frozenset({0})


def test_network_rejects_out_of_range():
    with pytest.raises(ValueError):
        net({2}, set())


def test_network_text_round_trip(tmp_path):
    g = net({1, 2}, {0}, set())
    text = network_to_text(g)
    assert text == "3\n0: 1 2\n1: 0\n2:\n"
    assert network_from_text(text) == g
    path = tmp_path / "net.txt"
    path.write_text(text, encoding="utf-8")
    assert load_network(path) == g


def test_network_text_errors():
    with pytest.raises(ValueError):
        network_from_text("2\n0: 1\n")
    with pytest.raises(ValueError):
        network_from_text("2\n0: 1\n0: 1\n")
    for text in ("0\n", "-1\n"):
        with pytest.raises(ValueError, match="at least 1 node"):
            network_from_text(text)
    assert network_from_text("1\n0:\n").n == 1


def test_network_needs_a_node():
    # Network owns the rule, so API callers meet it as the parser does.
    with pytest.raises(ValueError, match="a network needs at least 1 node, got 0"):
        Network(())
    assert Network((frozenset(),)).n == 1


def test_network_text_rejects_repeated_out_label():
    with pytest.raises(ValueError, match="node 0 repeats an out-label"):
        network_from_text("2\n0: 1 1\n1: 0\n")
    # The self-loop is accepted and dropped: a node never hears itself.
    assert network_from_text("2\n0: 1 0\n1:\n").out_edges == (frozenset({1}), frozenset())


def test_random_cycle_and_complete():
    cyc = random_strongly_connected(6, 0.0, 3)
    assert all(len(s) == 1 for s in cyc.out_edges)
    comp = random_strongly_connected(5, 1.0, 3)
    assert all(len(s) == 4 for s in comp.out_edges)


def test_random_networks_strongly_connected():
    for seed in range(10):
        g = random_strongly_connected(9, 0.15, seed)
        assert is_strongly_connected(g)


def test_random_network_deterministic():
    assert random_strongly_connected(7, 0.4, 11) == random_strongly_connected(7, 0.4, 11)


def dense_random_strongly_connected(n, extra_edge_prob, seed):
    """The one-matrix draw of the extra edges, the oracle for the row draws."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    out_edges = [set() for _ in range(n)]
    if n > 1:
        perm = [int(x) for x in rng.permutation(n)]
        for i in range(n):
            out_edges[perm[i]].add(perm[(i + 1) % n])
        extras = rng.random((n, n)) < extra_edge_prob
        for u in range(n):
            for v in range(n):
                if u != v and extras[u, v]:
                    out_edges[u].add(v)
    return Network(tuple(frozenset(s) for s in out_edges))


@pytest.mark.parametrize("n,p,seed", [(1, 0.5, 0), (2, 1.0, 3), (7, 0.4, 11), (50, 0.05, 2),
                                      (300, 0.01, 7), (400, 0.0, 1)])
def test_random_strongly_connected_matches_dense_draw(n, p, seed):
    assert random_strongly_connected(n, p, seed) == dense_random_strongly_connected(n, p, seed)


def test_is_strongly_connected_negative():
    assert not is_strongly_connected(net({1}, set()))
    assert is_strongly_connected(net(set(),))  # single node


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

def test_step_single_delivery():
    g = net({1}, set())
    st = SimState(g)
    rec = step(g, st, {0})
    assert rec.received == ((1, 0),)
    assert st.rumors_held[1] == 0b11


def test_step_collision_delivers_nothing():
    g = net({2}, {2}, set())
    st = SimState(g)
    rec = step(g, st, {0, 1})
    assert rec.received == ()
    assert rec.collisions == frozenset({2})
    assert st.rumors_held[2] == 0b100


def test_step_self_transmission_is_inert():
    g = net({1}, set())
    st = SimState(g)
    rec = step(g, st, {1})
    assert rec.received == () and rec.collisions == frozenset()


def test_step_ignores_self_loops():
    # Every node has a self-loop, which Network drops: a lone transmitter
    # reaches only its other out-neighbors, two transmitters that reach each
    # other each hear the other, and a node never collides with itself.
    g = net({0, 1, 2}, {0, 1, 2}, {2})
    assert g.out_edges == (frozenset({1, 2}), frozenset({0, 2}), frozenset())
    st = SimState(g)
    rec = step(g, st, {0})
    assert rec.received == ((1, 0), (2, 0)) and rec.collisions == frozenset()
    rec = step(g, st, {0, 1})
    assert rec.received == ((0, 1), (1, 0)) and rec.collisions == frozenset({2})
    rec = step(g, st, {2})
    assert rec.received == () and rec.collisions == frozenset()
    assert st.rumors_held == [0b011, 0b011, 0b101]
    assert audit_trace(g, st)


@pytest.mark.parametrize("bad", [2, 5, -1])
def test_step_refuses_a_bad_label_before_any_change(bad):
    # Node 0 is walked before the bad label is met; nothing is delivered,
    # recorded or charged.
    g = net({1}, {0})
    st = SimState(g)
    with pytest.raises(ValueError, match=f"^unknown transmitter label {bad}$"):
        step(g, st, [0, bad])
    assert st.rumors_held == [0b01, 0b10]
    assert (st.records, st.round, st.phase_rounds) == ([], 0, {})


@strategies.composite
def networks_and_schedule(draw):
    """Two networks on the same nodes and a schedule of transmitter sets
    drawn from a small pool (the empty set, the singletons and a few
    others), so that sets repeat."""
    n = draw(strategies.integers(1, 6))
    labels = strategies.integers(0, n - 1)
    edges = strategies.lists(strategies.sets(labels, max_size=n), min_size=n, max_size=n)
    others = draw(strategies.lists(strategies.frozensets(labels, min_size=min(2, n)), max_size=3))
    pool = [frozenset(), *(frozenset({v}) for v in range(n)), *others]
    schedule = strategies.lists(strategies.sampled_from(pool), max_size=40)
    return draw(edges), draw(edges), draw(schedule)


@settings(max_examples=150, deadline=None)
@given(networks_and_schedule())
@example(([{1, 2}, {2}, {0, 1}], [{1}, {0}, set()], [frozenset({0, 1}), frozenset(),
                                                    frozenset({0, 1})]))
def test_resolving_each_set_once_changes_nothing_observable(case):
    # Each network keeps its own outcomes, and every round on it matches a
    # round resolved from scratch on a fresh network with the same edges.
    # Each stored outcome is also the one the earlier body of `step`
    # (`oracles.resolve_round`) resolves and formats for its set, with the
    # direct flag: no receiver of the round transmits in it.
    for out in case[:2]:
        g = net(*out)
        warm, cold = SimState(g), SimState(g)
        for tx in case[2]:
            rec = step(g, warm, tx)
            ref = step(net(*out), cold, tx)
            assert (rec.line(), rec.received, rec.collisions) == (
                ref.line(), ref.received, ref.collisions)
        assert warm.rumors_held == cold.rumors_held
        assert warm.to_text() == cold.to_text()
        assert audit_trace(g, warm)
        assert set(g.outcomes) == set(case[2])
        for rec in warm.records:
            direct = all(v not in rec.transmitters for v, _ in rec.received)
            assert g.outcomes[rec.transmitters] == (
                rec.transmitters, rec.received, rec.collisions, rec.text, direct)
        for tx, outcome in g.outcomes.items():
            assert outcome == oracles.resolve_round(g, tx)


def test_rounds_of_one_set_get_records_of_their_own():
    # Records are not frozen: assigning to one leaves every other round of
    # its set, and the stored outcome, as they were.
    g = net({1, 2}, {2}, {0, 1})
    st = SimState(g)
    first, second = step(g, st, {0, 1}), step(g, st, {0, 1})
    assert first is not second and first.text is second.text
    outcome = g.outcomes[frozenset({0, 1})]
    # Receiver 1 transmits in the round, so the round is not direct.
    assert outcome == (frozenset({0, 1}), ((1, 0),), frozenset({2}), "tx={0,1} rx=[1<-0] collisions=[2]",
                       False)
    kept = dataclasses.replace(second)
    for field in dataclasses.fields(RoundRecord):
        setattr(first, field.name, None)
    assert second == kept and second.line() == "round=1 tx={0,1} rx=[1<-0] collisions=[2]"
    assert g.outcomes == {frozenset({0, 1}): outcome}
    assert step(g, st, {0, 1}).line() == "round=2 tx={0,1} rx=[1<-0] collisions=[2]"


def test_outcomes_deliver_along_an_edge_through_its_one_link():
    # {0} and {0, 2} both deliver along 0 -> 1: their received tuples hold
    # the network's one (1, 0) pair.
    g = net({1}, set(), {0})
    st = SimState(g)
    alone, both = step(g, st, {0}), step(g, st, {0, 2})
    assert (alone.received, both.received) == (((1, 0),), ((0, 2), (1, 0)))
    assert alone.received[0] is both.received[1] is g.links[0][0][1]
    assert g.links == (((1, (1, 0), "1<-0"),), (), ((0, (0, 2), "0<-2"),))
    # {0} is direct; in {0, 2} receiver 0 transmits, so 1 gets 0's rumors
    # from before the round.
    assert g.outcomes[frozenset({0})][4] and not g.outcomes[frozenset({0, 2})][4]
    assert st.rumors_held == [0b101, 0b011, 0b100]


def test_a_self_loop_read_from_a_file_gets_no_link():
    g = network_from_text("3\n0: 0 1\n1: 1\n2: 0 2\n")
    assert g.links == (((1, (1, 0), "1<-0"),), (), ((0, (0, 2), "0<-2"),))
    st = SimState(g)
    rec = step(g, st, {0, 1, 2})
    assert rec.line() == "round=0 tx={0,1,2} rx=[0<-2,1<-0] collisions=[]"


def test_links_and_outcomes_are_not_part_of_a_networks_value():
    a, b = net({1, 2}, {2}, {0}), net({1, 2}, {2}, {0})
    st = SimState(a)
    for tx in ({0}, {0, 1}, {2}):
        step(a, st, tx)
    assert a.outcomes and not b.outcomes
    assert a == b and hash(a) == hash(b)


@strategies.composite
def networks_with_a_transmitting_receiver(draw):
    """A network with an edge 0 -> 1 and a schedule that starts with the
    round {0, 1}, in which 1 both transmits and receives from 0, followed
    by sets of at least two transmitters."""
    n = draw(strategies.integers(2, 7))
    labels = strategies.integers(0, n - 1)
    out = draw(strategies.lists(strategies.sets(labels, max_size=n), min_size=n, max_size=n))
    out[0].add(1)
    schedule = draw(strategies.lists(strategies.frozensets(labels, min_size=2), max_size=12))
    return out, [frozenset({0, 1}), *schedule]


@settings(max_examples=150, deadline=None)
@given(networks_with_a_transmitting_receiver())
@example(([{1}, {2}, set()], [frozenset({0, 1})]))
def test_rounds_whose_receivers_transmit_read_every_message_first(case):
    # Where a receiver also transmits, its message is its rumor set from
    # the start of the round: each round's rumor flow is re-derived from a
    # copy of the sets taken before it, and its deliveries by the audit.
    out, schedule = case
    g = net(*out)
    st = SimState(g)
    for tx in schedule:
        start = tuple(st.rumors_held)
        expected = list(start)
        rec = step(g, st, tx)
        for v, u in rec.received:
            expected[v] |= start[u]
        assert st.rumors_held == expected
    assert not g.outcomes[frozenset({0, 1})][4]
    assert audit_trace(g, st)


def test_networks_resolve_the_same_set_each_their_own_way():
    # The second pass reads each network's stored outcome.
    a, b = net({1}, set()), net(set(), {0})
    for _ in range(2):
        for g, rx in ((a, "1<-0"), (b, "0<-1")):
            rec = step(g, SimState(g), {0, 1})
            assert rec.line() == f"round=0 tx={{0,1}} rx=[{rx}] collisions=[]"


@pytest.mark.parametrize("bad", [[3], [0, 3], [-1, 1]])
def test_a_bad_label_on_a_warm_network_changes_nothing(bad):
    g = net({1, 2}, {2}, {0})
    st = SimState(g)
    for tx in ({0}, {1}, {0, 1}, {0}, ()):
        step(g, st, tx)
    before = (list(st.rumors_held), st.round, list(st.records), dict(g.outcomes))
    with pytest.raises(ValueError, match="^unknown transmitter label (3|-1)$"):
        step(g, st, bad)
    assert (st.rumors_held, st.round, st.records, g.outcomes) == before
    # A valid round after the refusal still resolves correctly.
    rec = step(g, st, {1, 2})
    assert rec.line() == "round=5 tx={1,2} rx=[0<-2,2<-1] collisions=[]"
    assert st.rumors_held == [0b111, 0b011, 0b111]
    assert audit_trace(g, st)


def test_step_messages_snapshot_at_round_start():
    # 0 -> 1 -> 2 transmitting together: 2 must get 1's pre-round rumors only.
    g = net({1}, {2}, set())
    st = SimState(g)
    step(g, st, {0, 1})
    assert st.rumors_held[2] == 0b110
    assert st.rumors_held[1] == 0b011


def test_step_rejects_unknown_label():
    g = net(set(),)
    with pytest.raises(ValueError):
        step(g, SimState(g), {3})


def altered_record_audit():
    g = net({1}, {0})
    st = SimState(g)
    step(g, st, {0})
    st.records[0] = dataclasses.replace(st.records[0], received=())
    return audit_trace(g, st)


@pytest.mark.parametrize("call,message", [
    (lambda: network_from_text(""), "empty network file"),
    (lambda: network_from_text("\n \n"), "empty network file"),
    (lambda: network_from_text("2\n5: 0\n1: 0\n"), "node label 5 outside [0, 2)"),
    (lambda: network_from_text("2\n2: 0\n1: 0\n"), "node label 2 outside [0, 2)"),
    (lambda: random_strongly_connected(0, 0.5, 1), "a network needs at least 1 node, got 0"),
    (lambda: random_strongly_connected(5, 1.5, 1), "extra_edge_prob must be in [0, 1]"),
    (lambda: random_strongly_connected(5, -0.1, 1), "extra_edge_prob must be in [0, 1]"),
    (lambda: broadcast(net({1}, {0}), SimState(net({1}, {0})), 2), "unknown source label 2"),
    (lambda: disperse(net({1}, {0}), SimState(net({1}, {0})), 0), "mu must be at least 1"),
    (lambda: quasi_gossip(net({1}, {0}), SimState(net({1}, {0})), 0, cached_provider()),
     "kappa must be in [1, n], got kappa=0, n=2"),
    (lambda: quasi_gossip(net({1}, {0}), SimState(net({1}, {0})), 3, cached_provider()),
     "kappa must be in [1, n], got kappa=3, n=2"),
    (lambda: choose_kappa(5, 0), "broadcast_rounds must be at least 1"),
    (altered_record_audit, "round 0: trace inconsistent with the collision rule"),
], ids=["blank-file", "blank-lines", "label-out-of-range", "label-n", "n-zero", "p-above-1", "p-below-0",
        "source-n", "mu-zero", "kappa-zero", "kappa-above-n", "no-broadcast-rounds",
        "altered-record"])
def test_radio_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_rumor_conservation():
    g = random_strongly_connected(6, 0.3, 4)
    st = SimState(g)
    for v in range(6):
        before = list(st.rumors_held)
        step(g, st, {v})
        assert all(b & ~a == 0 for b, a in zip(before, st.rumors_held))
        assert all(st.rumors_held[w] >> w & 1 for w in range(6))


# ---------------------------------------------------------------------------
# broadcast
# ---------------------------------------------------------------------------

def test_broadcast_path():
    g = net({1}, {2}, set())
    st = SimState(g)
    rounds = broadcast(g, st, 0)
    assert rounds == 2
    assert st.rumors_held[2] & 1


def test_broadcast_single_node_zero_rounds():
    g = net(set(),)
    assert broadcast(g, SimState(g), 0) == 0


def test_broadcast_star_one_pass():
    g = net({1, 2, 3}, set(), set(), set())
    st = SimState(g)
    assert broadcast(g, st, 0) == 1
    assert all(st.rumors_held[v] & 1 for v in range(4))


def test_broadcast_unreachable_reports_node():
    # An unreachable node proves the network is not strongly connected.
    g = net({1}, set(), {0})
    with pytest.raises(NotStronglyConnectedError,
                       match="^node 2 is not reachable from source 0$"):
        broadcast(g, SimState(g), 0)


def test_broadcast_unreachable_names_the_smallest_unreachable_node():
    # 0 -> 3 -> 4 -> 0 is closed; no edge leads from it to 1 or 2.  Labels 3
    # and 4 are reachable yet above the smallest unreachable label, 1.
    g = net({3}, {0}, {1}, {4}, {0})
    st = SimState(g)
    with pytest.raises(NotStronglyConnectedError,
                       match="^node 1 is not reachable from source 0$"):
        broadcast(g, st, 0)
    # Pass 1 reaches 3 and 4; pass 2 reaches nothing and is recorded before
    # the raise.
    assert st.round == 2 * g.n
    assert [rec.transmitters for rec in st.records[g.n:]] == [
        {0}, set(), set(), {3}, {4}]


def test_measure_broadcast_rounds_leaves_caller_state_alone():
    g = random_strongly_connected(5, 0.2, 8)
    st = SimState(g)
    measure_broadcast_rounds(g)
    assert st.rumors_held == [1 << v for v in range(5)]


# ---------------------------------------------------------------------------
# disperse
# ---------------------------------------------------------------------------

def test_disperse_noop_below_threshold():
    g = net({1}, {0})
    st = SimState(g)
    assert disperse(g, st, 2) == 0
    assert st.round == 0


def test_disperse_k3_single_selection():
    g = net({1, 2}, {0, 2}, {0, 1})
    st = SimState(g)
    for v in range(3):
        step(g, st, {v}, phase="rr")
    assert [st.active_rumor_count(v) for v in range(3)] == [3, 3, 3]
    assert disperse(g, st, 3) == 1
    assert st.active == 0


def test_disperse_postcondition_and_selection_bound():
    for seed in range(6):
        g = random_strongly_connected(10, 0.2, seed)
        st = SimState(g)
        for v in range(10):
            step(g, st, {v}, phase="rr")
        mu = 3
        entry_active = st.active.bit_count()
        selections = disperse(g, st, mu)
        assert max(st.active_rumor_count(v) for v in range(10)) < mu
        assert selections <= entry_active // mu
        assert selections <= 2 * 10 / mu


def test_disperse_surcharge_accounting():
    g = net({1, 2}, {0, 2}, {0, 1})
    st = SimState(g)
    for v in range(3):
        step(g, st, {v}, phase="rr")
    rr_records = len(st.records)
    disperse(g, st, 3)
    real_rounds = len(st.records) - rr_records
    assert st.phase_rounds["disperse"] == real_rounds * (1 + math.ceil(math.log2(3)))


# ---------------------------------------------------------------------------
# quasi-gossip and gossip
# ---------------------------------------------------------------------------

def test_quasi_gossip_single_node_one_round():
    g = net(set(),)
    st = SimState(g)
    quasi_gossip(g, st, 1, cached_provider())
    assert st.round == 1
    assert check_quasi_gossip_done(st)


def test_quasi_gossip_cycle_postconditions():
    g = net({1}, {2}, {3}, {0})
    st = SimState(g)
    assert quasi_gossip(g, st, 2, cached_provider()) is None
    assert check_quasi_gossip_done(st)


def test_quasi_gossip_refuses_in_degree_left_after_disperse(monkeypatch):
    # Node 0 has in-neighbors 1 and 2; a Disperse that selects nothing
    # leaves both active, so the reduction to fewer than kappa=2 fails.
    g = net({1}, {0}, {0})
    monkeypatch.setattr(radio, "disperse", lambda network, state, mu: 0)
    with pytest.raises(QuasiGossipFailedError, match=r"^after Disperse\(kappa\) some node still "
                                                     r"has 2 >= kappa=2 active in-neighbors$"):
        quasi_gossip(g, SimState(g), 2, cached_provider())


def test_quasi_gossip_enters_selector_loop_on_sparse_cycle(monkeypatch):
    g = random_strongly_connected(8, 0.0, 0)
    st = SimState(g)
    mus = []

    def counted_disperse(network, state, mu):
        mus.append(mu)
        return disperse(network, state, mu)

    monkeypatch.setattr(radio, "disperse", counted_disperse)
    quasi_gossip(g, st, 6, cached_provider())
    assert mus[0] == 6 and len(mus) >= 2 and set(mus[1:]) == {3}  # line 4, then each iteration
    assert st.phase_rounds.get("selector", 0) > 0


def formula_selector(universe, kappa=8, m=256):
    """A fixed selector over [0, universe) of m sets, drawn by a formula."""
    return Selector(universe, tuple(
        frozenset(x for x in range(universe) if (t * t + 3 * x * t + x * x + 5 * t) % kappa == 0)
        for t in range(m)))


@pytest.mark.parametrize("universe", [24, 6])
def test_quasi_gossip_refuses_a_selector_over_another_universe(universe):
    # This run reaches the selector phase (512 selector rounds with a
    # universe of 12); a selector over any other universe is refused before
    # its first round, through the API as through the CLI.
    g = random_strongly_connected(12, 0.0, 0)
    message = f"^selector universe {universe} does not match network size 12$"
    st = SimState(g)
    with pytest.raises(ValueError, match=message):
        quasi_gossip(g, st, 8, lambda k, n: formula_selector(universe))
    assert "selector" not in st.phase_rounds
    with pytest.raises(ValueError, match=message):
        gossip(g, 8, lambda k, n: formula_selector(universe))
    assert gossip(g, 8, lambda k, n: formula_selector(12)).phase_rounds["selector"] == 512


def test_quasi_gossip_fails_with_useless_selector():
    # Nodes 6 and 7 feed all of 0..5, which have no out-edges.  Piles stay
    # at 3, below Disperse(7) and Disperse(4) thresholds, so only the
    # selector phase could make progress; all-universe sets always collide
    # at the in-degree-2 sinks, so the postcondition check must fire.
    g = net(set(), set(), set(), set(), set(), set(), set(range(6)), set(range(6)))
    junk = lambda k, n_: Selector(n_, tuple(frozenset(range(n_)) for _ in range(4)))
    with pytest.raises(QuasiGossipFailedError):
        quasi_gossip(g, SimState(g), 7, junk)


@pytest.mark.parametrize("kappa,iterations", [(7, 4), (8, 4), (9, 5), (16, 5)])
def test_quasi_gossip_runs_every_iteration_before_it_fails(kappa, iterations):
    # On a reversed cycle (v -> v-1) only the selector phase can finish the
    # task at these kappa; empty sets move nothing, so all ceil(log2 kappa)
    # + 1 iterations run their m rounds before the postcondition fails.
    n, m = 16, 5
    g = net(*({(v - 1) % n} for v in range(n)))
    st = SimState(g)
    with pytest.raises(QuasiGossipFailedError, match="^quasi-gossip postcondition does not hold "
                                                     "after the final iteration$"):
        quasi_gossip(g, st, kappa, lambda k, n_: Selector(n_, (frozenset(),) * m))
    assert st.phase_rounds["selector"] == iterations * m


def test_gossip_k2():
    g = net({1}, {0})
    state = gossip(g, 2, cached_provider())
    assert state.rumors_held == [0b11, 0b11]


def test_gossip_random_16():
    g = random_strongly_connected(16, 0.2, 5)
    state = gossip(g, 3, cached_provider())
    assert all(held.bit_count() == 16 for held in state.rumors_held)
    assert gossip_complete(g, state)
    assert audit_trace(g, state)


def test_gossip_replay_is_recorded_schedule():
    g = random_strongly_connected(6, 0.3, 2)
    trace = gossip(g, 2, cached_provider())
    start = len(trace.records) // 2
    assert 2 * start == len(trace.records)
    for before, after in zip(trace.records[:start], trace.records[start:]):
        assert before.transmitters == after.transmitters
        assert before.phase == after.phase


def test_gossip_deterministic():
    g = random_strongly_connected(8, 0.25, 7)
    t1 = gossip(g, 2, cached_provider())
    t2 = gossip(g, 2, cached_provider())
    assert t1.to_text() == t2.to_text()


def test_gossip_measures_kappa_when_none_is_given():
    g = random_strongly_connected(8, 0.25, 7)
    kappa = choose_kappa(g.n, measure_broadcast_rounds(g))
    measured = gossip(g, None, cached_provider())
    assert measured.kappa == kappa
    assert measured.to_text() == gossip(g, kappa, cached_provider()).to_text()


def test_gossip_rejects_weakly_connected():
    with pytest.raises(NotStronglyConnectedError, match="^network is not strongly connected$"):
        gossip(net({1}, set()), 1, cached_provider())


def test_trace_text_format():
    g = net({1}, {0})
    trace = gossip(g, 2, cached_provider())
    lines = trace.to_text().splitlines()
    assert lines[0].startswith("round=0 tx={")
    assert " rx=[" in lines[0] and " collisions=[" in lines[0]
    assert lines[-1].startswith("rounds_total=")
    assert f"rounds_total={trace.round}" in lines[-1]


# ---------------------------------------------------------------------------
# kappa and diagnostics
# ---------------------------------------------------------------------------

def test_choose_kappa_values():
    assert choose_kappa(2, 1) == 2
    for n in (4, 16, 64):
        assert 1 <= choose_kappa(n, n * n) <= n
    assert choose_kappa(4, 1) <= choose_kappa(4, 50) <= choose_kappa(4, 5000)
    # A one-node broadcast takes 0 rounds, and its kappa is 1.
    assert choose_kappa(1, 0) == 1
    with pytest.raises(ValueError, match="^a network needs at least 1 node, got 0$"):
        choose_kappa(0, 1)


def test_check_done_all_dormant():
    g = net({1}, {0})
    st = SimState(g)
    st.active = 0
    assert check_quasi_gossip_done(st)


def test_check_done_active_rumor_reached_dormant_node():
    g = net({1}, {0})
    st = SimState(g)
    step(g, st, {0})
    st.active = 0b01  # node 1, which holds rumor 0, is dormant
    assert check_quasi_gossip_done(st)
    st.rumors_held[1] = 0b10
    assert not check_quasi_gossip_done(st)


def test_check_done_active_rumor_stuck_among_actives():
    g = net({1}, {0})
    st = SimState(g)
    assert not check_quasi_gossip_done(st)


def test_active_path_ell_no_active_nodes():
    g = net({1}, {0})
    st = SimState(g)
    st.active = 0
    assert active_path_ell(g, st, 1) == 2


def test_active_path_ell_single_node_violation():
    # Node 2 has two active in-neighbors; with kappa=2 even 1-node paths fail.
    g = net({2}, {2}, {0, 1})
    st = SimState(g)
    assert active_path_ell(g, st, 2) == 0
    assert active_path_ell(g, st, 3) == 1  # 2-node paths gather 3 in-neighbors


def test_active_path_ell_cycle():
    g = net({1}, {2}, {3}, {0})
    st = SimState(g)
    # A path of j nodes on a directed cycle has an active in-neighborhood of
    # exactly j (its nodes' predecessors), so paths shorter than kappa pass.
    assert active_path_ell(g, st, 3) == 2
    assert active_path_ell(g, st, 5) == 4


@pytest.mark.parametrize("budget", [0, 3])
def test_active_path_ell_refuses_past_its_budget(monkeypatch, budget):
    # 0 is exceeded at the first start node, 3 inside the first path's DFS.
    monkeypatch.setattr(oracles, "ACTIVE_PATH_BUDGET", budget)
    g = net({1}, {2}, {3}, {0})
    with pytest.raises(BudgetExceededError, match=f"exceeded {budget} expansions"):
        active_path_ell(g, SimState(g), 5)
