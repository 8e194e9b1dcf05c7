"""Discrete-round simulator of ad-hoc radio networks with collision semantics.

Nodes are labeled 0..n-1 (the label universe equals the node set here).  In
each round a set of nodes transmits; node v receives a message iff exactly
one of its in-neighbors transmits (two or more collide, and v cannot tell a
collision from silence).  On top of this channel the module implements
deterministic round-robin broadcast, the rumor-grouping Disperse loop, the
selector-driven quasi-gossip protocol, and full gossip by schedule replay.

A round's deliveries and collisions depend only on the network and the
transmitter set, so a network resolves each transmitter set once: `step`
keeps the outcome of every set it meets on a network, and a later round of
the same set only applies its deliveries.  A network also builds each
edge's link once: the receiver, the (receiver, sender) pair and the
"v<-u" trace text, which every outcome delivering along that edge shares.

A rumor is identified by its originator's label, and every rumor set is an
int bitmask: bit r is set when the set holds rumor r.  Union is `|`, and a
set P is contained in H when `P & ~H == 0`.

Cost accounting note: choosing each Disperse source would take a broadcast
and binary-search sub-protocol in a fully distributed setting.  The
simulator selects the source with global knowledge and instead charges an
accounting surcharge of (rounds of that broadcast) * ceil(log2 n) rounds
per selection; surcharge rounds advance the round counter but produce no
transmission records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import GossipIncompleteError, NotStronglyConnectedError, QuasiGossipFailedError
from .selectors import Selector


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------

def _check_node_count(n: int) -> None:
    """A network has at least one node."""
    if n < 1:
        raise ValueError(f"a network needs at least 1 node, got {n}")


@dataclass(frozen=True)
class Network:
    """Directed graph on nodes 0..n-1, n >= 1.  An input self-loop is
    accepted and dropped from out_edges, because a node never delivers to
    itself.  `links[u]` holds one (v, (v, u), "v<-u") link per out-edge
    u -> v, built once here and shared by every round that delivers along
    the edge.  `outcomes` is `step`'s record of the outcome of each
    transmitter set on this network.  Neither is part of its value."""

    out_edges: tuple[frozenset[int], ...]

    def __post_init__(self):
        out_edges = tuple(frozenset(s) - {v} for v, s in enumerate(self.out_edges))
        object.__setattr__(self, "out_edges", out_edges)
        n = len(out_edges)
        _check_node_count(n)
        in_nbrs = [set() for _ in range(n)]
        links = []
        for u, outs in enumerate(out_edges):
            for v in outs:
                if not 0 <= v < n:
                    raise ValueError(f"node {u} has out-edge to {v} outside [0, {n})")
                in_nbrs[v].add(u)
            links.append(tuple((v, (v, u), f"{v}<-{u}") for v in outs))
        object.__setattr__(self, "in_neighbors", tuple(frozenset(s) for s in in_nbrs))
        object.__setattr__(self, "links", tuple(links))
        object.__setattr__(self, "outcomes", {})

    @property
    def n(self) -> int:
        return len(self.out_edges)


def network_to_text(network: Network) -> str:
    lines = [str(network.n)]
    for v in range(network.n):
        outs = " ".join(str(w) for w in sorted(network.out_edges[v]))
        lines.append(f"{v}: {outs}".rstrip())
    return "\n".join(lines) + "\n"


def network_from_text(text: str) -> Network:
    lines = [line for line in text.split("\n") if line.strip()]
    if not lines:
        raise ValueError("empty network file")
    n = int(lines[0])
    # The header is checked before the lines it counts.
    _check_node_count(n)
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} node lines, found {len(lines) - 1}")
    out_edges: list[Optional[frozenset[int]]] = [None] * n
    for line in lines[1:]:
        head, _, rest = line.partition(":")
        v = int(head)
        if not 0 <= v < n:
            raise ValueError(f"node label {v} outside [0, {n})")
        if out_edges[v] is not None:
            raise ValueError(f"duplicate line for node {v}")
        outs = [int(w) for w in rest.split()]
        if len(set(outs)) != len(outs):
            raise ValueError(f"node {v} repeats an out-label: {line!r}")
        out_edges[v] = frozenset(outs)
    return Network(tuple(out_edges))


def load_network(path) -> Network:
    with open(path, "r", encoding="utf-8") as f:
        return network_from_text(f.read())


def random_strongly_connected(n: int, extra_edge_prob: float, seed: int) -> Network:
    """A directed Hamiltonian cycle over a random permutation plus independent
    extra edges, each present with the given probability."""
    _check_node_count(n)
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise ValueError("extra_edge_prob must be in [0, 1]")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, not {seed}")
    import numpy as np
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    out_edges = [set() for _ in range(n)]
    if n > 1:
        perm = [int(x) for x in rng.permutation(n)]
        for i in range(n):
            out_edges[perm[i]].add(perm[(i + 1) % n])
        # One row of draws per u consumes the stream exactly as one (n, n)
        # draw would, in O(n) memory.  Network drops a drawn self-loop.
        for u in range(n):
            out_edges[u].update(np.flatnonzero(rng.random(n) < extra_edge_prob).tolist())
    return Network(tuple(out_edges))


def _reachable(out_edges: Sequence[frozenset[int]], start: int) -> set[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in out_edges[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def is_strongly_connected(network: Network) -> bool:
    """Every node reaches node 0 and node 0 reaches every node."""
    n = network.n
    return (len(_reachable(network.out_edges, 0)) == n
            and len(_reachable(network.in_neighbors, 0)) == n)


# ---------------------------------------------------------------------------
# state and trace
# ---------------------------------------------------------------------------

class SimState:
    """One run: rumor sets (`rumors_held`), rumor activity, round accounting
    (`round` includes surcharge), the run's transmission records, and the
    kappa quasi-gossip ran with (None before it runs).

    Bit v of `active` is set while rumor v is active (never broadcast);
    node v is active iff rumor v is.
    """

    def __init__(self, network: Network):
        self.rumors_held: list[int] = [1 << v for v in range(network.n)]
        self.active: int = (1 << network.n) - 1
        self.round: int = 0
        self.phase_rounds: dict[str, int] = {}
        self.records: list[RoundRecord] = []
        self.kappa: Optional[int] = None

    def active_rumor_count(self, v: int) -> int:
        return (self.rumors_held[v] & self.active).bit_count()

    def charge(self, phase: str, rounds: int) -> None:
        self.round += rounds
        self.phase_rounds[phase] = self.phase_rounds.get(phase, 0) + rounds

    def summary_line(self) -> str:
        return (
            f"rounds_total={self.round}"
            f" rounds_selector={self.phase_rounds.get('selector', 0)}"
            f" rounds_disperse={self.phase_rounds.get('disperse', 0)}"
            f" rounds_rr={self.phase_rounds.get('rr', 0)}"
        )

    def to_text(self) -> str:
        lines = [rec.line() for rec in self.records]
        lines.append(self.summary_line())
        return "\n".join(lines) + "\n"


@dataclass(slots=True)
class RoundRecord:
    """One transmission round: who transmitted, who received from whom, and
    which nodes saw a collision (two or more transmitting in-neighbors).
    `text` is the round's trace line without its index, shared by every
    round of these transmitters on one network.  Slotted but not frozen:
    `step` builds one record every round, and a frozen dataclass sets each
    field through `object.__setattr__`, about four times the cost.  What a
    record shares with other rounds is immutable: a reassigned field
    changes that record alone."""

    index: int
    phase: str
    transmitters: frozenset[int]
    received: tuple[tuple[int, int], ...]  # (receiver, sender), sorted by receiver
    collisions: frozenset[int]
    text: str  # "tx={...} rx=[...] collisions=[...]"

    def line(self) -> str:
        return f"round={self.index} {self.text}"


def save_trace(path, state: SimState) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(state.to_text())


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

def step(network: Network, state: SimState, transmitters: Iterable[int],
         phase: str = "manual") -> RoundRecord:
    """Run one round: every transmitter sends simultaneously; node v receives
    iff it has exactly one transmitting in-neighbor.  The round's record is
    appended to `state.records`.

    The network resolves each transmitter set once: the set's
    (transmitters, received, collisions, text, direct) is stored in
    `network.outcomes` on its first use there, and every round of the set
    shares it.  The received pairs and the rx text are the network's
    shared links, so a delivery allocates nothing.  Each message is the
    transmitter's full rumor set as it was at the start of the round.
    `direct` holds when no receiver transmits in the round: then no
    message changes while the round delivers, and each delivery is applied
    as it is read.  Otherwise every message is read before any receiver's
    set grows.  A transmitter label outside [0, n) raises before the state
    changes and is never stored.
    """
    tx = frozenset(transmitters)
    outcome = network.outcomes.get(tx)
    if outcome is None:
        n, links = network.n, network.links
        # A reached node's one link from a sender, or None once a second
        # sender reaches it.
        sender: dict[int, Optional[tuple[int, tuple[int, int], str]]] = {}
        for u in tx:
            if not 0 <= u < n:
                raise ValueError(f"unknown transmitter label {u}")
            for link in links[u]:
                v = link[0]
                sender[v] = None if v in sender else link
        received, deliveries, collided = [], [], []
        direct = True
        for v in sorted(sender):
            link = sender[v]
            if link is None:
                collided.append(v)
            else:
                received.append(link[1])
                deliveries.append(link[2])
                if v in tx:
                    direct = False
        text = (f"tx={{{','.join(map(str, sorted(tx)))}}}"
                f" rx=[{','.join(deliveries)}]"
                f" collisions=[{','.join(map(str, collided))}]")
        outcome = network.outcomes[tx] = (tx, tuple(received), frozenset(collided), text, direct)
    tx, received, collisions, text, direct = outcome
    record = RoundRecord(state.round, phase, tx, received, collisions, text)
    held = state.rumors_held
    if direct:
        for v, u in received:
            held[v] |= held[u]
    else:
        msgs = [held[u] for _, u in received]
        for (v, _), msg in zip(received, msgs):
            held[v] |= msg
    state.charge(phase, 1)
    state.records.append(record)
    return record


# ---------------------------------------------------------------------------
# broadcast
# ---------------------------------------------------------------------------

def broadcast(network: Network, state: SimState, source: int) -> int:
    """Deliver the source's current rumor set to every node; returns the
    number of rounds used.  Its rounds are recorded in the disperse phase.

    Deterministic round robin: repeat the singleton schedule {0},{1},...,
    {n-1}, each node transmitting in its slot once it holds the payload.
    A lone transmitter never collides, so every receiver in its round's
    record now holds the payload.  Each pass pushes the payload one distance
    layer further; the run stops as soon as every node holds it (global
    completion check).  A pass that reaches no new node leaves the holders
    closed under out-edges, so the smallest node still missing the payload
    is unreachable from the source: NotStronglyConnectedError names it,
    after that stalled pass is recorded, instead of looping forever.
    """
    if not 0 <= source < network.n:
        raise ValueError(f"unknown source label {source}")
    payload = state.rumors_held[source]
    holds = [payload & ~h == 0 for h in state.rumors_held]
    missing = holds.count(False)
    start = state.round
    while missing:
        before = missing
        for slot in range(network.n):
            record = step(network, state, {slot} if holds[slot] else (), phase="disperse")
            for w, _ in record.received:
                if not holds[w]:
                    holds[w] = True
                    missing -= 1
            if not missing:
                break
        if missing == before:
            raise NotStronglyConnectedError(
                f"node {holds.index(False)} is not reachable from source {source}")
    return state.round - start


def measure_broadcast_rounds(network: Network) -> int:
    """Rounds a broadcast from node 0 takes on a fresh state; a practical stand-in
    for the broadcast-time parameter of `choose_kappa`."""
    return broadcast(network, SimState(network), 0)


# ---------------------------------------------------------------------------
# disperse and gossip
# ---------------------------------------------------------------------------

def disperse(network: Network, state: SimState, mu: int) -> int:
    """While some node holds at least mu active rumors, broadcast from the
    node holding the most (lowest label on ties) and mark every rumor it
    carried at the start of its broadcast dormant.  Returns the number of
    selections.  Each selection is surcharged per the module cost note."""
    if mu < 1:
        raise ValueError("mu must be at least 1")
    selections = 0
    log_factor = math.ceil(math.log2(network.n))
    while True:
        counts = [state.active_rumor_count(v) for v in range(network.n)]
        best = max(counts)
        if best < mu:
            break
        source = counts.index(best)  # lowest label among the maxima
        payload = state.rumors_held[source]
        rounds = broadcast(network, state, source)
        state.charge("disperse", rounds * log_factor)  # selection surcharge
        state.active &= ~payload
        selections += 1
    return selections


def check_quasi_gossip_done(state: SimState) -> bool:
    """True iff every node is dormant or its rumor has reached a dormant node."""
    dormant_union = 0
    for w, held in enumerate(state.rumors_held):
        if not state.active >> w & 1:
            dormant_union |= held
    return state.active & ~dormant_union == 0


def _max_active_in_degree(network: Network, state: SimState) -> int:
    return max(sum(state.active >> u & 1 for u in network.in_neighbors[v])
               for v in range(network.n))


def check_selector_universe(selector: Selector, n: int) -> None:
    """A selector drives the rounds of a network only when its universe is
    the network's node set."""
    if selector.universe_size != n:
        raise ValueError(f"selector universe {selector.universe_size} does not match "
                         f"network size {n}")


def quasi_gossip(network: Network, state: SimState, kappa: int,
                 selector_provider: Callable[[int, int], Selector]) -> None:
    """Run the quasi-gossip protocol:

      1. one singleton pass where each node transmits its rumors in turn,
      2. Disperse(kappa),
      3. ceil(log2 kappa) + 1 repetitions of [active nodes transmit along a
         (kappa, n)-permutation selector; Disperse(ceil(kappa/2))].

    The task's postcondition (`check_quasi_gossip_done`) is checked after
    step 2 and after each repetition; since it is monotone under further
    rounds, the run stops early once it holds.  The selector is fetched
    once and reused across repetitions.  Raises QuasiGossipFailedError if
    either the in-neighborhood reduction after step 2 or the final
    postcondition fails (both would indicate a non-selector input or a
    simulator bug), so a run that returns met both.  A kappa outside
    [1, n] is refused before the first round, and a selector whose
    universe is not n before its first round (`check_selector_universe`).
    """
    if not 1 <= kappa <= network.n:
        raise ValueError(f"kappa must be in [1, n], got kappa={kappa}, n={network.n}")
    state.kappa = kappa
    for v in range(network.n):
        step(network, state, {v}, phase="rr")
    disperse(network, state, kappa)
    max_in = _max_active_in_degree(network, state)
    if max_in >= kappa:
        raise QuasiGossipFailedError(
            f"after Disperse(kappa) some node still has {max_in} >= kappa={kappa} active in-neighbors"
        )
    done = check_quasi_gossip_done(state)
    if not done:
        selector = selector_provider(kappa, network.n)
        check_selector_universe(selector, network.n)
        iterations = math.ceil(math.log2(kappa)) + 1
        half = math.ceil(kappa / 2)
        for _ in range(iterations):
            live = frozenset(v for v in range(network.n) if state.active >> v & 1)
            for s in selector.sets:
                step(network, state, s & live, phase="selector")
            disperse(network, state, half)
            done = check_quasi_gossip_done(state)
            if done:
                break
    if not done:
        raise QuasiGossipFailedError("quasi-gossip postcondition does not hold after the final iteration")


def gossip_complete(network: Network, state: SimState) -> bool:
    everything = (1 << network.n) - 1
    return all(held == everything for held in state.rumors_held)


def gossip(network: Network, kappa: Optional[int],
           selector_provider: Callable[[int, int], Selector]) -> SimState:
    """Full gossip on a strongly connected network (checked once, before any
    round; then kappa=None takes `choose_kappa` of a broadcast from node 0):
    run quasi-gossip from a fresh state, then replay its entire transmitter
    schedule once.  Audits that every node ends holding all n rumors, and
    returns the run's state: its first half of records is quasi-gossip, its
    second half the replay."""
    if not is_strongly_connected(network):
        raise NotStronglyConnectedError("network is not strongly connected")
    if kappa is None:
        kappa = choose_kappa(network.n, measure_broadcast_rounds(network))
    state = SimState(network)
    quasi_gossip(network, state, kappa, selector_provider)
    # A copy of the list: each replayed round appends to state.records.
    for rec in state.records[:]:
        step(network, state, rec.transmitters, phase=rec.phase)
    if not gossip_complete(network, state):
        raise GossipIncompleteError("some node is missing rumors after the replay")
    return state


def choose_kappa(n: int, broadcast_rounds: int) -> int:
    """ceil((n * broadcast_rounds / log2 n)^(1/3)), at most n; 1 when n = 1."""
    _check_node_count(n)
    if n == 1:
        return 1
    if broadcast_rounds < 1:
        raise ValueError("broadcast_rounds must be at least 1")
    kappa = math.ceil((n * broadcast_rounds / math.log2(n)) ** (1.0 / 3.0))
    return min(kappa, n)
