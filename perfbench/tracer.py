"""Per-layer tracing from outside the package.

`Tracer.install` replaces each traced function by a timing wrapper in every
`permsel` namespace that binds it (so `build.verify_strong` is wrapped as
well as `selectors.verify_strong`), and `uninstall` puts the originals
back.  Each call becomes a span (name, start, end, parent, job); a span's
self time is its duration minus the time its child spans cover.  The hot
leaves (`lis_length`, `_trace_labels`, `_contains_in_order`, `step`) run
hundreds of thousands of times per job, so they are summed into their
group instead of kept one by one.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
from collections import Counter, defaultdict
from time import perf_counter

from workloads import instance_rank, instance_total

MODULES = ("selectors", "build", "radio", "coupon", "cli")

# span group -> (module, functions).  Functions left out (formatting, file
# writes, size formulas) count in their caller's self time.
GROUPS = {
    "selectors.verify": ("selectors", ("verify_strong", "verify_permutation_selector",
                                       "verify_kq_selector", "verify_kq_permutation_selector")),
    "selectors.lis": ("selectors", ("lis_length",)),
    "selectors.trace_extract": ("selectors", ("_trace_labels",)),
    "selectors.order_check": ("selectors", ("_contains_in_order",)),
    "selectors.parse": ("selectors", ("load_selector", "selector_from_text")),
    "build.draw": ("build", ("random_selector",)),
    "build.loop": ("build", ("build_verified", "minimal_m_search")),
    "radio.step": ("radio", ("step",)),
    "radio.broadcast": ("radio", ("broadcast",)),
    "radio.disperse": ("radio", ("disperse",)),
    "radio.quasi_gossip": ("radio", ("quasi_gossip",)),
    "radio.gossip": ("radio", ("gossip",)),
    "radio.connectivity": ("radio", ("is_strongly_connected",)),
    "radio.parse": ("radio", ("load_network", "network_from_text")),
    "coupon.p_exact": ("coupon", ("p_exact",)),
    "coupon.p_jump_exact": ("coupon", ("p_jump_exact",)),
    "coupon.mc": ("coupon", ("p_monte_carlo",)),
    "coupon.bound": ("coupon", ("p_bound", "p_jump_bound")),
    "cli": ("cli", ("main",)),
}
LEAVES = {"selectors.lis", "selectors.trace_extract", "selectors.order_check", "radio.step"}
# Private helpers named by role: a refactor may remove them.
OPTIONAL = {"_trace_labels", "_contains_in_order"}

ORDERED_VERIFIERS = {"verify_permutation_selector", "verify_kq_permutation_selector"}
STEP_PHASES = ("rr", "disperse", "selector", "replay")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("selectors.verify.calls", "count", "lower"),
    ("selectors.verify.self_s", "s", "lower"),
    ("selectors.verify.instances", "count", "lower"),
    ("selectors.verify.ok_ratio", "ratio", "higher"),
    ("selectors.lis.calls", "count", "lower"),
    ("selectors.lis.self_s", "s", "lower"),
    ("selectors.trace_extract.self_s", "s", "lower"),
    ("selectors.order_check.self_s", "s", "lower"),
    ("selectors.parse.self_s", "s", "lower"),
    ("build.draw.calls", "count", "lower"),
    ("build.draw.sets", "count", "lower"),
    ("build.draw.self_s", "s", "lower"),
    ("build.loop.self_s", "s", "lower"),
    ("build.accept_ratio", "ratio", "higher"),
    *[(f"radio.step.calls.{p}", "count", "lower") for p in STEP_PHASES],
    ("radio.step.self_s", "s", "lower"),
    ("radio.step.transmitters", "count", "lower"),
    ("radio.step.deliveries", "count", "lower"),
    ("radio.step.collisions", "count", "lower"),
    ("radio.broadcast.calls", "count", "lower"),
    ("radio.broadcast.rounds", "count", "lower"),
    ("radio.broadcast.self_s", "s", "lower"),
    ("radio.disperse.calls", "count", "lower"),
    ("radio.disperse.selections", "count", "lower"),
    ("radio.disperse.self_s", "s", "lower"),
    ("radio.surcharge_rounds", "count", "lower"),
    ("radio.quasi_gossip.self_s", "s", "lower"),
    ("radio.gossip.self_s", "s", "lower"),
    ("radio.connectivity.self_s", "s", "lower"),
    ("radio.parse.self_s", "s", "lower"),
    ("coupon.p_exact.calls", "count", "lower"),
    ("coupon.p_exact.self_s", "s", "lower"),
    ("coupon.p_jump_exact.self_s", "s", "lower"),
    ("coupon.mc.samples", "count", "lower"),
    ("coupon.mc.self_s", "s", "lower"),
    ("coupon.bound.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.jobs", "count", "higher"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        # Each frame is [time covered by child spans, span id, group, function].
        self.stack = [[0.0, None, None, None]]
        self.job = None
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.absent = []
        self.hook_s = 0.0  # time spent in the counting hooks, outside every self time
        self._replay = False
        self._disperse_steps = 0
        self._patched = []
        self._ids = itertools.count()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"permsel.{name}") for name in MODULES}
        namespaces = [importlib.import_module("permsel"), *modules.values()]
        wrappers = {}
        for group, (module, names) in GROUPS.items():
            for name in names:
                fn = getattr(modules[module], name, None)
                if fn is None:
                    if name not in OPTIONAL:
                        raise RuntimeError(f"permsel.{module}.{name} is gone")
                    self.absent.append(group)
                    continue
                wrappers[id(fn)] = self._wrap(group, name, fn)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    def _wrap(self, group: str, name: str, fn):
        stack, calls, self_s, spans, ids = self.stack, self.calls, self.self_s, self.spans, self._ids
        leaf = group in LEAVES
        before = self._before_gossip if name == "gossip" else None
        after = self._after_verify if group == "selectors.verify" else {
            "random_selector": self._after_random_selector,
            "step": self._after_step,
            "broadcast": self._after_broadcast,
            "disperse": self._after_disperse,
            "quasi_gossip": self._after_quasi_gossip,
            "gossip": self._after_gossip,
            "p_monte_carlo": self._after_p_monte_carlo,
        }.get(name)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            parent = stack[-1]
            frame = [0.0, next(ids), group, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                own = t1 - t0 - frame[0]
                parent[0] += t1 - t0
                calls[group] += 1
                self_s[group] += own
                if not leaf:
                    spans.append((frame[1], group, t0, t1, parent[1], self.job, own))
            if after is not None:
                # The hook is tracing overhead: keep it out of the parent's self time.
                h0 = perf_counter()
                after(name, signature, args, kwargs, result)
                hook = perf_counter() - h0
                parent[0] += hook
                self.hook_s += hook
            return result

        return wrapper

    # -- counts taken at the span boundaries --------------------------------

    def _in(self, function: str) -> bool:
        return any(frame[3] == function for frame in self.stack)

    def _after_verify(self, name, signature, args, kwargs, verdict):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        universe, k, mode = a["selector"].universe_size, a["k"], a["size_mode"]
        ordered = name in ORDERED_VERIFIERS
        if verdict.ok:
            self.counts["selectors.verify.instances"] += instance_total(universe, k, mode, ordered)
            self.counts["selectors.verify.ok"] += 1
        else:
            self.counts["selectors.verify.instances"] += instance_rank(
                universe, k, mode, ordered, verdict.x_set, verdict.order)
        if self._in("build_verified") or self._in("minimal_m_search"):
            self.counts["build.verifies"] += 1
            self.counts["build.accepted"] += int(verdict.ok)

    def _after_random_selector(self, name, signature, args, kwargs, selector):
        self.counts["build.draw.sets"] += len(selector)
        if self._in("minimal_m_search"):
            self.counts["build.minsize_draws"] += 1

    def _after_step(self, name, signature, args, kwargs, record):
        phase = "replay" if self._replay else record.phase
        self.counts[f"radio.step.calls.{phase}"] += 1
        if record.phase == "disperse":
            self._disperse_steps += 1
        self.counts["radio.step.transmitters"] += len(record.transmitters)
        self.counts["radio.step.deliveries"] += len(record.received)
        self.counts["radio.step.collisions"] += len(record.collisions)

    def _after_broadcast(self, name, signature, args, kwargs, rounds):
        self.counts["radio.broadcast.rounds"] += rounds

    def _after_disperse(self, name, signature, args, kwargs, selections):
        self.counts["radio.disperse.selections"] += selections

    def _after_quasi_gossip(self, name, signature, args, kwargs, trace):
        # Every step from here until gossip returns replays the schedule.
        self._replay = self._in("gossip")

    def _before_gossip(self):
        self._replay = False
        self._disperse_steps = 0

    def _after_gossip(self, name, signature, args, kwargs, trace):
        self._replay = False
        self.counts["radio.surcharge_rounds"] += trace.phase_rounds.get("disperse", 0) - self._disperse_steps

    def _after_p_monte_carlo(self, name, signature, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        self.counts["coupon.mc.samples"] += bound.arguments["trials"]

    # -- report ---------------------------------------------------------------

    def metrics(self, bytes_written: int, traced_wall: float, untraced_wall: float,
                jobs: int) -> dict[str, float]:
        c, calls, self_s = self.counts, self.calls, self.self_s
        verifies = calls["selectors.verify"]
        values = {
            "selectors.verify.calls": verifies,
            "selectors.verify.instances": c["selectors.verify.instances"],
            "selectors.verify.ok_ratio": c["selectors.verify.ok"] / verifies if verifies else 0.0,
            "selectors.lis.calls": calls["selectors.lis"],
            "build.draw.calls": calls["build.draw"],
            "build.draw.sets": c["build.draw.sets"],
            "build.accept_ratio": c["build.accepted"] / c["build.verifies"] if c["build.verifies"] else 0.0,
            **{f"radio.step.calls.{p}": c[f"radio.step.calls.{p}"] for p in STEP_PHASES},
            "radio.step.transmitters": c["radio.step.transmitters"],
            "radio.step.deliveries": c["radio.step.deliveries"],
            "radio.step.collisions": c["radio.step.collisions"],
            "radio.broadcast.calls": calls["radio.broadcast"],
            "radio.broadcast.rounds": c["radio.broadcast.rounds"],
            "radio.disperse.calls": calls["radio.disperse"],
            "radio.disperse.selections": c["radio.disperse.selections"],
            "radio.surcharge_rounds": c["radio.surcharge_rounds"],
            "coupon.p_exact.calls": calls["coupon.p_exact"],
            "coupon.mc.samples": c["coupon.mc.samples"],
            "cli.bytes_written": bytes_written,
            "trace.jobs": jobs,
            "trace.traced_wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
        }
        for group in GROUPS:
            values.setdefault(f"{group}.self_s", self_s[group])
        return {name: values[name] for name, _, _ in PER_LAYER}

    def step_calls(self) -> int:
        return sum(v for k, v in self.counts.items() if k.startswith("radio.step.calls."))

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span_id, group, t0, t1, parent, job, own in self.spans:
                f.write(json.dumps({"id": span_id, "name": group, "start": t0, "end": t1,
                                    "parent": parent, "job": job, "self_s": own}) + "\n")
