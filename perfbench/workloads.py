"""The four benchmark workloads: how each job's inputs are made, and how its
outputs are checked.

A job is a short list of `permsel` command lines that one CLI user would
run back to back.  Inputs come from the workload seed and the job index
only, so a seed always gives the same jobs, and no two jobs of a run share
their inputs (an in-process cache would otherwise turn repeats into hits a
one-shot CLI user never sees).  Checks run outside the timed region and
use benchmark code only, never the package under test.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from math import comb
from pathlib import Path

import numpy as np

# Sizes per profile.  "full" is what the benchmark measures; "toy" is the
# self-test's, small enough that every workload finishes in a second.
SIZES = {
    "full": {
        "certify": {"k": 4, "N": 12, "m": 180, "q": 2},
        "search": {"k": 3, "N": 10, "trials": 5, "short_m": 30},
        "gossip": {"sparse_n": 250, "sparse_kappa": 8, "ring_n": 50, "ring_kappa": 12},
        "coupon": {"k_lo": 24, "k_hi": 240, "ell_max": 400, "windows": 4, "q_max": 12,
                   "trials": 50_000},
    },
    "toy": {
        "certify": {"k": 3, "N": 6, "m": 60, "q": 2},
        "search": {"k": 2, "N": 6, "trials": 3, "short_m": 4},
        "gossip": {"sparse_n": 30, "sparse_kappa": 4, "ring_n": 12, "ring_kappa": 4},
        "coupon": {"k_lo": 8, "k_hi": 24, "ell_max": 40, "windows": 4, "q_max": 4,
                   "trials": 2_000},
    },
}

# Monte-Carlo estimates must lie within this many standard errors of p_exact.
# At 4 a correct program fails one job in 16,000, about one in ten of the
# 22-run sets a benchmark comparison makes; at 5, one job in 1.7 million.
MC_SIGMAS = 5


@dataclass
class Job:
    """One job: the command lines to run, the files they write, and what
    the checker needs to know about the inputs."""

    workload: str
    index: int
    calls: list[list[str]]
    outputs: list[Path] = field(default_factory=list)
    context: dict = field(default_factory=dict)


@dataclass
class Result:
    """What a job's command lines returned; `error` holds the traceback of a crash."""

    seconds: float
    codes: list = field(default_factory=list)
    stdouts: list[str] = field(default_factory=list)
    stderrs: list[str] = field(default_factory=list)
    error: str = ""


def job_seed(seed: int, index: int) -> int:
    """The --seed passed to the CLI for job `index`: distinct within a run."""
    return seed * 1_000_000 + index


def job_rng(seed: int, index: int) -> np.random.Generator:
    """The benchmark's own generator for the inputs of job `index`."""
    return np.random.default_rng([seed, index])


def write_random_selector(path: Path, universe: int, k: int, m: int, density: float,
                          rng: np.random.Generator) -> list[int]:
    """Write m random sets in the selector file format; returns them as bit masks."""
    member = rng.random((m, universe)) < density
    lines = [f"{universe} {k} {m}"]
    masks = []
    for row in member:
        labels = np.flatnonzero(row).tolist()
        lines.append(" ".join(map(str, labels)))
        masks.append(sum(1 << x for x in labels))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return masks


# ---------------------------------------------------------------------------
# certify: gen, then three more verifiers on the passing selector
# ---------------------------------------------------------------------------

def certify_job(index: int, seed: int, work: Path, size: dict) -> Job:
    sel = work / f"certify-{index}.sel"
    k, n, m, q = str(size["k"]), str(size["N"]), str(size["m"]), str(size["q"])
    calls = [
        ["gen", "-k", k, "-N", n, "-m", m, "--target", "permutation", "--mode", "up_to",
         "--seed", str(job_seed(seed, index)), "-o", str(sel)],
        ["verify", str(sel), "--target", "strong", "--mode", "up_to"],
        ["verify", str(sel), "--target", "kq", "-q", q, "--mode", "up_to"],
        ["verify", str(sel), "--target", "kq_permutation", "-q", q, "--mode", "up_to"],
    ]
    return Job("certify", index, calls, [sel], {"sel": sel, **size})


def certify_check(job: Job, res: Result) -> list[str]:
    problems = []
    gen_lines = res.stdouts[0].splitlines()
    if res.codes[0] != 0 or not gen_lines:
        return [f"gen exited {res.codes[0]}"]
    want = re.compile(rf"attempts=\d+ m={job.context['m']} out={re.escape(str(job.context['sel']))}")
    if not want.fullmatch(gen_lines[-1]):
        problems.append(f"gen summary line {gen_lines[-1]!r}")
    header = job.context["sel"].read_text(encoding="utf-8").split("\n", 1)[0]
    if header != f"{job.context['N']} {job.context['k']} {job.context['m']}":
        problems.append(f"selector header {header!r}")
    # gen certified a permutation selector, which is also strong, (k,q)
    # and (k,q)-permutation: every verdict must be OK.
    for call, code, out in zip(job.calls[1:], res.codes[1:], res.stdouts[1:]):
        if code != 0 or out != "OK\n":
            problems.append(f"verify {call[3]} exited {code}: {out.strip()!r}")
    return problems


def gen_attempts(stdout: str) -> int:
    return int(re.search(r"attempts=(\d+)", stdout).group(1))


# ---------------------------------------------------------------------------
# search: minsize, then a verify that must fail
# ---------------------------------------------------------------------------

def search_job(index: int, seed: int, work: Path, size: dict) -> Job:
    short = work / f"search-{index}.sel"
    k, n = size["k"], size["N"]
    masks = write_random_selector(short, n, k, size["short_m"], 1.0 / k, job_rng(seed, index))
    calls = [
        ["minsize", "-k", str(k), "-N", str(n), "--mode", "up_to", "--target", "permutation",
         "--trials", str(size["trials"]), "--seed", str(job_seed(seed, index))],
        ["verify", str(short), "--target", "permutation", "--mode", "up_to"],
    ]
    return Job("search", index, calls, [], {"masks": masks, **size})


FAIL_LINE = re.compile(r"FAIL X=\{(\d+(?:,\d+)*)\} pi=\((\d+(?:,\d+)*)\)")


def in_order_isolated(masks: list[int], x_set: tuple[int, ...], order: tuple[int, ...]) -> bool:
    """Whether the isolation trace of x_set contains `order` as a subsequence."""
    xmask = sum(1 << x for x in x_set)
    want = iter(order)
    nxt = next(want)
    for m in masks:
        inter = m & xmask
        if inter and inter & (inter - 1) == 0 and inter.bit_length() - 1 == nxt:
            nxt = next(want, None)
            if nxt is None:
                return True
    return False


def search_check(job: Job, res: Result) -> list[str]:
    problems = []
    k, n = job.context["k"], job.context["N"]
    found = re.fullmatch(r"minimal_m=(\d+)\n", res.stdouts[0])
    # Every ordering of a k-set needs its own isolating set at least once,
    # so no selector shorter than k! can verify.
    if res.codes[0] != 0 or not found or int(found.group(1)) < math.factorial(k):
        problems.append(f"minsize exited {res.codes[0]}: {res.stdouts[0].strip()!r}")
    line = FAIL_LINE.fullmatch(res.stdouts[1].rstrip("\n"))
    if res.codes[1] != 1 or not line:
        return problems + [f"short verify exited {res.codes[1]}: {res.stdouts[1].strip()!r}"]
    x_set = tuple(int(x) for x in line.group(1).split(","))
    order = tuple(int(x) for x in line.group(2).split(","))
    if (list(x_set) != sorted(set(x_set)) or not len(x_set) <= k or x_set[-1] >= n
            or sorted(order) != list(x_set)):
        problems.append(f"malformed counterexample {res.stdouts[1].strip()!r}")
    elif in_order_isolated(job.context["masks"], x_set, order):
        problems.append(f"counterexample {res.stdouts[1].strip()!r} is isolated in order")
    elif any(not in_order_isolated(job.context["masks"], xs, o)
             for xs, o in instances_before(n, k, x_set, order)):
        problems.append(f"counterexample {res.stdouts[1].strip()!r} is not the smallest")
    return problems


def instances_before(universe: int, k: int, x_set: tuple[int, ...], order: tuple[int, ...]):
    """The (set, ordering) instances an up_to verifier enumerates before
    (x_set, order): sets in lexicographic order with each prefix before its
    extensions, and each set's orderings in itertools.permutations order."""
    def subsets(prefix: tuple[int, ...], start: int):
        for x in range(start, universe):
            yield prefix + (x,)
            if len(prefix) + 1 < k:
                yield from subsets(prefix + (x,), x + 1)

    for xs in subsets((), 0):
        for o in permutations(xs):
            if (xs, o) == (x_set, order):
                return
            yield xs, o


# ---------------------------------------------------------------------------
# gossip: simulate on benchmark-made networks, alternating two shapes
# ---------------------------------------------------------------------------

def gossip_job(index: int, seed: int, work: Path, size: dict) -> Job:
    """Even jobs use a sparse network (Hamiltonian cycle plus edges at
    p = 2/n: broadcast chains with one sender per round); odd jobs a cycle
    with edges both ways and a large kappa (selector rounds with many
    senders, whose two in-neighbours can collide)."""
    rng = job_rng(seed, index)
    shape = "sparse" if index % 2 == 0 else "ring"
    n, kappa = size[f"{shape}_n"], size[f"{shape}_kappa"]
    order = rng.permutation(n).tolist()
    out_edges = [set() for _ in range(n)]
    for i in range(n):
        out_edges[order[i]].add(order[(i + 1) % n])
        if shape == "ring":
            out_edges[order[(i + 1) % n]].add(order[i])
    if shape == "sparse":
        extra = rng.random((n, n)) < 2.0 / n
        for u, v in zip(*np.nonzero(extra)):
            if u != v:
                out_edges[int(u)].add(int(v))
    net = work / f"gossip-{index}.net"
    sel = work / f"gossip-{index}.sel"
    trace = work / f"gossip-{index}.trace"
    lines = [str(n)] + [f"{v}: {' '.join(map(str, sorted(out_edges[v])))}".rstrip() for v in range(n)]
    net.write_text("\n".join(lines) + "\n", encoding="utf-8")
    m = 4 * kappa * kappa * math.ceil(math.log2(n))
    write_random_selector(sel, n, kappa, m, 1.0 / kappa, rng)
    calls = [["simulate", "--network", str(net), "--selector", str(sel),
              "--kappa", str(kappa), "--trace", str(trace)]]
    return Job("gossip", index, calls, [trace],
               {"shape": shape, "n": n, "kappa": kappa, "out_edges": out_edges, "trace": trace})


ROUND_LINE = re.compile(r"round=(\d+) tx=\{([\d,]*)\} rx=\[([\d<,-]*)\] collisions=\[([\d,]*)\]")
SUMMARY_LINE = re.compile(r"rounds_total=(\d+) rounds_selector=(\d+) rounds_disperse=(\d+) rounds_rr=(\d+)")


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")] if text else []


def trace_records(path: Path) -> int:
    """Number of round records in a trace file (every line but the summary)."""
    with open(path, encoding="utf-8") as f:
        return sum(1 for _ in f) - 1


def gossip_check(job: Job, res: Result) -> list[str]:
    """Re-derive every round's deliveries and collisions from the trace's
    transmitter sets and the network, replay the rumor flow, and require
    every node to end with all n rumors."""
    out_edges, n = job.context["out_edges"], job.context["n"]
    lines = res.stdouts[0].splitlines()
    if res.codes[0] != 0 or len(lines) != 3 or lines[0] != f"kappa={job.context['kappa']}" \
            or lines[2] != "audit=pass" or not SUMMARY_LINE.fullmatch(lines[1]):
        return [f"simulate exited {res.codes[0]}: {res.stdouts[0].strip()!r}"]
    text = job.context["trace"].read_text(encoding="utf-8").split("\n")
    if text[-1] != "" or text[-2] != lines[1]:
        return ["trace summary differs from stdout"]
    total, *phases = (int(x) for x in SUMMARY_LINE.fullmatch(lines[1]).groups())
    if total != sum(phases):
        return [f"phase rounds do not add up: {lines[1]}"]
    held = [1 << v for v in range(n)]
    last = -1
    for line in text[:-2]:
        rec = ROUND_LINE.fullmatch(line)
        if not rec:
            return [f"malformed trace line {line[:80]!r}"]
        index = int(rec.group(1))
        if not last < index < total:
            return [f"round index {index} out of order"]
        last = index
        tx = _ints(rec.group(2))
        count, sender = {}, {}
        for u in tx:
            for v in out_edges[u]:
                if v != u:
                    count[v] = count.get(v, 0) + 1
                    sender[v] = u
        rx = ",".join(f"{v}<-{sender[v]}" for v in sorted(count) if count[v] == 1)
        coll = ",".join(str(v) for v in sorted(count) if count[v] >= 2)
        if rx != rec.group(3) or coll != rec.group(4):
            return [f"round {index}: deliveries or collisions break the collision rule"]
        message = {u: held[u] for u in tx}
        for v in count:
            if count[v] == 1:
                held[v] |= message[sender[v]]
    if any(h != (1 << n) - 1 for h in held):
        return ["some node does not hold every rumor at the end of the trace"]
    return []


# ---------------------------------------------------------------------------
# coupon: two sweeps and a Monte-Carlo probability, k and q varying per job
# ---------------------------------------------------------------------------

def coupon_pool(size: dict) -> list[int]:
    """Alphabet sizes with a divisor in [2, q_max], ascending; job cost grows with k."""
    return [k for k in range(size["k_lo"], size["k_hi"])
            if any(k % q == 0 for q in range(2, min(size["q_max"], k - 1) + 1))]


def coupon_params(index: int, seed: int, size: dict) -> tuple[int, int, int]:
    """(k, q, ell_min) for job `index`.

    k walks the pool with a golden-ratio stride from a seeded start, so any
    run of consecutive jobs spreads evenly over the cost range and no k
    repeats before the pool is used up; after that the sweeps move to the
    next ell window, so their inputs still differ.  Only after `windows`
    windows do inputs repeat: further windows would pass Python's
    4300-digit int-to-str limit, which the CLI does not handle.  q is the
    largest divisor of k up to q_max.
    """
    pool = coupon_pool(size)
    stride = round(len(pool) * (math.sqrt(5) - 1) / 2)
    while math.gcd(stride, len(pool)) != 1:
        stride += 1
    start = int(np.random.default_rng(seed).integers(len(pool)))
    k = pool[(start + index * stride) % len(pool)]
    ell_min = 1 + (index // len(pool)) % size["windows"] * size["ell_max"]
    q = max(d for d in range(2, min(size["q_max"], k - 1) + 1) if k % d == 0)
    return k, q, ell_min


def coupon_job(index: int, seed: int, work: Path, size: dict) -> Job:
    k, q, ell_min = coupon_params(index, seed, size)
    ell_max = ell_min + size["ell_max"] - 1
    plain = work / f"coupon-{index}.csv"
    jump = work / f"coupon-{index}-q.csv"
    # ell = q^2 is about the mean waiting time of the jump pattern, so the
    # probability is far from 0 and 1 and the Monte-Carlo check is sharp.
    ell = q * q
    window = ["--ell-min", str(ell_min), "--ell-max", str(ell_max)]
    calls = [
        ["sweep", "-k", str(k), *window, "-o", str(plain)],
        ["sweep", "-k", str(k), "-q", str(q), *window, "-o", str(jump)],
        ["prob", "--ell", str(ell), "-k", str(k), "-q", str(q),
         "--trials", str(size["trials"]), "--seed", str(job_seed(seed, index))],
    ]
    return Job("coupon", index, calls, [plain, jump],
               {"k": k, "q": q, "ell": ell, "ell_min": ell_min, "ell_max": ell_max,
                "plain": plain, "jump": jump, "trials": size["trials"]})


def miss_probability(ell: int, k: int, q: int) -> Fraction:
    """Probability that a uniform length-ell word over k letters misses the
    q-block jump pattern (q = k is the plain pattern 0,1,...,k-1)."""
    b = k // q
    total = sum(comb(ell, j) * b**j * (k - b) ** (ell - j) for j in range(min(q, ell + 1)))
    return Fraction(total, k**ell)


def _check_csv(path: Path, k: int, q, ell_min: int, ell_max: int) -> list[str]:
    rows = path.read_text(encoding="utf-8").split("\n")
    if rows[0] != "ell,k,q,exact_num,exact_den,bound" or rows[-1] != "" \
            or len(rows) != ell_max - ell_min + 3:
        return [f"{path.name}: bad header or row count"]
    blocks = k if q is None else q
    spot = {ell_min, ell_min + blocks - 1, ell_min + blocks, (ell_min + ell_max) // 2, ell_max}
    prev = None
    for ell, row in enumerate(rows[1:-1], start=ell_min):
        cols = row.split(",")
        if len(cols) != 6 or cols[:3] != [str(ell), str(k), "" if q is None else str(q)]:
            return [f"{path.name}: bad row for ell={ell}"]
        if (cols[5] == "") != (ell < blocks):
            return [f"{path.name}: bound present/absent wrongly at ell={ell}"]
        if ell in spot:
            p = Fraction(int(cols[3]), int(cols[4]))
            if p != miss_probability(ell, k, blocks) or \
                    (prev is not None and p > prev):
                return [f"{path.name}: wrong exact value at ell={ell}"]
            prev = p
    return []


def coupon_check(job: Job, res: Result) -> list[str]:
    c = job.context
    if res.codes != [0, 0, 0]:
        return [f"exit codes {res.codes}"]
    problems = _check_csv(c["plain"], c["k"], None, c["ell_min"], c["ell_max"])
    problems += _check_csv(c["jump"], c["k"], c["q"], c["ell_min"], c["ell_max"])
    lines = res.stdouts[2].splitlines()
    exact = re.match(r"p_exact=(\d+)/(\d+) p_bound=\S+ ratio=\S+$", lines[0]) if lines else None
    mc = re.fullmatch(r"mc_estimate=(\S+) mc_std_error=\S+ trials=(\d+)", lines[1]) \
        if len(lines) == 2 else None
    if not exact or not mc:
        return problems + [f"prob output {res.stdouts[2]!r}"]
    p = Fraction(int(exact.group(1)), int(exact.group(2)))
    if p != miss_probability(c["ell"], c["k"], c["q"]):
        problems.append(f"prob p_exact={p} is wrong")
    sigma = math.sqrt(float(p) * (1 - float(p)) / c["trials"])
    if abs(float(mc.group(1)) - float(p)) > MC_SIGMAS * sigma:
        problems.append(f"mc_estimate={mc.group(1)} is more than {MC_SIGMAS} standard errors "
                        f"from p_exact={float(p)}")
    return problems


WORKLOADS = {
    "certify": (certify_job, certify_check),
    "search": (search_job, search_check),
    "gossip": (gossip_job, gossip_check),
    "coupon": (coupon_job, coupon_check),
}


# ---------------------------------------------------------------------------
# verifier instance counts, counted from outside the verifiers
# ---------------------------------------------------------------------------

def instance_total(universe: int, k: int, mode: str, ordered: bool) -> int:
    """Instances a passing verifier enumerates."""
    sizes = [k] if mode == "exact" else range(1, k + 1)
    return sum(comb(universe, s) * (math.factorial(s) if ordered else 1) for s in sizes)


def instance_rank(universe: int, k: int, mode: str, ordered: bool,
                  x_set: tuple[int, ...], order=None) -> int:
    """1-based position of the counterexample in the verifiers' enumeration:
    target sets in lexicographic order (in up_to mode a prefix comes before
    its extensions), and for ordered targets each set's orderings in
    itertools.permutations order."""
    def weight(size: int) -> int:
        return math.factorial(size) if ordered else 1

    sizes = [k] if mode == "exact" else list(range(1, k + 1))
    before = 0
    for depth, x in enumerate(x_set, start=1):
        lo = x_set[depth - 2] + 1 if depth > 1 else 0
        for y in range(lo, x):
            # every enumerated set whose first depth elements are x_set[:depth-1] + (y,)
            rest = universe - 1 - y
            before += sum(comb(rest, s - depth) * weight(s) for s in sizes if s >= depth)
        if depth < len(x_set) and depth in sizes:
            before += weight(depth)  # the proper prefix itself
    if ordered:
        before += list(permutations(x_set)).index(tuple(order))
    return before + 1
