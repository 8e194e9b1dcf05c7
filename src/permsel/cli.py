"""Command-line front end: gen, verify, prob, bound, minsize, simulate, sweep.

Every run is fully determined by its flags (all randomness flows from
--seed); repeated invocations produce byte-identical files.  Exit codes:
0 success/OK, 1 verification or protocol failure, 2 invalid input or
refused work budget.  The environment variable PERMSEL_BUDGET overrides
the verifiers' enumeration budget.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import build, coupon, radio, selectors
from .errors import (
    AttemptsExhaustedError,
    BudgetExceededError,
    GossipIncompleteError,
    NotStronglyConnectedError,
    PermselError,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2


def _budget() -> int:
    raw = os.environ.get("PERMSEL_BUDGET")
    return int(raw) if raw else selectors.DEFAULT_BUDGET


def _err(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_INVALID


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    try:
        config = build.BuildConfig(
            seed=args.seed,
            max_attempts=args.attempts,
            m_override=args.m,
            size_mode=args.mode,
            target=args.target,
            q=args.q,
            budget=_budget(),
        )
        if args.k < 1 or args.k > args.N:
            raise ValueError(f"need 1 <= k <= N, got k={args.k}, N={args.N}")
        if args.k >= 2:
            params = build.derive_size_params(args.k, args.N, args.q)
            print(params.report())
        selector, attempts = build.build_verified(args.k, args.N, config)
    except (ValueError, BudgetExceededError) as e:
        return _err(str(e))
    except AttemptsExhaustedError as e:
        print(f"FAIL {e}")
        return EXIT_FAIL
    selectors.save_selector(args.out, selector, args.k)
    print(f"attempts={attempts} m={len(selector)} out={args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        selector, file_k = selectors.load_selector(args.selector)
    except (OSError, ValueError) as e:
        return _err(f"cannot read selector: {e}")
    k = args.k if args.k is not None else file_k
    try:
        verdict = selectors.verify(selector, k, args.target, args.q, args.mode, _budget())
    except (ValueError, BudgetExceededError) as e:
        return _err(str(e))
    print(verdict.format())
    return EXIT_OK if verdict.ok else EXIT_FAIL


def _exact_and_bound(ell: int, k: int, q: Optional[int]) -> tuple[Fraction, Optional[float]]:
    """The exact miss probability (plain when q is None, else jump) and its
    bound, or None for the bound when ell is shorter than the pattern."""
    if q is None:
        return coupon.p_exact(ell, k), coupon.p_bound(ell, k) if ell >= k else None
    return coupon.p_jump_exact(ell, k, q), coupon.p_jump_bound(ell, k, q) if ell >= q else None


def _ratio(bound: float, exact: Fraction) -> float:
    """bound / exact, also when exact is too small for a float (inf when exact
    is 0 or the ratio is too large for one)."""
    if float(exact) > 0:
        return bound / float(exact)
    if exact == 0:
        return float("inf")
    try:
        return float(Fraction(bound) / exact)
    except OverflowError:
        return float("inf")


def cmd_prob(args) -> int:
    # Formatting stays inside the try: a huge numerator exceeds Python's
    # int-to-str digit limit with a ValueError.
    try:
        exact, bound = _exact_and_bound(args.ell, args.k, args.q)
        parts = [f"p_exact={exact.numerator}/{exact.denominator}"]
        if bound is not None:
            ratio = _ratio(bound, exact)
            parts.append(f"p_bound={bound!r}")
            parts.append(f"ratio={ratio!r}")
        lines = [" ".join(parts)]
        if args.trials:
            est, se = coupon.p_monte_carlo(args.ell, args.k, args.q, args.trials, args.seed)
            lines.append(f"mc_estimate={est!r} mc_std_error={se!r} trials={args.trials}")
    except ValueError as e:
        return _err(str(e))
    print("\n".join(lines))
    return EXIT_OK


def cmd_bound(args) -> int:
    try:
        params = build.derive_size_params(args.k, args.N, args.q)
        c = args.c if args.c is not None else params.c
        report = coupon.union_bound_value(args.k, args.N, c)
    except ValueError as e:
        return _err(str(e))
    print(params.report())
    print(
        f"c_used={c!r} log2_eq3={report.log2_per_instance!r} "
        f"log2_eq4={report.log2_value!r} "
        f"existence_certified={'true' if report.existence_certified else 'false'}"
    )
    return EXIT_OK


def cmd_minsize(args) -> int:
    try:
        config = build.BuildConfig(
            seed=args.seed,
            m_override=args.max_m,
            size_mode=args.mode,
            target=args.target,
            q=args.q,
            budget=_budget(),
        )
        m = build.minimal_m_search(args.k, args.N, config, args.trials)
    except (ValueError, BudgetExceededError) as e:
        return _err(str(e))
    except AttemptsExhaustedError as e:
        print(f"FAIL {e}")
        return EXIT_FAIL
    print(f"minimal_m={m}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        if args.network is not None:
            network = radio.load_network(args.network)
        else:
            n, p, seed = args.random
            network = radio.random_strongly_connected(int(n), float(p), int(seed))
        if not radio.is_strongly_connected(network):
            return _err("network is not strongly connected")
        if args.kappa is not None:
            kappa = args.kappa
        else:
            b_rounds = args.broadcast_rounds or radio.measure_broadcast_rounds(network)
            kappa = radio.choose_kappa(network.n, b_rounds) if network.n >= 2 else 1
        if args.selector is not None:
            loaded, _ = selectors.load_selector(args.selector)
            if loaded.universe_size != network.n:
                return _err(f"selector universe {loaded.universe_size} does not match "
                            f"network size {network.n}")
            provider = lambda k, n: loaded
        else:
            config = build.BuildConfig(
                seed=args.seed,
                m_override=args.m,
                size_mode="up_to",
                target="permutation",
                budget=_budget(),
            )
            provider = lambda k, n: build.build_verified(k, n, config)[0]
        trace = radio.gossip(network, kappa, provider)
    except (OSError, ValueError, NotStronglyConnectedError, BudgetExceededError) as e:
        return _err(str(e))
    except (GossipIncompleteError, AttemptsExhaustedError, PermselError) as e:
        print(f"FAIL {e}")
        return EXIT_FAIL
    if args.trace:
        radio.save_trace(args.trace, trace)
    print(f"kappa={kappa}")
    print(trace.summary_line())
    print("audit=pass")
    return EXIT_OK


def cmd_sweep(args) -> int:
    lines = ["ell,k,q,exact_num,exact_den,bound"]
    try:
        for ell in range(args.ell_min, args.ell_max + 1):
            exact, bound = _exact_and_bound(ell, args.k, args.q)
            q_col = "" if args.q is None else str(args.q)
            b_col = "" if bound is None else repr(bound)
            lines.append(f"{ell},{args.k},{q_col},{exact.numerator},{exact.denominator},{b_col}")
    except ValueError as e:
        return _err(str(e))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permsel",
        description="Selector construction, verification, probability oracles, and gossip simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="build a verified selector and write it to a file")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-N", type=int, required=True, help="universe size")
    p.add_argument("-m", type=int, default=None, help="override the derived length")
    p.add_argument("--target", choices=selectors.VERIFY_TARGETS, default="permutation")
    p.add_argument("--mode", choices=selectors.SIZE_MODES, default="up_to")
    p.add_argument("-q", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attempts", type=int, default=50)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="verify a selector file; prints OK or the counterexample")
    p.add_argument("selector")
    p.add_argument("-k", type=int, default=None, help="defaults to the k in the file header")
    p.add_argument("-q", type=int, default=None)
    p.add_argument("--target", choices=selectors.VERIFY_TARGETS, default="permutation")
    p.add_argument("--mode", choices=selectors.SIZE_MODES, default="exact")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("prob", help="exact probability of missing the (jump) subsequence, with bound")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-q", type=int, default=None)
    p.add_argument("--trials", type=int, default=0, help="add a Monte-Carlo estimate")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("bound", help="size constants, per-instance bound, and existence certificate")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-N", type=int, required=True)
    p.add_argument("-q", type=int, default=None)
    p.add_argument("-c", type=float, default=None, help="override the grid constant")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("minsize", help="empirical smallest verifying length")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-N", type=int, required=True)
    p.add_argument("--target", choices=selectors.VERIFY_TARGETS, default="permutation")
    p.add_argument("--mode", choices=selectors.SIZE_MODES, default="exact")
    p.add_argument("-q", type=int, default=None)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-m", type=int, default=None)
    p.set_defaults(func=cmd_minsize)

    p = sub.add_parser("simulate", help="run full gossip on a network and write the trace")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--network", help="network file")
    src.add_argument("--random", nargs=3, metavar=("N", "P", "SEED"),
                     help="random strongly connected digraph")
    p.add_argument("--kappa", type=int, default=None,
                   help="defaults to (n*B/log2 n)^(1/3) with measured broadcast time B")
    p.add_argument("--broadcast-rounds", type=int, default=None,
                   help="use this B instead of measuring one broadcast")
    sel = p.add_mutually_exclusive_group(required=True)
    sel.add_argument("--selector", help="selector file (trusted, not re-verified)")
    sel.add_argument("--auto", action="store_true",
                     help="build a verified (kappa,n)-permutation selector")
    p.add_argument("-m", type=int, default=None, help="length override for --auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, help="write the round-by-round trace here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="CSV grid of exact values and bounds over ell")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-q", type=int, default=None)
    p.add_argument("--ell-min", type=int, required=True)
    p.add_argument("--ell-max", type=int, required=True)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
