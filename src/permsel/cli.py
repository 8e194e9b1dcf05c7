"""Command-line front end: gen, verify, prob, bound, minsize, simulate, sweep.

Every run is fully determined by its flags (all randomness flows from
--seed); repeated invocations produce byte-identical files.  Exit codes:
0 success/OK, 1 verification or protocol failure, 2 invalid input, an
unreadable input or unwritable output file, or a refused work budget;
`main` alone maps exceptions to them.  The environment variable
PERMSEL_BUDGET overrides the verifiers' enumeration budget.

`simulate` prints `audit=pass` once `gossip` returns, which it does only
when its own postconditions held: quasi-gossip's done check, the in-degree
reduction after Disperse(kappa), and the completeness check after the
replay.  No trace audit runs here; `audit_trace`, which re-derives every
delivery from the topology, is a test oracle in `tests/oracles.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import build, coupon, radio, selectors
from .errors import BudgetExceededError, NotStronglyConnectedError, PermselError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2


def _budget() -> int:
    raw = os.environ.get("PERMSEL_BUDGET")
    if not raw:
        return selectors.DEFAULT_BUDGET
    with contextlib.suppress(ValueError):
        if (budget := int(raw)) >= 0:
            return budget
    raise ValueError(f"PERMSEL_BUDGET must be a non-negative integer, not {raw!r}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _build_config(args, max_attempts: int, m_override: Optional[int]) -> build.BuildConfig:
    """The BuildConfig of gen's and minsize's shared request flags, checked
    (`selectors.check_request`) before anything is derived or drawn."""
    selectors.check_request(args.N, args.k, args.target, args.q, args.mode)
    return build.BuildConfig(seed=args.seed, max_attempts=max_attempts, m_override=m_override,
                             size_mode=args.mode, target=args.target, q=args.q,
                             budget=_budget())


def cmd_gen(args) -> int:
    config = _build_config(args, args.attempts, args.m)
    if args.k >= 2:
        params = build.derive_size_params(args.k, args.N, config.q)
        print(params.report())
    selector, attempts = build.build_verified(args.k, args.N, config)
    selectors.save_selector(args.out, selector, args.k)
    print(f"attempts={attempts} m={len(selector)} out={args.out}")
    return EXIT_OK


def _read(what: str, load, path):
    """load(path), with a failure reported as an unreadable `what` (exit 2)."""
    try:
        return load(path)
    except (OSError, ValueError) as e:
        raise ValueError(f"cannot read {what}: {e}") from e


def cmd_verify(args) -> int:
    selector, file_k = _read("selector", selectors.load_selector, args.selector)
    k = args.k if args.k is not None else file_k
    verdict = selectors.verify(selector, k, args.target, args.q, args.mode, _budget())
    print(verdict.format())
    return EXIT_OK if verdict.ok else EXIT_FAIL


def _bound(ell: int, blocks: int) -> Optional[float]:
    """The bound on the miss probability of the pattern of `blocks` blocks
    (k for the plain one), or None when ell is shorter than the pattern."""
    return coupon.p_jump_bound(ell, blocks) if ell >= blocks else None


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


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift Python's int-to-str digit limit, which exact values can pass
    (`prob --ell 20000 -k 50`), and restore the previous limit after: `main`
    also runs in-process."""
    if not hasattr(sys, "get_int_max_str_digits"):  # before 3.10.7 there is no limit
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def cmd_prob(args) -> int:
    # Every line is built before any is printed, so a refused Monte-Carlo
    # request leaves no partial output behind.
    blocks = args.k if args.q is None else args.q
    exact = coupon.p_jump_exact(args.ell, args.k, blocks)
    bound = _bound(args.ell, blocks)
    with _unlimited_int_digits():
        parts = [f"p_exact={exact.numerator}/{exact.denominator}"]
    if bound is not None:
        ratio = _ratio(bound, exact)
        parts.append(f"p_bound={bound!r}")
        parts.append(f"ratio={ratio!r}")
    lines = [" ".join(parts)]
    if args.trials:
        est, se = coupon.p_monte_carlo(args.ell, args.k, blocks, args.trials, args.seed)
        lines.append(f"mc_estimate={est!r} mc_std_error={se!r} trials={args.trials}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_bound(args) -> int:
    params = build.derive_size_params(args.k, args.N)
    c = args.c if args.c is not None else params.c
    report = coupon.union_bound_value(args.k, args.N, c)
    print(params.report())
    print(
        f"c_used={c!r} log2_eq3={report.log2_per_instance!r} "
        f"log2_eq4={report.log2_value!r} "
        f"existence_certified={'true' if report.existence_certified else 'false'}"
    )
    return EXIT_OK


def cmd_minsize(args) -> int:
    m = build.minimal_m_search(args.k, args.N, _build_config(args, args.trials, args.max_m))
    print(f"minimal_m={m}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.network is not None:
        network = _read("network", radio.load_network, args.network)
    else:
        n, p, seed = args.random
        network = radio.random_strongly_connected(int(n), float(p), int(seed))
    if args.selector is not None:
        loaded, _ = _read("selector", selectors.load_selector, args.selector)
        # Checked here too, so a bad file exits 2 even when the run never
        # reaches the selector phase.
        radio.check_selector_universe(loaded, network.n)
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
    state = radio.gossip(network, args.kappa, provider)
    if args.trace:
        radio.save_trace(args.trace, state)
    print(f"kappa={state.kappa}")
    print(state.summary_line())
    print("audit=pass")
    return EXIT_OK


def cmd_sweep(args) -> int:
    blocks = args.k if args.q is None else args.q
    # p_jump_sweep checks every input before it computes a row.
    exacts = coupon.p_jump_sweep(args.k, blocks, args.ell_min, args.ell_max)
    q_col = "" if args.q is None else str(args.q)
    lines = ["ell,k,q,exact_num,exact_den,bound"]
    with _unlimited_int_digits():
        for ell, exact in zip(range(args.ell_min, args.ell_max + 1), exacts):
            bound = _bound(ell, blocks)
            b_col = "" if bound is None else repr(bound)
            lines.append(f"{ell},{args.k},{q_col},{exact.numerator},{exact.denominator},{b_col}")
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

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `permsel` parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="permsel",
        description="Selector construction, verification, probability oracles, and gossip simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The request gen builds and minsize minimises, shared so their defaults agree.
    request = argparse.ArgumentParser(add_help=False)
    request.add_argument("-k", type=int, required=True)
    request.add_argument("-N", type=int, required=True, help="universe size")
    request.add_argument("--target", choices=selectors.VERIFY_TARGETS, default="permutation")
    request.add_argument("--mode", choices=selectors.SIZE_MODES, default="up_to")
    request.add_argument("-q", type=int, default=None)
    request.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen", parents=[request],
                       help="build a verified selector and write it to a file")
    p.add_argument("-m", type=int, default=None, help="override the derived length")
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
    p.add_argument("-c", type=float, default=None, help="override the grid constant")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("minsize", parents=[request], help="empirical smallest verifying length")
    p.add_argument("--trials", type=int, default=50, help="draws tried per length: gen's --attempts")
    p.add_argument("--max-m", type=int, default=None, help="largest length tried: gen's -m")
    p.set_defaults(func=cmd_minsize)

    p = sub.add_parser("simulate", help="run full gossip on a network and write the trace")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--network", help="network file")
    src.add_argument("--random", nargs=3, metavar=("N", "P", "SEED"),
                     help="random strongly connected digraph")
    p.add_argument("--kappa", type=int, default=None,
                   help="in [1, n]; defaults to (n*B/log2 n)^(1/3) with measured broadcast time B")
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
    try:
        return args.func(args)
    except (OSError, ValueError, BudgetExceededError, NotStronglyConnectedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except PermselError as e:
        print(f"FAIL {e}")
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
