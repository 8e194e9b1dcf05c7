import contextlib
from fractions import Fraction
import os
import resource
import subprocess
import sys

import pytest

from oracles import p_jump_sweep
import permsel
from permsel import build, cli, coupon, radio
from permsel.cli import _ratio, build_parser, main
from permsel.radio import Network, network_to_text, random_strongly_connected
from permsel.selectors import load_selector, verify


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# gen / verify
# ---------------------------------------------------------------------------

def test_gen_writes_verified_selector(tmp_path, capsys):
    out_file = tmp_path / "sel.txt"
    code, out, _ = run(capsys, "gen", "-k", "2", "-N", "4", "--target", "permutation",
                       "--mode", "up_to", "--seed", "7", "-m", "16", "-o", str(out_file))
    assert code == 0
    assert "gamma=0.5" in out and "attempts=" in out
    selector, k = load_selector(out_file)
    assert k == 2
    assert verify(selector, 2, "permutation", size_mode="up_to").ok


def test_gen_rejects_k_above_n(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "-k", "5", "-N", "4", "-o", str(tmp_path / "x.txt"))
    assert code == 2 and "k=5" in err


def test_gen_m_zero_exhausts(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "-k", "2", "-N", "2", "-m", "0",
                       "-o", str(tmp_path / "x.txt"))
    assert code == 1 and out.startswith("gamma") and "FAIL" in out


def test_gen_q_does_not_resize_a_target_without_one(tmp_path, capsys):
    # permutation takes no q, so -q 1 must not swap the k^2 formula length
    # (m=5090 here) for the k*q one (m=1697).
    runs = []
    for name, q_flag in (("a.sel", ()), ("b.sel", ("-q", "1"))):
        f = tmp_path / name
        code, out, _ = run(capsys, "gen", "-k", "3", "-N", "8", "--target", "permutation",
                           *q_flag, "-o", str(f))
        assert code == 0
        runs.append((out.replace(str(f), "OUT"), f.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0].endswith("attempts=1 m=5090 out=OUT\n")


def test_gen_verify_round_trip(tmp_path, capsys):
    for target, extra in (("strong", []), ("permutation", []), ("kq_permutation", ["-q", "2"])):
        out_file = tmp_path / f"{target}.txt"
        code, _, _ = run(capsys, "gen", "-k", "3", "-N", "8", "--target", target,
                         "--mode", "up_to", "--seed", "1", "-m", "64", *extra,
                         "-o", str(out_file))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(out_file), "--target", target,
                           "--mode", "up_to", *extra)
        assert code == 0 and out.strip() == "OK"


def test_verify_fail_prints_counterexample(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2 1\n0 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(bad), "--target", "strong", "-k", "2")
    assert code == 1
    assert out.strip() == "FAIL X={0,1} x=0"


def test_verify_singleton_file_strong(tmp_path, capsys):
    f = tmp_path / "s.txt"
    f.write_text("3 3 3\n0\n1\n2\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(f), "--target", "strong", "-k", "3")
    assert code == 0 and out.strip() == "OK"


def test_verify_parse_failure(tmp_path, capsys):
    f = tmp_path / "junk.txt"
    f.write_text("not a selector\n", encoding="utf-8")
    code, _, err = run(capsys, "verify", str(f))
    assert code == 2 and "cannot read selector" in err


def test_verify_rejects_repeated_label(tmp_path, capsys):
    f = tmp_path / "dup.txt"
    f.write_text("3 2 2\n0 0 1\n2\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", str(f), "--target", "strong")
    assert code == 2 and out == "" and "cannot read selector" in err


def test_verify_kq_needs_q(tmp_path, capsys):
    f = tmp_path / "s.txt"
    f.write_text("3 3 3\n0\n1\n2\n", encoding="utf-8")
    for target in ("kq", "kq_permutation"):
        code, out, err = run(capsys, "verify", str(f), "--target", target)
        assert code == 2 and out == "" and f"target {target} needs q" in err


def test_verify_budget_refusal(tmp_path, capsys, monkeypatch):
    f = tmp_path / "s.txt"
    f.write_text("12 8 2\n0\n1\n", encoding="utf-8")
    monkeypatch.setenv("PERMSEL_BUDGET", "1000")
    code, _, err = run(capsys, "verify", str(f), "--target", "permutation", "-k", "8")
    assert code == 2 and "budget" in err


def test_verify_huge_universe_is_refused_by_the_budget(tmp_path):
    # Building a selector costs its labels, not N: a child capped at 512 MiB
    # of address space builds a one-set selector over N = 3e9 and loads an
    # N = 3e9 file, whose verification (C(N, 2) pairs, two orders each) the
    # budget refuses with exit 2.
    # Anything of size N would end the child with a MemoryError instead.
    f = tmp_path / "huge.sel"
    f.write_text("3000000000 2 1\n0 7\n", encoding="utf-8")
    code = ("import sys\n"
            "from permsel.cli import main\n"
            "from permsel.selectors import Selector\n"
            "assert len(Selector(3 * 10**9, ({0, 7},))) == 1\n"
            f"sys.exit(main(['verify', {str(f)!r}]))\n")
    env = {k: v for k, v in os.environ.items() if k != "PERMSEL_BUDGET"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(permsel.__file__))
    env["OPENBLAS_NUM_THREADS"] = "1"

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]))

    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=60, preexec_fn=cap_address_space)
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr == ("error: verification needs ~8999999997000000000 primitive "
                            "isolation checks, budget is 100000000\n")


def test_verify_charge_past_the_int_to_str_limit_is_rounded(tmp_path, capsys, monkeypatch):
    # C(3000, 1500) target sets: a charge of 5,016 digits, past the
    # int-to-str limit that the parsers keep, so it prints rounded.
    f = tmp_path / "big.sel"
    f.write_text("3000 1500 1\n0\n", encoding="utf-8")
    monkeypatch.delenv("PERMSEL_BUDGET", raising=False)
    limit = sys.get_int_max_str_digits()
    assert run(capsys, "verify", str(f), "--mode", "up_to") == (
        2, "", "error: verification needs ~8.63e+5015 primitive isolation checks, "
        "budget is 100000000\n")
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("raw,err", [
    ("abc", "error: PERMSEL_BUDGET must be a non-negative integer, not 'abc'\n"),
    ("-1", "error: PERMSEL_BUDGET must be a non-negative integer, not '-1'\n"),
    ("1.5", "error: PERMSEL_BUDGET must be a non-negative integer, not '1.5'\n"),
    # 0 is a budget: C(4, 2) = 6 sets x 2 orderings x 1 set is over it.
    ("0", "error: verification needs ~12 primitive isolation checks, budget is 0\n"),
])
def test_bad_budget_is_named(tmp_path, capsys, monkeypatch, raw, err):
    f = tmp_path / "s.txt"
    f.write_text("4 2 1\n0 1 2 3\n", encoding="utf-8")
    monkeypatch.setenv("PERMSEL_BUDGET", raw)
    assert run(capsys, "verify", str(f)) == (2, "", err)


def test_parser_is_built_once_and_each_parse_starts_afresh():
    parser = build_parser()
    assert build_parser() is parser
    first = parser.parse_args(["minsize", "-k", "2", "-N", "4", "--seed", "9", "-q", "1"])
    again = parser.parse_args(["minsize", "-k", "2", "-N", "4"])
    assert (first.seed, first.q) == (9, 1) and (again.seed, again.q) == (0, None)


@pytest.mark.parametrize("command", ["gen", "verify", "prob", "bound", "minsize", "simulate",
                                     "sweep"])
def test_each_command_prints_its_help(capsys, command):
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: permsel {command} ")


# ---------------------------------------------------------------------------
# the request gen builds and minsize minimises
# ---------------------------------------------------------------------------

def test_gen_and_minsize_share_request_defaults():
    parser = build_parser()
    gen = vars(parser.parse_args(["gen", "-k", "2", "-N", "4", "-o", "x.sel"]))
    minsize = vars(parser.parse_args(["minsize", "-k", "2", "-N", "4"]))
    shared = gen.keys() & minsize.keys() - {"command", "func"}
    assert shared == {"k", "N", "target", "mode", "q", "seed"}
    assert {f: gen[f] for f in shared} == {f: minsize[f] for f in shared}
    assert gen["mode"] == "up_to"


def test_minsize_answer_is_where_gen_starts_to_succeed(tmp_path, capsys):
    # No --mode: both default to up_to, where kq_permutation needs 18 (17 in exact).
    flags = ("-k", "3", "-N", "6", "-q", "2", "--target", "kq_permutation", "--seed", "5")
    assert run(capsys, "minsize", *flags, "--trials", "3") == (0, "minimal_m=18\n", "")
    for m, code in (("18", 0), ("17", 1)):
        got, _, _ = run(capsys, "gen", *flags, "--attempts", "3", "-m", m,
                        "-o", str(tmp_path / f"{m}.sel"))
        assert got == code


REQUEST_COMMANDS = {
    "gen": ("gen", "-N", "6", "-m", "40", "-o", "{dir}/out.sel"),
    "minsize": ("minsize", "-N", "6"),
    "verify": ("verify", "{dir}/short.sel"),
}


def request_run(tmp_path, capsys, command, *flags):
    # The selector file verify reads is over N=6 with k=3 in its header.
    (tmp_path / "short.sel").write_text("6 3 5\n0 1\n3 5\n0\n0 3 4\n2 4 5\n", encoding="utf-8")
    argv = [a.format(dir=tmp_path) for a in REQUEST_COMMANDS[command]]
    return run(capsys, *argv, *flags)


@pytest.mark.parametrize("target", ["strong", "permutation", "kq", "kq_permutation"])
@pytest.mark.parametrize("command", sorted(REQUEST_COMMANDS))
def test_out_of_range_q_is_refused_on_every_target(tmp_path, capsys, command, target):
    k = () if command == "verify" else ("-k", "3")
    got = request_run(tmp_path, capsys, command, *k, "--target", target, "-q", "9")
    assert got == (2, "", "error: q must be in [1, k], got q=9, k=3\n")
    assert not (tmp_path / "out.sel").exists()


@pytest.mark.parametrize("k,message", [("0", "k must be at least 1"),
                                       ("7", "k=7 exceeds universe size 6")])
@pytest.mark.parametrize("command,extra", [
    ("gen", ()), ("gen", ("-m", "5")), ("minsize", ()), ("minsize", ("--max-m", "5")),
    ("verify", ()),
], ids=["gen", "gen-m", "minsize", "minsize-max-m", "verify"])
def test_k_outside_1_to_n_gives_one_message(tmp_path, capsys, command, extra, k, message):
    got = request_run(tmp_path, capsys, command, "-k", k, *extra)
    assert got == (2, "", f"error: {message}\n")
    assert not (tmp_path / "out.sel").exists()


@pytest.mark.parametrize("argv", [
    ("gen", "-k", "2", "-N", "4", "--seed", "-1", "-o", "{dir}/out.sel"),
    ("minsize", "-k", "2", "-N", "4", "--seed", "-1"),
    # Five nodes with p=0.5 reach no selector phase, which once let the seed pass.
    ("simulate", "--random", "5", "0.5", "1", "--auto", "--seed", "-1"),
    # These two seeds reach numpy without a BuildConfig.
    ("prob", "--ell", "6", "-k", "4", "--trials", "10", "--seed", "-1"),
    ("simulate", "--random", "5", "0.5", "-1", "--auto"),
], ids=["gen", "minsize", "simulate-auto", "prob-trials", "simulate-random"])
def test_a_negative_seed_is_refused_before_any_output(tmp_path, capsys, monkeypatch, argv):
    def no_draw(*args, **kwargs):
        raise AssertionError("random_selector called")

    monkeypatch.setattr(build, "random_selector", no_draw)
    got = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert got == (2, "", "error: seed must be non-negative, not -1\n")
    assert not (tmp_path / "out.sel").exists()


# ---------------------------------------------------------------------------
# prob / bound / minsize / sweep
# ---------------------------------------------------------------------------

def test_prob_exact_line(capsys):
    code, out, _ = run(capsys, "prob", "--ell", "3", "-k", "2")
    assert code == 0
    assert out.startswith("p_exact=1/2 p_bound=")


def test_prob_jump_divisor_required(capsys):
    code, _, err = run(capsys, "prob", "--ell", "2", "-k", "4", "-q", "3")
    assert code == 2 and "divide" in err


def test_prob_monte_carlo_line(capsys):
    code, out, _ = run(capsys, "prob", "--ell", "4", "-k", "2", "--trials", "2000", "--seed", "3")
    assert code == 0 and "mc_estimate=" in out and "trials=2000" in out


def test_prob_negative_trials_exits_2(capsys):
    code, out, err = run(capsys, "prob", "--ell", "3", "-k", "2", "--trials", "-5")
    assert code == 2 and out == "" and err.startswith("error: ")


def decimal_digits(text):
    """The int a long decimal string spells, read past Python's digit limit."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        sys.set_int_max_str_digits(previous)


def test_prob_huge_exact_value_prints_in_full(capsys, monkeypatch):
    # The numerator has more digits than Python converts to a string by
    # default; the limit is lifted for the output and restored after.
    lifted, unlimited = [], cli._unlimited_int_digits

    @contextlib.contextmanager
    def spy():
        with unlimited():
            lifted.append(sys.get_int_max_str_digits())
            yield
    monkeypatch.setattr(cli, "_unlimited_int_digits", spy)
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "prob", "--ell", "20000", "-k", "50")
    assert (code, err) == (0, "") and sys.get_int_max_str_digits() == limit and lifted == [0]
    fields = out.split(" ")
    num, den = fields[0].removeprefix("p_exact=").split("/")
    assert len(num) > limit and len(den) > limit
    exact = coupon.p_jump_exact(20000, 50, 50)
    assert (decimal_digits(num), decimal_digits(den)) == (exact.numerator, exact.denominator)
    assert fields[1].startswith("p_bound=") and fields[2].startswith("ratio=")


def test_prob_prints_where_python_has_no_digit_limit(capsys, monkeypatch):
    # Before Python 3.10.7 sys has no int-to-str limit to lift.
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert run(capsys, "prob", "--ell", "6", "-k", "4") == (
        0, "p_exact=1971/2048 p_bound=18.073542972022814 ratio=18.779612382903462\n", "")


def test_sweep_huge_exact_value_prints_in_full(capsys, monkeypatch):
    # The denominator divides 50^2600, which has 4418 digits.  Rows are
    # decimal integers, which str() prints without lifting the limit.
    def refuse():
        raise AssertionError("sweep lifted the int-to-str limit")
    monkeypatch.setattr(cli, "_unlimited_int_digits", refuse)
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "sweep", "-k", "50", "--ell-min", "2600", "--ell-max", "2600")
    assert (code, err) == (0, "") and sys.get_int_max_str_digits() == limit
    ell, k, q, num, den, bound = out.splitlines()[1].split(",")
    assert (ell, k, q) == ("2600", "50", "") and len(den) > limit and float(bound) > 0
    [exact] = p_jump_sweep(50, 50, 2600, 2600)
    assert (decimal_digits(num), decimal_digits(den)) == (exact.numerator, exact.denominator)


def test_prob_ratio_when_exact_value_underflows_a_float(capsys):
    # p_exact is about 8e-329, below the smallest float; the ratio is taken
    # from the exact value instead of dividing by 0.0.
    code, out, err = run(capsys, "prob", "--ell", "1100", "-k", "2")
    assert (code, err) == (0, "")
    assert out.endswith(" p_bound=1.662724605018458e-233 ratio=2.0512955360679314e+95\n")


def test_prob_ratio_is_inf_only_past_the_float_range():
    assert _ratio(0.5, Fraction(1, 4)) == 2.0
    assert _ratio(1e-300, Fraction(1, 10**400)) == 1e100
    assert _ratio(1.0, Fraction(1, 10**400)) == float("inf")
    assert _ratio(1.0, Fraction(0)) == float("inf")


def test_bound_report(capsys):
    code, out, _ = run(capsys, "bound", "-k", "2", "-N", "16")
    assert code == 0
    assert "gamma=0.5" in out
    assert "existence_certified=true" in out


def test_bound_with_c_override(capsys):
    code, out, _ = run(capsys, "bound", "-k", "4", "-N", "16", "-c", "0.001")
    assert code == 0 and "c_used=0.001" in out


@pytest.mark.parametrize("c", ["nan", "inf"])
def test_bound_rejects_non_finite_c(capsys, c):
    code, out, err = run(capsys, "bound", "-k", "4", "-N", "16", "-c", c)
    assert (code, out, err) == (2, "", f"error: c must be finite, got c={c}\n")


# At k=2, c * beta**c is subnormal from c ~ 11,500 and 0 from c ~ 11,900:
# there the log2 of the product is split, so the bound keeps its digits and
# stays finite; at c = 11000 it is the plain log2.
@pytest.mark.parametrize("c,last_line", [
    ("11000", "c_used=11000.0 log2_eq3=-7901.972293082697 log2_eq4=-7795.420997662901"),
    ("11700", "c_used=11700.0 log2_eq3=-8406.737547381717 log2_eq4=-8299.65222192557"),
    ("11900", "c_used=11900.0 log2_eq3=-8550.958145383165 log2_eq4=-8443.726101664668"),
    ("20000", "c_used=20000.0 log2_eq3=-14392.37498413053 log2_eq4=-14280.648709853234"),
], ids=["11000", "11700", "11900", "20000"])
def test_bound_with_c_around_beta_underflow(capsys, c, last_line):
    code, out, err = run(capsys, "bound", "-k", "2", "-N", "16", "-c", c)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == last_line + " existence_certified=true"


def test_bound_has_no_q(capsys):
    # The certificate is computed for the k^2 length, so a -q that shrinks the
    # printed m would certify a length it does not print.
    with pytest.raises(SystemExit) as exc:
        main(["bound", "-k", "4", "-N", "16", "-q", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: -q 2" in capsys.readouterr().err


def test_bound_rejects_c_whose_m_overflows(capsys):
    code, out, err = run(capsys, "bound", "-k", "4", "-N", "16", "-c", "1e308")
    assert (code, out) == (2, "")
    assert err.startswith("error: c=1e+308 is too large") and "nan" not in err


def test_minsize_ground_truth(capsys):
    code, out, _ = run(capsys, "minsize", "-k", "2", "-N", "2", "--target", "permutation",
                       "--mode", "exact", "--trials", "200", "--seed", "0")
    assert code == 0 and out.strip() == "minimal_m=3"


# Every input is checked before any row is computed, so an empty range of
# bad inputs is refused too, and an empty range is itself an error.
@pytest.mark.parametrize("argv,message", [
    (("-k", "1", "--ell-min", "5", "--ell-max", "4"), "k must be at least 2"),
    (("-k", "7", "-q", "3", "--ell-min", "5", "--ell-max", "4"),
     "q=3 must divide k=7 for the exact formula"),
    (("-k", "7", "--ell-min", "0", "--ell-max", "-1"), "ell must be at least 1"),
    (("-k", "7", "--ell-min", "5", "--ell-max", "4"),
     "ell_max must be at least ell_min, got ell_min=5, ell_max=4"),
    (("-k", "7", "-q", "7", "--ell-min", "3", "--ell-max", "2"),
     "ell_max must be at least ell_min, got ell_min=3, ell_max=2"),
], ids=["k", "q", "ell-min", "empty", "empty-q"])
def test_sweep_rejects_bad_or_empty_range(tmp_path, capsys, argv, message):
    out_file = tmp_path / "grid.csv"
    code, out, err = run(capsys, "sweep", *argv, "-o", str(out_file))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_file.exists()


def test_sweep_csv(tmp_path, capsys):
    out_file = tmp_path / "grid.csv"
    code, _, _ = run(capsys, "sweep", "-k", "2", "--ell-min", "1", "--ell-max", "5",
                     "-o", str(out_file))
    assert code == 0
    lines = out_file.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "ell,k,q,exact_num,exact_den,bound"
    assert lines[1] == "1,2,,1,1,"  # too short for the bound
    assert lines[3].startswith("3,2,,1,2,")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_random_auto(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    code, out, _ = run(capsys, "simulate", "--random", "8", "0.3", "42", "--auto",
                       "--trace", str(trace))
    assert code == 0
    assert "audit=pass" in out
    assert trace.read_text(encoding="utf-8").splitlines()[-1].startswith("rounds_total=")


def test_simulate_cycle_with_selector_file(tmp_path, capsys):
    sel_file = tmp_path / "sel.txt"
    code, _, _ = run(capsys, "gen", "-k", "2", "-N", "4", "--target", "permutation",
                     "--mode", "up_to", "--seed", "2", "-m", "16", "-o", str(sel_file))
    assert code == 0
    net_file = tmp_path / "cycle.txt"
    cycle = Network((frozenset({1}), frozenset({2}), frozenset({3}), frozenset({0})))
    net_file.write_text(network_to_text(cycle), encoding="utf-8")
    code, out, _ = run(capsys, "simulate", "--network", str(net_file), "--kappa", "2",
                       "--selector", str(sel_file))
    assert code == 0 and "audit=pass" in out


def test_simulate_rejects_selector_universe_mismatch(tmp_path, capsys):
    sel_file = tmp_path / "sel.txt"
    sel_file.write_text("3 2 3\n0\n1\n2\n", encoding="utf-8")
    net_file = tmp_path / "cycle.txt"
    cycle = Network((frozenset({1}), frozenset({2}), frozenset({3}), frozenset({0})))
    net_file.write_text(network_to_text(cycle), encoding="utf-8")
    code, out, err = run(capsys, "simulate", "--network", str(net_file), "--kappa", "2",
                         "--selector", str(sel_file))
    assert code == 2 and out == "" and "does not match network size 4" in err


def test_simulate_auto_refuses_over_budget_before_drawing(capsys, monkeypatch):
    # A 300-node cycle asks for a (119, 300)-permutation selector of about
    # 5.4e7 sets; its verification is far over budget, so nothing is drawn.
    def no_draw(*args):
        raise AssertionError("random_selector called")

    monkeypatch.setattr(build, "random_selector", no_draw)
    assert run(capsys, "simulate", "--random", "300", "0.0", "1", "--auto") == (
        2, "", "error: verification needs ~4.55e+290 primitive isolation checks, "
        "budget is 100000000\n")


def test_simulate_rejects_weakly_connected(tmp_path, capsys):
    # gossip makes the one connectivity check before it measures kappa, so
    # every weak network reads the same line, with or without --kappa.
    net_file = tmp_path / "weak.txt"
    for text, kappa, err in [
        ("2\n0: 1\n1:\n", (), "error: network is not strongly connected\n"),
        ("2\n0: 1\n1:\n", ("--kappa", "1"), "error: network is not strongly connected\n"),
        ("3\n0: 1\n1: 0\n2: 0\n", ("--kappa", "1"), "error: network is not strongly connected\n"),
        ("3\n0: 1\n1: 0\n2: 0\n", (), "error: network is not strongly connected\n"),
    ]:
        net_file.write_text(text, encoding="utf-8")
        assert run(capsys, "simulate", "--network", str(net_file), *kappa, "--auto") == (2, "", err)


def test_simulate_fails_when_the_replay_leaves_a_rumor_out(capsys, monkeypatch):
    monkeypatch.setattr(radio, "gossip_complete", lambda network, state: False)
    assert run(capsys, "simulate", "--random", "8", "0.3", "42", "--auto") == (
        1, "FAIL some node is missing rumors after the replay\n", "")


def test_simulate_checks_connectivity_once(capsys, monkeypatch):
    calls = []
    check = radio.is_strongly_connected
    monkeypatch.setattr(radio, "is_strongly_connected", lambda g: calls.append(g) or check(g))
    code, out, _ = run(capsys, "simulate", "--random", "8", "0.3", "42", "--auto")
    assert code == 0 and "audit=pass" in out
    assert len(calls) == 1


@pytest.mark.parametrize("kappa", [(), ("--kappa", "1")], ids=["measured", "kappa"])
def test_simulate_refuses_an_empty_network(tmp_path, capsys, kappa):
    net_file = tmp_path / "empty.txt"
    net_file.write_text("0\n", encoding="utf-8")
    code, out, err = run(capsys, "simulate", "--network", str(net_file), *kappa, "--auto")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read network: ") and err.count("\n") == 1


@pytest.mark.parametrize("kappa", [(), ("--kappa", "2")], ids=["measured", "kappa"])
def test_simulate_ignores_self_loops(tmp_path, capsys, kappa):
    # A node never hears itself, so a self-loop on every node changes nothing.
    results = []
    for name, text in [("plain", "4\n0: 1 2\n1: 2\n2: 3\n3: 0 1\n"),
                       ("loops", "4\n0: 0 1 2\n1: 2 1\n2: 2 3\n3: 0 3 1\n")]:
        net_file, trace = tmp_path / f"{name}.net", tmp_path / f"{name}.trace"
        net_file.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "simulate", "--network", str(net_file), *kappa, "--auto",
                             "--trace", str(trace))
        assert (code, err) == (0, "") and "audit=pass" in out
        results.append((out, trace.read_bytes()))
    assert results[0] == results[1]


@pytest.mark.parametrize("argv,err", [
    (("--network", "{blank}"), "error: cannot read network: empty network file\n"),
    (("--random", "5", "1.5", "1"), "error: extra_edge_prob must be in [0, 1]\n"),
    (("--random", "5", "-0.1", "1"), "error: extra_edge_prob must be in [0, 1]\n"),
    (("--random", "0", "0.5", "1"), "error: a network needs at least 1 node, got 0\n"),
    (("--random", "2.5", "0.5", "1"), "error: --random N must be an integer, not '2.5'\n"),
    (("--random", "5", "abc", "1"), "error: --random P must be a number, not 'abc'\n"),
    (("--random", "3", "0.5", "1.5"), "error: --random SEED must be an integer, not '1.5'\n"),
], ids=["blank-file", "p-above-1", "p-below-0", "n-zero", "n-not-int", "p-not-float",
        "seed-not-int"])
def test_simulate_refuses_a_bad_network_request(tmp_path, capsys, argv, err):
    blank = tmp_path / "blank.net"
    blank.write_text("\n", encoding="utf-8")
    argv = [a.format(blank=blank) for a in argv]
    assert run(capsys, "simulate", *argv, "--auto") == (2, "", err)


# Each bad simulate input, the --kappa flags it is run with, and its one
# stderr line.  A network is a file's text or the --random arguments.  A
# file with header 0 and --random 0 read one message; the file's reader
# prefixes the input it cannot read.
WEAK = "error: network is not strongly connected\n"
NO_NODE = "a network needs at least 1 node, got 0\n"
WITH_AND_WITHOUT_KAPPA = [(), ("--kappa", "1")]
SIMULATE_REFUSALS = [
    ("2\n0: 1\n1:\n", WITH_AND_WITHOUT_KAPPA, WEAK),
    ("3\n0: 1\n1: 0\n2: 0\n", WITH_AND_WITHOUT_KAPPA, WEAK),
    ("3\n0: 1 2\n1:\n2:\n", WITH_AND_WITHOUT_KAPPA, WEAK),
    ("4\n0: 1\n1: 0\n2: 3\n3: 2\n", WITH_AND_WITHOUT_KAPPA, WEAK),
    (("8", "0.3", "42"), [("--kappa", "0")],
     "error: kappa must be in [1, n], got kappa=0, n=8\n"),
    (("8", "0.3", "42"), [("--kappa", "9")],
     "error: kappa must be in [1, n], got kappa=9, n=8\n"),
    (("0", "0.5", "1"), WITH_AND_WITHOUT_KAPPA, "error: " + NO_NODE),
    ("0\n", WITH_AND_WITHOUT_KAPPA, "error: cannot read network: " + NO_NODE),
    ("2\n2: 0\n1: 0\n", WITH_AND_WITHOUT_KAPPA,
     "error: cannot read network: node label 2 outside [0, 2)\n"),
]


@pytest.mark.parametrize("network,kappas,err", SIMULATE_REFUSALS,
                         ids=["weak-path", "weak-sink-source", "weak-star", "weak-two-rings",
                              "kappa-zero", "kappa-above-n", "random-n-zero", "file-n-zero",
                              "file-label-n"])
def test_simulate_refusal_does_not_depend_on_the_flags(tmp_path, capsys, monkeypatch,
                                                       network, kappas, err):
    # One line and exit 2 under --auto and --selector, with or without
    # --kappa, before any round, draw or trace file.
    def no_call(*args, **kwargs):
        raise AssertionError("a round or a draw before the refusal")

    monkeypatch.setattr(radio, "step", no_call)
    monkeypatch.setattr(build, "random_selector", no_call)
    if isinstance(network, str):
        net_file = tmp_path / "g.net"
        net_file.write_text(network, encoding="utf-8")
        source, n = ("--network", str(net_file)), int(network.split()[0])
    else:
        source, n = ("--random", *network), int(network[0])
    # simulate trusts a selector file; singletons over the n labels will do.
    sel_file = tmp_path / "s.sel"
    sel_file.write_text(f"{n} 1 {n}\n" + "".join(f"{v}\n" for v in range(n)), encoding="utf-8")
    trace = tmp_path / "t.trace"
    for kappa in kappas:
        for selector in (("--auto",), ("--selector", str(sel_file))):
            assert run(capsys, "simulate", *source, *kappa, *selector,
                       "--trace", str(trace)) == (2, "", err)
            assert not trace.exists()


def test_simulate_prints_the_kappa_gossip_ran_with(capsys, monkeypatch):
    states = []
    gossip = radio.gossip
    monkeypatch.setattr(radio, "gossip", lambda *args: states.append(gossip(*args)) or states[-1])
    code, out, _ = run(capsys, "simulate", "--random", "8", "0.3", "42", "--auto")
    [state] = states
    assert code == 0 and out.startswith(f"kappa={state.kappa}\n")
    network = random_strongly_connected(8, 0.3, 42)
    assert state.kappa == radio.choose_kappa(8, radio.measure_broadcast_rounds(network))


def test_simulate_one_node_network(tmp_path, capsys):
    net_file = tmp_path / "one.txt"
    net_file.write_text("1\n0:\n", encoding="utf-8")
    code, out, err = run(capsys, "simulate", "--network", str(net_file), "--auto")
    assert (code, err) == (0, "")
    assert out.startswith("kappa=1\n") and out.endswith("audit=pass\n")


def test_simulate_rejects_repeated_out_label(tmp_path, capsys):
    net_file = tmp_path / "repeat.txt"
    net_file.write_text("2\n0: 1 1\n1: 0\n", encoding="utf-8")
    code, out, err = run(capsys, "simulate", "--network", str(net_file), "--auto")
    assert (code, out) == (2, "")
    assert err == "error: cannot read network: node 0 repeats an out-label: '0: 1 1'\n"


@pytest.mark.parametrize("what,text", [("network", None), ("network", "2\n0: x\n1: 0\n"),
                                       ("selector", None), ("selector", "not a selector\n")],
                         ids=["missing-network", "malformed-network", "missing-selector",
                              "malformed-selector"])
def test_simulate_names_the_input_it_cannot_read(tmp_path, capsys, what, text):
    # A missing or malformed input file is named, as verify names its selector.
    net_file, sel_file = tmp_path / "ring.net", tmp_path / "s.sel"
    net_file.write_text("2\n0: 1\n1: 0\n", encoding="utf-8")
    sel_file.write_text("2 1 1\n0 1\n", encoding="utf-8")
    bad = tmp_path / "bad.txt"
    if text is not None:
        bad.write_text(text, encoding="utf-8")
    paths = {"network": str(net_file), "selector": str(sel_file), what: str(bad)}
    code, out, err = run(capsys, "simulate", "--network", paths["network"],
                         "--selector", paths["selector"], "--kappa", "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {what}: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", [("-m", "5"), ("--seed", "0")], ids=["m", "seed"])
def test_simulate_refuses_an_auto_flag_without_auto(tmp_path, capsys, flag):
    # Neither file exists: the flag is refused before any file is read.
    code, out, err = run(capsys, "simulate", "--network", str(tmp_path / "c.net"),
                         "--selector", str(tmp_path / "s.sel"), "--kappa", "2", *flag)
    assert (code, out, err) == (2, "", f"error: {flag[0]} applies only with --auto\n")


def test_simulate_deterministic_trace(tmp_path, capsys):
    t1, t2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for t in (t1, t2):
        code, _, _ = run(capsys, "simulate", "--random", "6", "0.2", "9", "--auto",
                         "--kappa", "2", "--seed", "5", "--trace", str(t))
        assert code == 0
    assert t1.read_bytes() == t2.read_bytes()


# ---------------------------------------------------------------------------
# exit codes of inputs that once raised out of main
# ---------------------------------------------------------------------------

# {missing} is a directory that does not exist, so the output file cannot be
# opened: exit 2, one error line, no file.  A bound past the float range is
# inf, a vacuous upper bound: exit 0.
EXIT_CASES = [
    (("gen", "-k", "2", "-N", "4", "-m", "16", "--mode", "up_to", "-o", "{missing}/x.sel"),
     2, None),
    (("sweep", "-k", "3", "--ell-min", "1", "--ell-max", "3", "-o", "{missing}/x.csv"), 2, None),
    (("simulate", "--random", "6", "0.3", "1", "--auto", "--trace", "{missing}/t.txt"), 2, None),
    (("prob", "--ell", "1700", "-k", "300"), 0, " p_bound=inf ratio=inf\n"),
    (("prob", "--ell", "1700", "-k", "300", "-q", "300"), 0, " p_bound=inf ratio=inf\n"),
    (("sweep", "-k", "300", "--ell-min", "1700", "--ell-max", "1700"), 0, ",inf\n"),
]


@pytest.mark.parametrize("argv,code,tail", EXIT_CASES,
                         ids=["gen-out", "sweep-out", "simulate-trace", "prob", "prob-q", "sweep"])
def test_exit_code_policy(tmp_path, capsys, argv, code, tail):
    missing = tmp_path / "missing"
    got, out, err = run(capsys, *(a.format(missing=missing) for a in argv))
    assert got == code
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not missing.exists()
    else:
        assert err == "" and out.endswith(tail)


# ---------------------------------------------------------------------------
# determinism of generated artifacts
# ---------------------------------------------------------------------------

def test_gen_byte_identical_outputs(tmp_path, capsys):
    files = []
    for name in ("a.txt", "b.txt"):
        f = tmp_path / name
        code, _, _ = run(capsys, "gen", "-k", "2", "-N", "8", "--seed", "13", "-m", "24",
                         "--mode", "up_to", "-o", str(f))
        assert code == 0
        files.append(f.read_bytes())
    assert files[0] == files[1]


def test_sweep_byte_identical_outputs(tmp_path, capsys):
    files = []
    for name in ("a.csv", "b.csv"):
        f = tmp_path / name
        assert run(capsys, "sweep", "-k", "4", "-q", "2", "--ell-min", "2",
                   "--ell-max", "12", "-o", str(f))[0] == 0
        files.append(f.read_bytes())
    assert files[0] == files[1]
