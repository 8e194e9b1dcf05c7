from fractions import Fraction

import pytest

from permsel import build
from permsel.cli import _ratio, main
from permsel.radio import Network, network_to_text, random_strongly_connected, save_network
from permsel.selectors import load_selector, verify_permutation_selector


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
    assert verify_permutation_selector(selector, 2, "up_to").ok


def test_gen_rejects_k_above_n(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "-k", "5", "-N", "4", "-o", str(tmp_path / "x.txt"))
    assert code == 2 and "k=5" in err


def test_gen_m_zero_exhausts(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "-k", "2", "-N", "2", "-m", "0",
                       "-o", str(tmp_path / "x.txt"))
    assert code == 1 and out.startswith("gamma") and "FAIL" in out


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


def test_prob_huge_exact_value_exits_2(capsys):
    # The numerator has more digits than Python converts to a string.
    code, out, err = run(capsys, "prob", "--ell", "20000", "-k", "50")
    assert code == 2 and out == "" and err.startswith("error: ")


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


def test_minsize_ground_truth(capsys):
    code, out, _ = run(capsys, "minsize", "-k", "2", "-N", "2", "--target", "permutation",
                       "--mode", "exact", "--trials", "200", "--seed", "0")
    assert code == 0 and out.strip() == "minimal_m=3"


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
    save_network(net_file, Network((frozenset({1}), frozenset({2}), frozenset({3}), frozenset({0}))))
    code, out, _ = run(capsys, "simulate", "--network", str(net_file), "--kappa", "2",
                       "--selector", str(sel_file))
    assert code == 0 and "audit=pass" in out


def test_simulate_rejects_selector_universe_mismatch(tmp_path, capsys):
    sel_file = tmp_path / "sel.txt"
    sel_file.write_text("3 2 3\n0\n1\n2\n", encoding="utf-8")
    net_file = tmp_path / "cycle.txt"
    save_network(net_file, Network((frozenset({1}), frozenset({2}), frozenset({3}), frozenset({0}))))
    code, out, err = run(capsys, "simulate", "--network", str(net_file), "--kappa", "2",
                         "--selector", str(sel_file))
    assert code == 2 and out == "" and "does not match network size 4" in err


def test_simulate_auto_refuses_over_budget_before_drawing(capsys, monkeypatch):
    # A 300-node cycle asks for a (119, 300)-permutation selector of about
    # 5.4e7 sets; its verification is far over budget, so nothing is drawn.
    def no_draw(*args):
        raise AssertionError("random_selector called")

    monkeypatch.setattr(build, "random_selector", no_draw)
    code, out, err = run(capsys, "simulate", "--random", "300", "0.0", "1", "--auto")
    assert code == 2 and out == ""
    assert err.startswith("error: verification needs ~") and err.endswith(
        " primitive isolation checks, budget is 100000000\n")


def test_simulate_rejects_weakly_connected(tmp_path, capsys):
    net_file = tmp_path / "weak.txt"
    net_file.write_text("2\n0: 1\n1:\n", encoding="utf-8")
    code, _, err = run(capsys, "simulate", "--network", str(net_file), "--auto")
    assert code == 2 and "strongly connected" in err


def test_simulate_deterministic_trace(tmp_path, capsys):
    t1, t2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for t in (t1, t2):
        code, _, _ = run(capsys, "simulate", "--random", "6", "0.2", "9", "--auto",
                         "--kappa", "2", "--seed", "5", "--trace", str(t))
        assert code == 0
    assert t1.read_bytes() == t2.read_bytes()


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
