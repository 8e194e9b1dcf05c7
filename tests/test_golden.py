"""Golden outputs of the CLI for fixed seeds.

Each expected value below was captured once and is stored inline (stdout
verbatim, files as sha256), so a refactor that changes any byte of a
selector file, a counterexample line, a gossip trace, a sweep CSV or a
minsize answer fails here.
"""

import hashlib

import pytest

from permsel.cli import main


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# A short selector over N=6 (k=3) that fails every target in both modes,
# each with a different smallest counterexample.
SHORT_SELECTOR = "6 3 5\n0 1\n3 5\n0\n0 3 4\n2 4 5\n"

VERIFY_GOLDEN = {
    ("strong", "exact"): (1, "FAIL X={0,1,2} x=1\n"),
    ("strong", "up_to"): (1, "FAIL X={0,1} x=1\n"),
    ("permutation", "exact"): (1, "FAIL X={0,1,2} pi=(0,1,2)\n"),
    ("permutation", "up_to"): (1, "FAIL X={0,1} pi=(0,1)\n"),
    ("kq", "exact"): (1, "FAIL X={0,2,4}\n"),
    ("kq", "up_to"): (1, "FAIL X={0,1}\n"),
    ("kq_permutation", "exact"): (1, "FAIL X={0,1,2} pi=(1,2,0)\n"),
    ("kq_permutation", "up_to"): (1, "FAIL X={0,1} pi=(0,1)\n"),
}


def test_golden_gen_selector_file(tmp_path, capsys):
    out_file = tmp_path / "gen.sel"
    code, out, _ = run(capsys, "gen", "-k", 3, "-N", 7, "--mode", "up_to", "--seed", 11,
                       "-m", 40, "-o", out_file)
    assert code == 0
    assert out == (
        "gamma=0.44444444444444453 delta=0.4375000000000001 alpha=0.9583571886519542 "
        "beta=0.9583571886519542 c=188.5 m=4763\n"
        f"attempts=12 m=40 out={out_file}\n"
    )
    assert sha256(out_file) == "414e597a9dff11ddfeeefeb272470a1bdba4253d6c622e02369160312c8ab3e1"


@pytest.mark.parametrize("target,mode", sorted(VERIFY_GOLDEN))
def test_golden_verify_counterexamples(tmp_path, capsys, target, mode):
    sel = tmp_path / "short.sel"
    sel.write_text(SHORT_SELECTOR, encoding="utf-8")
    code, out, _ = run(capsys, "verify", sel, "--target", target, "--mode", mode, "-q", 2)
    assert (code, out) == VERIFY_GOLDEN[target, mode]


def test_golden_minsize(capsys):
    code, out, _ = run(capsys, "minsize", "-k", 2, "-N", 5, "--mode", "up_to",
                       "--trials", 3, "--seed", 4)
    assert (code, out) == (0, "minimal_m=16\n")


def test_golden_simulate_auto_trace(tmp_path, capsys):
    trace = tmp_path / "auto.trace"
    code, out, _ = run(capsys, "simulate", "--random", 10, 0.15, 3, "--auto", "--seed", 2,
                       "--trace", trace)
    assert code == 0
    assert out == ("kappa=4\nrounds_total=230 rounds_selector=0 rounds_disperse=210 "
                   "rounds_rr=20\naudit=pass\n")
    assert sha256(trace) == "392ef6e5e57a9702cc746476e170cd75eac0ece40bc15f2d2cceeaa6ea98fa06"


def test_golden_simulate_selector_trace(tmp_path, capsys):
    # A one-way cycle with a large kappa runs all three phases: the
    # round-robin pass, Disperse, and selector rounds.
    n, kappa, m = 12, 8, 256
    sets = [[x for x in range(n) if (t * t + 3 * x * t + x * x + 5 * t) % kappa == 0]
            for t in range(m)]
    sel = tmp_path / "formula.sel"
    sel.write_text(f"{n} {kappa} {m}\n" + "".join(" ".join(map(str, s)) + "\n" for s in sets),
                   encoding="utf-8")
    trace = tmp_path / "selector.trace"
    code, out, _ = run(capsys, "simulate", "--random", n, 0.0, 0, "--selector", sel,
                       "--kappa", kappa, "--trace", trace)
    assert code == 0
    assert out == ("kappa=8\nrounds_total=818 rounds_selector=512 rounds_disperse=282 "
                   "rounds_rr=24\naudit=pass\n")
    assert sha256(trace) == "ae3c28ee40c15c449c2d400a28fee22cd4c36aab1d9f2857c9d99535a458002f"


def test_golden_sweep_jump_csv(tmp_path, capsys):
    out_file = tmp_path / "jump.csv"
    code, out, _ = run(capsys, "sweep", "-k", 6, "-q", 3, "--ell-min", 1, "--ell-max", 40,
                       "-o", out_file)
    assert (code, out) == (0, "")
    assert sha256(out_file) == "fdc3626511ec922363245b451d06ca9fd3256e3d125e1a2f0eeefe5db903041e"
