"""Golden outputs of the CLI for fixed seeds.

This file is the one home of the CLI's golden value pins; CI's console step
pins no value, it only checks that the installed entry points start and
pass main's exit code through.

Each expected value below was captured once and is stored inline (stdout
verbatim, files and texts as sha256), so a refactor that changes any byte of
a selector file, a counterexample line, a gossip trace, a sweep CSV or a
minsize answer fails here.
"""

import hashlib

import pytest

from permsel.build import BuildConfig, build_verified
from permsel.cli import main
from permsel.errors import AttemptsExhaustedError
from permsel.radio import gossip, random_strongly_connected
from permsel.selectors import selector_to_text


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Each selector file, as its text and the -q it is verified with.
# SHORT (N=6, k=3) fails every target in both modes, each with a different
# smallest counterexample; ONE_SET, the set {0} over N=3 (k=2), fails each
# target under up_to with its own.
SHORT = ("6 3 5\n0 1\n3 5\n0\n0 3 4\n2 4 5\n", 2)
ONE_SET = ("3 2 1\n0\n", 1)

VERIFY_GOLDEN = {
    ("strong", "exact"): {SHORT: (1, "FAIL X={0,1,2} x=1\n")},
    ("strong", "up_to"): {SHORT: (1, "FAIL X={0,1} x=1\n"),
                          ONE_SET: (1, "FAIL X={0,1} x=1\n")},
    ("permutation", "exact"): {SHORT: (1, "FAIL X={0,1,2} pi=(0,1,2)\n")},
    ("permutation", "up_to"): {SHORT: (1, "FAIL X={0,1} pi=(0,1)\n"),
                               ONE_SET: (1, "FAIL X={0,1} pi=(0,1)\n")},
    ("kq", "exact"): {SHORT: (1, "FAIL X={0,2,4}\n")},
    ("kq", "up_to"): {SHORT: (1, "FAIL X={0,1}\n"),
                      ONE_SET: (1, "FAIL X={1}\n")},
    ("kq_permutation", "exact"): {SHORT: (1, "FAIL X={0,1,2} pi=(1,2,0)\n")},
    ("kq_permutation", "up_to"): {SHORT: (1, "FAIL X={0,1} pi=(0,1)\n"),
                                  ONE_SET: (1, "FAIL X={1} pi=(1)\n")},
}


def test_golden_gen_selector_file(tmp_path, capsys):
    # A k=3 draw that passes on attempt 12, then the benchmark's certify
    # draw, which passes all four targets under up_to.
    for name, argv, report, file_sha in [
        ("gen", ("-k", 3, "-N", 7, "--mode", "up_to", "--seed", 11, "-m", 40),
         "gamma=0.44444444444444453 delta=0.4375000000000001 alpha=0.9583571886519542 "
         "beta=0.9583571886519542 c=188.5 m=4763\nattempts=12 m=40",
         "414e597a9dff11ddfeeefeb272470a1bdba4253d6c622e02369160312c8ab3e1"),
        ("certify", ("-k", 4, "-N", 12, "-m", 180, "--seed", 3),
         "gamma=0.421875 delta=0.40740740740740744 alpha=0.965594240333628 "
         "beta=0.965594240333628 c=235.25 m=13494\nattempts=1 m=180",
         "b38021a5a9e869241a63ae71982d92a0b1763a70c0cf7a6106526bd15de22063"),
    ]:
        out_file = tmp_path / f"{name}.sel"
        code, out, _ = run(capsys, "gen", *argv, "-o", out_file)
        assert (code, out) == (0, f"{report} out={out_file}\n"), name
        assert sha256(out_file) == file_sha, name
    for target in [("strong",), ("kq", "-q", 2), ("permutation",), ("kq_permutation", "-q", 2)]:
        code, out, _ = run(capsys, "verify", out_file, "--target", *target, "--mode", "up_to")
        assert (code, out) == (0, "OK\n"), target


def test_golden_gen_default_seed_and_attempts(tmp_path, capsys):
    out_file = tmp_path / "default.sel"
    code, out, _ = run(capsys, "gen", "-k", 3, "-N", 8, "-m", 60, "-o", out_file)
    assert code == 0
    assert out == (
        "gamma=0.44444444444444453 delta=0.4375000000000001 alpha=0.9583571886519542 "
        "beta=0.9583571886519542 c=188.5 m=5090\n"
        f"attempts=1 m=60 out={out_file}\n"
    )
    assert sha256(out_file) == "040d4fe2315ad05dbb2a882a9aed54e72fe74e5e7fb1ee538444634b3a4b2028"
    # One set never isolates a permutation of 3 labels, so all 50 attempts fail.
    code, out, _ = run(capsys, "gen", "-k", 3, "-N", 8, "-m", 1, "-o", out_file)
    assert code == 1
    assert out == (
        "gamma=0.44444444444444453 delta=0.4375000000000001 alpha=0.9583571886519542 "
        "beta=0.9583571886519542 c=188.5 m=5090\n"
        "FAIL no verified selector in 50 attempts (k=3, N=8, m=1, target=permutation)\n"
    )


def test_golden_build_config_defaults():
    # BuildConfig's own seed and max_attempts, not the CLI's: seed 0 passes
    # on attempt 1 with the `gen` default pin's file (seed 1 needs two), and
    # a one-set selector runs out after 50 attempts.
    selector, attempts = build_verified(3, 8, BuildConfig(m_override=60))
    assert attempts == 1
    assert (hashlib.sha256(selector_to_text(selector, 3).encode()).hexdigest()
            == "040d4fe2315ad05dbb2a882a9aed54e72fe74e5e7fb1ee538444634b3a4b2028")
    selector, attempts = build_verified(3, 8, BuildConfig(m_override=60, seed=1))
    assert attempts == 2
    assert (hashlib.sha256(selector_to_text(selector, 3).encode()).hexdigest()
            == "dcc1cb2b154184b1bec80f0c63b09960f57bff6402a89870ce6fcd7f579be930")
    with pytest.raises(AttemptsExhaustedError, match=r"^no verified selector in 50 attempts "
                       r"\(k=3, N=8, m=1, target=permutation\)$"):
        build_verified(3, 8, BuildConfig(m_override=1))


@pytest.mark.parametrize("target,mode", sorted(VERIFY_GOLDEN))
def test_golden_verify_counterexamples(tmp_path, capsys, target, mode):
    sel = tmp_path / "golden.sel"
    for (text, q), expected in VERIFY_GOLDEN[target, mode].items():
        sel.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "verify", sel, "--target", target, "--mode", mode, "-q", q)
        assert (code, out) == expected, text


def test_golden_minsize(capsys):
    # The second request pins the galloping search, whose probes reuse each
    # trial's sets.
    for argv, m in [(("-k", 2, "-N", 5, "--mode", "up_to", "--trials", 3, "--seed", 4), 16),
                    (("-k", 3, "-N", 10, "--trials", 5), 62)]:
        code, out, _ = run(capsys, "minsize", *argv)
        assert (code, out) == (0, f"minimal_m={m}\n"), argv


def test_golden_minsize_default_seed_and_trials(capsys):
    code, out, _ = run(capsys, "minsize", "-k", 2, "-N", 6)
    assert (code, out) == (0, "minimal_m=13\n")


MINSIZE_ARGS = ("minsize", "-k", 3, "-N", 6, "-q", 2, "--trials", 3, "--seed", 5)

MINSIZE_GOLDEN = {
    ("strong", "exact"): 19,
    ("strong", "up_to"): 19,
    ("permutation", "exact"): 44,
    ("permutation", "up_to"): 44,
    ("kq", "exact"): 11,
    ("kq", "up_to"): 11,
    ("kq_permutation", "exact"): 17,
    ("kq_permutation", "up_to"): 18,
}


@pytest.mark.parametrize("target,mode", sorted(MINSIZE_GOLDEN))
def test_golden_minsize_targets(capsys, target, mode):
    code, out, _ = run(capsys, *MINSIZE_ARGS, "--target", target, "--mode", mode)
    assert (code, out) == (0, f"minimal_m={MINSIZE_GOLDEN[target, mode]}\n")


def test_golden_minsize_budget_refusal(capsys, monkeypatch):
    # 156 ordered instances up to size 3 over N=6: m=20 is the first length
    # over the budget, well below the answer 44.
    monkeypatch.setenv("PERMSEL_BUDGET", "3000")
    code, out, err = run(capsys, *MINSIZE_ARGS, "--target", "permutation", "--mode", "up_to")
    assert (code, out, err) == (
        2, "", "error: verification needs ~3120 primitive isolation checks, budget is 3000\n")


@pytest.mark.parametrize("max_m", [0, 20])
def test_golden_minsize_exhausted(capsys, max_m):
    code, out, _ = run(capsys, *MINSIZE_ARGS, "--target", "permutation", "--mode", "up_to",
                       "--max-m", max_m)
    assert (code, out) == (1, f"FAIL no verified selector up to m={max_m} with 3 trials per length\n")


def test_golden_simulate_auto_trace(tmp_path, capsys):
    trace = tmp_path / "auto.trace"
    code, out, _ = run(capsys, "simulate", "--random", 10, 0.15, 3, "--auto", "--seed", 2,
                       "--trace", trace)
    assert code == 0
    assert out == ("kappa=4\nrounds_total=230 rounds_selector=0 rounds_disperse=210 "
                   "rounds_rr=20\naudit=pass\n")
    assert sha256(trace) == "392ef6e5e57a9702cc746476e170cd75eac0ece40bc15f2d2cceeaa6ea98fa06"


def test_golden_simulate_auto_selector_phase(tmp_path, capsys):
    # A reversed cycle (v -> v-1) makes --auto's verified selector carry the
    # task: two iterations of its 90 sets, and no Disperse round.  With no
    # --seed, the default seed 0 builds another selector, so another trace.
    n = 8
    network = tmp_path / "reversed.net"
    network.write_text(f"{n}\n" + "".join(f"{v}: {(v - 1) % n}\n" for v in range(n)),
                       encoding="utf-8")
    trace = tmp_path / "reversed.trace"
    for seed_args, trace_sha in [
        (("--seed", 1), "65cffeae7bb8a4816ce1a7f01d1237aecf6ab4b3490e0a964e4c50cce306cb2b"),
        ((), "1e48c010b82e4f0d981331437569e22e23c92e10a68c8efca909bbfec0b6839c"),
    ]:
        code, out, _ = run(capsys, "simulate", "--network", network, "--kappa", 4, "--auto",
                           *seed_args, "-m", 90, "--trace", trace)
        assert code == 0
        assert out == ("kappa=4\nrounds_total=196 rounds_selector=180 rounds_disperse=0 "
                       "rounds_rr=16\naudit=pass\n")
        assert sha256(trace) == trace_sha, seed_args


# A selector over n=12 labels for kappa=8: set t of its 256 holds the x with
# t^2 + 3xt + x^2 + 5t divisible by kappa.
FORMULA_SELECTOR = "12 8 256\n" + "".join(
    " ".join(str(x) for x in range(12) if (t * t + 3 * x * t + x * x + 5 * t) % 8 == 0) + "\n"
    for t in range(256))

# The one-way cycle of `--random 12 0.0 0` with every edge also reversed.
TWO_WAY_RING = ("12\n0: 3 11\n1: 8 9\n2: 7 9\n3: 0 6\n4: 5 7\n5: 4 11\n6: 3 10\n7: 2 4\n"
                "8: 1 10\n9: 1 2\n10: 6 8\n11: 0 5\n")


def test_golden_simulate_selector_trace(tmp_path, capsys):
    # With a large kappa, the one-way cycle runs all three phases: the
    # round-robin pass, Disperse, and selector rounds.  On the two-way ring
    # the selector rounds collide, and receivers transmit in them, which the
    # one-way cycle's never do.
    sel = tmp_path / "formula.sel"
    sel.write_text(FORMULA_SELECTOR, encoding="utf-8")
    ring = tmp_path / "ring12.net"
    ring.write_text(TWO_WAY_RING, encoding="utf-8")
    trace = tmp_path / "selector.trace"
    for source, rounds, trace_sha in [
        (("--random", 12, 0.0, 0), "rounds_total=818 rounds_selector=512 rounds_disperse=282",
         "ae3c28ee40c15c449c2d400a28fee22cd4c36aab1d9f2857c9d99535a458002f"),
        (("--network", ring), "rounds_total=716 rounds_selector=512 rounds_disperse=180",
         "1d5a2567d6019601bc3650cbe25839ea5369a62e1b92215cc161b6e8fe5dbaad"),
    ]:
        code, out, _ = run(capsys, "simulate", *source, "--selector", sel, "--kappa", 8,
                           "--trace", trace)
        assert (code, out) == (0, f"kappa=8\n{rounds} rounds_rr=24\naudit=pass\n"), source
        assert sha256(trace) == trace_sha, source


def test_golden_sweep_jump_csv(tmp_path, capsys):
    out_file = tmp_path / "jump.csv"
    code, out, _ = run(capsys, "sweep", "-k", 6, "-q", 3, "--ell-min", 1, "--ell-max", 40,
                       "-o", out_file)
    assert (code, out) == (0, "")
    assert sha256(out_file) == "fdc3626511ec922363245b451d06ca9fd3256e3d125e1a2f0eeefe5db903041e"


# sha256 of sweep stdout, captured from the closed form before sweeps ran on
# the recurrence: large k (numerators of ~950 and ~2900 digits), q = 1
# (every row 0), q = k (the plain values under a q column) and a window that
# starts far past q.  The windows from ell 801 to 1600, which the benchmark's
# coupon jobs reach, were captured from the integer recurrence before rows
# were computed in decimal arithmetic.
SWEEP_STDOUT_GOLDEN = {
    ("-k", 239, "--ell-min", 1, "--ell-max", 400):
        "3667f3807df7727244131ec57acd514ba049f7453d638e420c6c29dc439fa9fa",
    ("-k", 239, "--ell-min", 1201, "--ell-max", 1210):
        "e40ec4a3d023ab6bdb8464fe957eca0058cac6f91d0aa0b6ccd3f902116f6a8c",
    ("-k", 239, "-q", 1, "--ell-min", 1, "--ell-max", 400):
        "b91d012aedd1f5478cddff28c52f34097737cea7f97ff6d185c0272de3e99809",
    ("-k", 239, "-q", 239, "--ell-min", 1, "--ell-max", 400):
        "da927218cb2a7ebf25cf7a4f1cd0a598f5b3b421ddd54a9cae0ca149d531e071",
    ("-k", 240, "-q", 12, "--ell-min", 395, "--ell-max", 420):
        "8dd09fefeb1399b629f41f9de7a7dfca043ad27e6717e4d9a9d5f46bcfc6ef5b",
    ("-k", 12, "-q", 1, "--ell-min", 1, "--ell-max", 30):
        "d4970705dfa82c2a9abbefbae5e6b57d97e3db318626c07c1b9d8995a362a915",
    ("-k", 12, "-q", 12, "--ell-min", 1, "--ell-max", 30):
        "4aa39bffcf5a066828f3cc4170f2da69570cf7c9e84c33d6c35ff658064e2cff",
    ("-k", 239, "--ell-min", 801, "--ell-max", 1200):
        "1a29d7b577bae5794224c9bdc41c3e21039468e3db7c9b08e645cc9b4e52bac6",
    ("-k", 239, "--ell-min", 1201, "--ell-max", 1600):
        "17ff9351e10d8d2198ace4fef8f5000d52e67be81d8475b0bda9c7c7c359facc",
    ("-k", 240, "-q", 12, "--ell-min", 801, "--ell-max", 1200):
        "a76614057dc3a31fa668711d651e04d613b4294a9671f495a0ac46af77e3f65c",
    ("-k", 240, "-q", 12, "--ell-min", 1201, "--ell-max", 1600):
        "515f1f893e1ae68610fde9282de1f1f2d77e3eb0f961ad9de228d3d01fa80050",
    ("-k", 27, "-q", 3, "--ell-min", 1201, "--ell-max", 1600):
        "5443210ccfe9c048a4c2261d31972e287c14f55b7c6198b7003ef4b9a9b09f1e",
}


@pytest.mark.parametrize("argv", list(SWEEP_STDOUT_GOLDEN),
                         ids=[" ".join(map(str, a)) for a in SWEEP_STDOUT_GOLDEN])
def test_golden_sweep_stdout(capsys, argv):
    code, out, err = run(capsys, "sweep", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_STDOUT_GOLDEN[argv]


def test_golden_simulate_large_random_trace(tmp_path, capsys):
    # 3000 nodes: 68,140 transmission rounds, every Disperse broadcast
    # carrying rumor sets of up to 3000 rumors.
    trace = tmp_path / "n3000.trace"
    code, out, _ = run(capsys, "simulate", "--random", 3000, 0.001, 1, "--auto",
                       "--trace", trace)
    assert code == 0
    assert out == ("kappa=140\nrounds_total=367480 rounds_selector=0 rounds_disperse=361480 "
                   "rounds_rr=6000\naudit=pass\n")
    assert sha256(trace) == "ae7e872ecc2fec84cc62821b4168c8e9dbbfb3cb10cf73fd8a74b581b730bff4"


_SELECTORS = {}


def _provider(k, n):
    if (k, n) not in _SELECTORS:
        cfg = BuildConfig(seed=99, target="permutation", size_mode="up_to",
                          m_override=4 * k * k * max(1, (n - 1).bit_length()))
        _SELECTORS[k, n] = build_verified(k, n, cfg)[0]
    return _SELECTORS[k, n]


# sha256 of gossip(random_strongly_connected(n, p, seed), kappa, _provider).to_text().
# The one-way cycles (p = 0.0) with kappa 5 or 6 run the selector phase in 10 of
# their 14 cases; every case runs the replay.
GOSSIP_TRACE_GOLDEN = {
    (5, 0.0, 0, 3): "a6160567fced98bbb6aaf8a512d1b10e0f24da65ff835b7e03a2c552e29ba2e3",
    (5, 0.0, 1, 3): "0bdf08eb452db82c9e1f320ba754289e613dcab1911341d2c023bf89a0a891ad",
    (9, 0.2, 0, 3): "132c52fe8644a74c6c31a23b3ea596a4c878efdeac05eb61781b6e5086948867",
    (9, 0.2, 1, 3): "675c7595b367f5559a52332d07f1b0a1e0a09b63e0edd29034098fce13689a51",
    (16, 0.1, 0, 3): "992c90d0380ac7df993f52641aeb0ebf8097cb6d52c61245a3b3013b7e783eb2",
    (16, 0.1, 1, 3): "131ae3aa26c55891c763d03dbdb4116420fb3646bc822c37f00854d88a78ab2f",
    (24, 0.3, 0, 3): "6c07a8d7ea18c249604e2630dc0c1f4997fb70161085868da5e04eeb8c04fdf4",
    (24, 0.3, 1, 3): "d8e8e5fff590358716fdbd68e3947dc93d6148244464607eae492530380e32f3",
    (40, 0.05, 0, 3): "f89789c54eb321d8b0ffb7a1b607b45eeef10b03ebb434f5613599a26c8601f2",
    (40, 0.05, 1, 3): "0a0d3538d7aa574dae0f65f8fa0559e811152f8a01b4fb3b2697b6812fb322c8",
    (8, 0.0, 100, 5): "a888ef1e724ebf8fad8cb735585f088d3470ca3625ff8297658ae01c1369e183",
    (8, 0.0, 101, 6): "48a72911265d40a1cce5cfb9be4e6f7f6b7df97f269b6fb824efe64d226f2c02",
    (8, 0.0, 102, 5): "42cc0a63e9ab105976d65f08b3bb1c3879fdd18af8f36e078038e3d77d525919",
    (8, 0.0, 103, 6): "38a9f1c7c61ba8cdbda1f59e7e1f4d9f18c938ef9f6c6f2d33ada7d86512a845",
    (8, 0.0, 104, 5): "e18d20927166901180950982920d8b19f38033a7fdd448cfebd370396a6cfa39",
    (8, 0.0, 105, 6): "4149968d868901ab0cd3150feddb57dba9cfb14ddac9fc96a1c9fb02f2eb379b",
    (8, 0.0, 106, 5): "12137394bdaf4194b4b656788b4cd07927ae53c6914115158838cf42cc41afe1",
    (8, 0.0, 107, 6): "b79d8b96b1c0edd2b9e440ef757c09ee2fc72e1fd9f0a5fc845bc3367f91d4d4",
    (8, 0.0, 108, 5): "128ad074622410d7fdd8c5f099d39c70bf094c97bf9d3ddd1cffb3434b1f39ba",
    (8, 0.0, 109, 6): "0dd8f33dd41bd35117c87eb311598cca540a32468346b9189fcd9995659b57d7",
    (10, 0.0, 110, 5): "ebc641bef500482f7ad2e46466e5300bc8db93638e8df90ff1e0767b94cf2b8d",
    (12, 0.0, 111, 5): "a8dd7d7db834490cb189c6f45bb71248fc4ed786e647adf3fb1df792af6699f6",
    (10, 0.0, 112, 5): "52c2b2357af1c46725f20a91de8a70e8f72dffe516dff806214016e01561faaf",
    (12, 0.0, 113, 5): "801058ce14e895514e76b72ae86a5c084a111b136e63e090395eef85a1050a3a",
}


@pytest.mark.parametrize("n,p,seed,kappa", list(GOSSIP_TRACE_GOLDEN))
def test_golden_gossip_trace_text(n, p, seed, kappa):
    text = gossip(random_strongly_connected(n, p, seed), kappa, _provider).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == GOSSIP_TRACE_GOLDEN[n, p, seed, kappa]
