"""`cli.main` runs each command with automatic cyclic garbage collection
paused and gives the caller back the collector as it found it.  That is safe
only while no command leaves cyclic garbage, which the first test checks on
a success and a refusal of every command."""

import ast
import functools
import gc
from pathlib import Path

import pytest

from permsel import build, coupon, radio
from permsel.cli import main
from permsel.radio import Network
from permsel.selectors import selector_to_text

SRC = Path(__file__).resolve().parent.parent / "src" / "permsel"

# {tmp} is the test's directory, holding the files `inputs` writes.
COMMANDS = [
    pytest.param(("gen", "-k", "2", "-N", "4", "-m", "16", "--mode", "up_to", "--seed", "7",
                  "-o", "{tmp}/g.sel"), 0, id="gen"),
    pytest.param(("gen", "-k", "2", "-N", "2", "-m", "0", "-o", "{tmp}/x.sel"), 1,
                 id="gen-exhausted"),
    pytest.param(("verify", "{tmp}/pass.sel", "--target", "strong"), 0, id="verify"),
    pytest.param(("verify", "{tmp}/fail.sel", "--target", "strong"), 1, id="verify-fail"),
    pytest.param(("prob", "--ell", "6", "-k", "4", "-q", "2", "--trials", "100"), 0, id="prob"),
    pytest.param(("prob", "--ell", "6", "-k", "4", "--trials", "-1"), 2, id="prob-refused"),
    pytest.param(("bound", "-k", "2", "-N", "16"), 0, id="bound"),
    pytest.param(("bound", "-k", "2", "-N", "16", "-c", "nan"), 2, id="bound-refused"),
    pytest.param(("minsize", "-k", "3", "-N", "6", "-q", "2", "--trials", "3", "--seed", "5"), 0,
                 id="minsize"),
    pytest.param(("minsize", "-k", "3", "-N", "6", "-q", "2", "--trials", "3", "--max-m", "0"), 1,
                 id="minsize-exhausted"),
    pytest.param(("simulate", "--random", "8", "0.3", "42", "--auto", "--trace", "{tmp}/t.trace"),
                 0, id="simulate-auto"),
    pytest.param(("simulate", "--network", "{tmp}/ring.net", "--selector", "{tmp}/ring.sel",
                  "--kappa", "4", "--trace", "{tmp}/t.trace"), 0, id="simulate-selector"),
    pytest.param(("simulate", "--network", "{tmp}/weak.net", "--auto"), 2,
                 id="simulate-refused"),
    pytest.param(("simulate", "--network", "{tmp}/ring.net", "--selector", "{tmp}/ring.sel",
                  "--seed", "1"), 2, id="simulate-seed-without-auto"),
    pytest.param(("sweep", "-k", "4", "-q", "2", "--ell-min", "2", "--ell-max", "16"), 0,
                 id="sweep"),
    pytest.param(("sweep", "-k", "4", "--ell-min", "5", "--ell-max", "1"), 2, id="sweep-refused"),
]

# A reversed 8-cycle (v -> v-1), whose gossip at kappa 4 runs selector
# rounds, and the verified (4, 8)-permutation selector `--auto --seed 1 -m 90`
# builds for it.
RING = Network(tuple(frozenset({(v - 1) % 8}) for v in range(8)))
RING_CONFIG = build.BuildConfig(seed=1, m_override=90)


@functools.cache
def ring_selector(k, n):
    return build.build_verified(k, n, RING_CONFIG)[0]


@pytest.fixture
def inputs(tmp_path):
    (tmp_path / "pass.sel").write_text("2 2 2\n0\n1\n", encoding="utf-8")
    (tmp_path / "fail.sel").write_text("2 2 1\n0 1\n", encoding="utf-8")
    (tmp_path / "ring.net").write_text(radio.network_to_text(RING), encoding="utf-8")
    (tmp_path / "weak.net").write_text("2\n0: 1\n1:\n", encoding="utf-8")
    (tmp_path / "ring.sel").write_text(
        selector_to_text(ring_selector(4, 8), 4), encoding="utf-8")
    return tmp_path


@pytest.fixture
def collector():
    """Give the collector back as the test found it."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("argv,code", COMMANDS)
def test_a_command_leaves_no_cyclic_garbage(inputs, capsys, argv, code):
    argv = [word.format(tmp=inputs) for word in argv]
    assert main(argv) == code  # warm up: first imports and caches may hold cycles
    gc.collect()
    assert main(argv) == code
    assert gc.collect() == 0
    capsys.readouterr()


def test_the_command_body_runs_with_the_collector_paused(capsys, monkeypatch, collector):
    seen = []
    real = coupon.union_bound_value

    def spy(*args):
        seen.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(coupon, "union_bound_value", spy)
    gc.enable()
    assert main(["bound", "-k", "2", "-N", "16"]) == 0
    assert seen == [False] and gc.isenabled()


def escaping_error(*args):
    raise RuntimeError("escapes main")


# (argv, what main does): an exit code, or the exception it lets through.
OUTCOMES = [
    (("bound", "-k", "2", "-N", "16"), 0),
    (("verify", "{tmp}/fail.sel", "--target", "strong"), 1),
    (("bound", "-k", "2", "-N", "16", "-c", "nan"), 2),
    (("bound", "-k", "2"), SystemExit),
    (("bound", "-k", "2", "-N", "16"), RuntimeError),
]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv,outcome", OUTCOMES,
                         ids=["exit-0", "exit-1", "exit-2", "argparse", "exception"])
def test_main_gives_the_collector_back_as_it_found_it(inputs, capsys, monkeypatch, collector,
                                                      enabled, argv, outcome):
    argv = [word.format(tmp=inputs) for word in argv]
    (gc.enable if enabled else gc.disable)()
    if isinstance(outcome, int):
        assert main(argv) == outcome
    else:
        if outcome is RuntimeError:
            monkeypatch.setattr(coupon, "union_bound_value", escaping_error)
        with pytest.raises(outcome):
            main(argv)
    assert gc.isenabled() == enabled
    capsys.readouterr()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_the_library_leaves_the_collector_alone(collector, enabled):
    seen = []

    def provider(k, n):
        seen.append(gc.isenabled())
        return ring_selector(k, n)

    (gc.enable if enabled else gc.disable)()
    state = radio.gossip(RING, 4, provider)
    assert state.summary_line().startswith("rounds_total=")
    assert seen == [enabled] and gc.isenabled() == enabled


def imports_gc(path: Path) -> bool:
    return any(isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "gc"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))


def test_only_the_cli_touches_the_collector():
    # Library callers keep control of their own process's collector.
    assert [path.name for path in sorted(SRC.glob("*.py")) if imports_gc(path)] == ["cli.py"]
