"""The CLI starts without numpy: only the commands that draw load it; and
the entry points that run it outside the suite reach `cli.main`.

Each case runs in a fresh interpreter, since the test process itself has
numpy loaded already."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# argv[1] is the source directory, argv[2:] the command (none: only the
# parser is built).  Prints main's exit code and whether numpy was loaded.
CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import permsel, permsel.cli
permsel.cli.build_parser()
code = permsel.cli.main(sys.argv[2:]) if sys.argv[2:] else 0
print(code, "numpy" in sys.modules, file=sys.stderr)
"""

SELECTOR = "3 2 6\n0\n1\n2\n0\n1\n2\n"
NETWORK = "3\n0: 1\n1: 2\n2: 0\n"


def numpy_loaded(tmp_path, *argv) -> bool:
    (tmp_path / "s.sel").write_text(SELECTOR, encoding="utf-8")
    (tmp_path / "c.net").write_text(NETWORK, encoding="utf-8")
    done = subprocess.run([sys.executable, "-c", CODE, str(SRC), *argv], cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    code, loaded = done.stderr.split()
    assert code == "0"
    return loaded == "True"


@pytest.mark.parametrize("argv", [
    (),
    ("verify", "s.sel", "--mode", "up_to"),
    ("sweep", "-k", "4", "-q", "2", "--ell-min", "2", "--ell-max", "16"),
    ("bound", "-k", "2", "-N", "16"),
    ("prob", "--ell", "6", "-k", "4", "-q", "2"),
    ("simulate", "--network", "c.net", "--selector", "s.sel", "--kappa", "2"),
], ids=["parser", "verify", "sweep", "bound", "prob-exact", "simulate-selector"])
def test_commands_that_never_draw_leave_numpy_unloaded(tmp_path, argv):
    assert not numpy_loaded(tmp_path, *argv)


@pytest.mark.parametrize("argv", [
    ("gen", "-k", "2", "-N", "4", "-m", "16", "--seed", "7", "-o", "out.sel"),
    ("prob", "--ell", "6", "-k", "4", "-q", "2", "--trials", "100"),
    ("simulate", "--random", "3", "0.5", "1", "--selector", "s.sel"),
], ids=["gen", "prob-monte-carlo", "simulate-random"])
def test_commands_that_draw_load_numpy(tmp_path, argv):
    assert numpy_loaded(tmp_path, *argv)


@pytest.mark.parametrize("budget,code,out,err", [
    (None, 1, "FAIL X={0,1} x=1\n", ""),
    ("abc", 2, "", "error: PERMSEL_BUDGET must be a non-negative integer, not 'abc'\n"),
], ids=["fail", "refused"])
def test_module_entry_point_exits_with_mains_code(tmp_path, budget, code, out, err):
    (tmp_path / "one.sel").write_text("3 2 1\n0\n", encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PERMSEL_BUDGET"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if budget is not None:
        env["PERMSEL_BUDGET"] = budget
    done = subprocess.run([sys.executable, "-W", "error", "-m", "permsel.cli", "verify",
                           "one.sel", "--target", "strong", "--mode", "up_to"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


def test_console_script_is_cli_main():
    # The suite calls cli.main in-process; it stands in for the installed
    # `permsel` command because that command is cli.main.  Read as text:
    # Python 3.10 has no tomllib.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.split() == ["permsel", "=", '"permsel.cli:main"']
