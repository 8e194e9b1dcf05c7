"""The four demos, run in-process, print exactly the captured output.

Demo 02 runs the Las Vegas builder and the minimal-length search, so a
change to either that moves any printed number fails here.
"""

import hashlib
from pathlib import Path
import runpy

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_SHA256 = {
    "01_selector_basics.py": "46d225cdc43159cdb172344109c45175003f668fe65a27ca377f706bf5f73390",
    "02_probabilistic_construction.py": "34453bb7f82d0b848b65edcd9ecd3f6480c9166b65bc9b5af4ce4dd3f8a026dd",
    "03_coupon_probabilities.py": "602c4ae3250c74d4b0b7537399adafe4c9d3fc6d2fa3132e71d0d0638da0c811",
    "04_gossip_simulation.py": "0486485b0f1ce8bd5eef52ad4571789fa72766938c2e58746c104f74af93b69b",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[name]
