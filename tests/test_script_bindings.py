"""The scripts name only attributes that exist in the package.

scripts/*.py reach into hopflift through the aliases below, partly inside
probe texts that a child process runs, so a name renamed in src/ would
otherwise fail only when a bench runs.  Each script is read as text, probe
strings included, and every aliased name in it is looked up.
"""

import importlib
import re
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
MODULES = {
    "coh": "cohomology",
    "hc": "hopfcore",
    "lf": "lifting",
    "ra": "_arrays",
    "cr": "coeffring",
    "ser": "serialize",
    "tc": "tensorcalc",
}
NAME = re.compile(r"\b(" + "|".join(MODULES) + r")\.([A-Za-z_]\w*)")


def named(text):
    """The (alias, attribute) pairs that text names."""
    return sorted(set(NAME.findall(text)))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_names_exist(path):
    missing = [
        f"{alias}.{attr}"
        for alias, attr in named(path.read_text())
        if not hasattr(importlib.import_module("hopflift." + MODULES[alias]), attr)
    ]
    assert missing == []


def test_names_in_probe_texts_are_found():
    # a probe is a string; a deleted name inside it is reported like any other
    probe = 'PROBE = """\nfrom hopflift import cohomology as coh\ncoh._missing(ctx)\n"""'
    assert ("coh", "_missing") in named(probe)
    assert sum(len(named(p.read_text())) for p in SCRIPTS) > 20
