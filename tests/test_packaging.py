"""``pyproject.toml`` and ``setup.py`` carry the same metadata as the package.

``setup.py`` duplicates the ``[project]`` table for pre-61 setuptools, so the
two copies must agree, and the version must equal ``repro.__version__``.
Both files are read as text with regexes: ``tomllib`` needs Python 3.11.
"""

import re
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent

#: field -> (pyproject.toml pattern, setup.py pattern); each captures one value.
FIELDS = {
    "version": (r'^version\s*=\s*"([^"]+)"', r'\bversion\s*=\s*"([^"]+)"'),
    "python": (r'^requires-python\s*=\s*"([^"]+)"', r'\bpython_requires\s*=\s*"([^"]+)"'),
    "numpy": (
        r'^dependencies\s*=\s*\[[^\]]*"(numpy[^"]*)"',
        r'\binstall_requires\s*=\s*\[[^\]]*"(numpy[^"]*)"',
    ),
}


def _field(text, pattern, path):
    matches = re.findall(pattern, text, flags=re.MULTILINE)
    assert len(matches) == 1, f"{path.name}: expected one match of {pattern!r}, got {matches}"
    return matches[0]


def _metadata(path, column):
    text = path.read_text(encoding="utf-8")
    return {name: _field(text, patterns[column], path) for name, patterns in FIELDS.items()}


def test_pyproject_and_setup_agree_with_the_package():
    pyproject = _metadata(REPO_ROOT / "pyproject.toml", 0)
    setup = _metadata(REPO_ROOT / "setup.py", 1)
    assert pyproject == setup
    assert pyproject["version"] == repro.__version__
