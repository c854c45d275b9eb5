"""Every declared dependency is imported somewhere in src/ or tests/.

Reads ``[project] dependencies`` and the ``test`` extra of pyproject.toml,
so dropping the last import of a package fails here until its declaration
goes too.  Each distribution name is assumed to be its import name, which
holds for every package keysec declares.
"""

import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parents[1]


def declared_packages():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = (project["dependencies"]
                    + project["optional-dependencies"]["test"])
    return [re.match(r"[A-Za-z0-9_.-]+", r).group(0) for r in requirements]


def imported_modules():
    names = set()
    for path in [*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")]:
        names.update(re.findall(r"^\s*(?:from|import)\s+(\w+)",
                                path.read_text(), re.MULTILINE))
    return names


@pytest.mark.parametrize("package", declared_packages())
def test_declared_dependency_is_imported(package):
    assert package.lower().replace("-", "_") in imported_modules()
