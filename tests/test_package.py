"""The package's export list matches what it binds."""

import re
import types
from pathlib import Path

import keysec


def test_all_lists_each_public_name_once():
    assert len(keysec.__all__) == len(set(keysec.__all__))
    bound = {name for name, value in vars(keysec).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert set(keysec.__all__) == bound


def test_version_matches_the_project_metadata():
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    declared = re.search(r'^version = "([^"]+)"$', pyproject.read_text(),
                         re.MULTILINE)
    assert keysec.__version__ == declared.group(1)


def test_only_probdist_reads_a_laws_storage():
    # README design notes: only probdist reads how a spike law is laid out,
    # or the summaries a dense law keeps
    layout = re.compile(r"\._(spike|dense|memo)\b")
    readers = [path.name for path in Path(keysec.__file__).parent.glob("*.py")
               if path.name != "probdist.py"
               and layout.search(path.read_text())]
    assert readers == []
