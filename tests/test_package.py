"""The package's export list matches what it binds."""

import types

import keysec


def test_all_lists_each_public_name_once():
    assert len(keysec.__all__) == len(set(keysec.__all__))
    bound = {name for name, value in vars(keysec).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert set(keysec.__all__) == bound
