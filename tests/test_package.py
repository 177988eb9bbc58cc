"""The package's export list."""

import types

import topospec


def test_all_lists_every_public_name_once_in_sorted_order():
    exported = topospec.__all__
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    public = {name for name, value in vars(topospec).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(exported) == public
