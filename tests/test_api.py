"""Each module's ``__all__`` names exactly its public functions and classes."""

import importlib
import inspect
import pkgutil

import pytest

import turbchan

MODULES = [m for m in (importlib.import_module(info.name)
                       for info in pkgutil.iter_modules(turbchan.__path__, "turbchan."))
           if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_all_lists_public_definitions(module):
    # a name left in __all__ after its definition was deleted fails here,
    # and so does a public function or class never added to it
    listed = module.__all__
    assert len(set(listed)) == len(listed)
    assert [name for name in listed if not hasattr(module, name)] == []
    public = [name for name, obj in vars(module).items()
              if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__]
    assert [name for name in public if name not in listed] == []
