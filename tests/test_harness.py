"""The traced benchmark harness still finds the names it wraps.

``perfbench/tracing.py`` points the CLI's and the suites' module-level
names at traced wrappers, resolving each by ``getattr`` with no default.
A refactor that moves or renames one of them breaks every traced run, so
the names are checked here, without running the harness. The sweep's own
derivation of the ``assumed`` keys is held to the library's here too.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import fitsim
import fitsim.model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """The harness module ``perfbench/<name>.py``, read without running it
    as a script."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load("tracing")


def test_every_traced_cli_call_resolves(tracing):
    assert tracing.CLI_CALLS
    for module_name, attribute, span in tracing.CLI_CALLS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute, None)), (
            module_name, attribute, span)


def test_every_module_that_builds_the_model_is_a_traced_model_user(tracing):
    # a module that builds a FitModel by its global name and is missing
    # from MODEL_USERS would run its models untraced
    modules = [importlib.import_module(f"fitsim.{info.name}")
               for info in pkgutil.iter_modules(fitsim.__path__)
               if not info.name.startswith("_")]
    builders = {module.__name__ for module in modules
                if module.__name__ != "fitsim.model"
                and getattr(module, "FitModel", None) is fitsim.model.FitModel}
    assert builders
    assert builders <= set(tracing.MODEL_USERS)
    for module_name in tracing.MODEL_USERS:
        importlib.import_module(module_name)


def test_the_sweep_draws_the_librarys_assumed_keys():
    # the harness derives the keys itself; its copy must not drift from
    # the library's
    doc = fitsim.load_default_config()
    assert load("worker").assumed_keys(doc) == list(doc.assumed_keys)
