"""Each module's ``__all__`` is the one list of its public names, and the
package re-exports exactly those lists."""

import inspect

import pytest

import fadenet
from fadenet import bounds, fading, powerchain, simulate, topology

MODULES = (topology, powerchain, fading, bounds, simulate)
# public in their modules for the tests that use them as oracles, but no
# part of the package's surface
TEST_ORACLES = {"brute_force_kappa", "log_h_squared_mean_mc"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_lists_every_public_definition(module):
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert defined - TEST_ORACLES <= set(module.__all__)
    assert TEST_ORACLES.isdisjoint(module.__all__)
    assert all(hasattr(module, name) for name in module.__all__)


def test_package_reexports_the_module_lists():
    names = fadenet.__all__
    assert len(set(names)) == len(names)
    assert set(names) == {n for m in MODULES for n in m.__all__} | {"__version__"}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fadenet, name) is getattr(module, name)


def test_no_public_callable_takes_a_topology_beside_a_model():
    # a FadingModel carries its topology, so a second one could only disagree
    both = []
    for name in fadenet.__all__:
        obj = getattr(fadenet, name)
        if inspect.isclass(obj):
            obj = obj.__init__  # signature() fails on a class with a builtin __init__
        if callable(obj) and {"topo", "model"} <= set(inspect.signature(obj).parameters):
            both.append(name)
    assert both == []
