"""The benchmark's tracer wraps package functions by name; each name must exist.

perfbench/tracer.py is loaded by path, as a plain module, so that renaming
or deleting a traced function fails here and not only in the slower
benchmark self-test (`python3 -m pytest perfbench`).
"""

import importlib.util
from pathlib import Path

import pytest

from lcflat import geometry, metrics, verify, wjet

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = dict(wjet=wjet, metrics=metrics, geometry=geometry, verify=verify)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
NAMES = [(home, name) for table in (tracer.SPANNED, tracer.COUNTED)
         for home, names in table.items() for name in names]


@pytest.mark.parametrize("home, name", NAMES, ids=[f"{h}.{n}" for h, n in NAMES])
def test_every_traced_name_exists(home, name):
    assert callable(getattr(MODULES[home], name, None)), f"{home}.{name}"


def test_jet_constructor_is_defined_on_the_class():
    # The tracer counts jet allocations by replacing WJet.__init__.
    assert "__init__" in vars(wjet.WJet)
