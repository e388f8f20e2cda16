"""The benchmark tracer's hooks must name attributes the library defines.

The tracer in perfbench/tracer.py patches library functions by name and
refuses to start when one is missing, so a refactor that renames or moves a
traced attribute fails here instead of in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    hooks = tracer.revmem_hooks()
    originals = [vars(owner)[attr] for owner, attr, _, _ in hooks]
    with tracer.Tracer(hooks):
        assert all(vars(owner)[attr] is not orig
                   for (owner, attr, _, _), orig in zip(hooks, originals))
    assert all(vars(owner)[attr] is orig
               for (owner, attr, _, _), orig in zip(hooks, originals))
