"""The benchmark tracer's hooks must name attributes the library defines.

The tracer in perfbench/tracer.py patches library functions by name and
refuses to start when one is missing, so a refactor that renames or moves a
traced attribute fails here instead of in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from revmem import quant

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


def test_quantize_reaches_nearest_codes_through_the_module(monkeypatch):
    # the tracer times quant.nearest_codes by patching the module attribute;
    # a quantizer that bound the function directly would read 0 s there
    calls = []
    original = quant.nearest_codes

    def counted(normalized, qmap):
        calls.append(normalized.size)
        return original(normalized, qmap)

    monkeypatch.setattr(quant, "nearest_codes", counted)
    state = quant.quantize_blockwise(np.linspace(-1, 1, 100), block_size=32)
    assert calls == [100]
    assert state.codes.size == 100
