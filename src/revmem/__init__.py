"""revmem: memory-efficient training with reversible residual networks and
8-bit optimizer states, plus a byte-exact memory ledger."""

from .engine import (
    MemoryLedger,
    Network,
    SavedStore,
    ledger_plan,
    run_backward,
    run_forward,
)
from .errors import (
    ConfigError,
    QuantizationError,
    RevmemError,
    ShapeError,
    StateError,
    StateOverflowError,
)
from .layers import Param, RevBlock, RevDownsample
from .loss import aam_softmax_loss
from .quant import (
    DynamicTreeMap,
    QuantizedState,
    build_dynamic_tree_map,
    dequantize_blockwise,
    nearest_codes_exhaustive,
    quantize_blockwise,
)
from .zoo import NetworkSpec, REGISTRY_NAMES, build, registry_spec, spec_from_json, spec_to_json, toy_spec

from . import heap

__version__ = "0.1.0"

heap.keep_freed_memory()
