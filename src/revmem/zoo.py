"""Declarative network builder and the named-architecture registry.

A NetworkSpec is an ordered stage list over a small grammar:

    conv(c, k, stride)        plain conv + batch norm + ReLU (non-reversible)
    res(kind, c, repeat)      residual blocks, identity/projection skip
    ds(kind, c)               stride-2 downsampling residual block
    rev_res(kind, c_half, n)  reversible coupling blocks on 2*c_half channels
    rev_ds(r, c_out)          invertible rearrangement downsampling
    pooling()                 statistics pooling over time
    fc(d_in, d_out)           embedding projection

Inputs are (n, 1, 80, T) feature maps. `build` validates the stage list
(integer fields, odd conv kernels, channel bookkeeping, divisibility, the fc
width rule) and the embedding width (an integer >= 1 equal to the last fc's
output), then instantiates parameters.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import ops
from .engine import Network
from .errors import ConfigError
from .layers import (
    BatchNorm2d,
    Conv2d,
    GlobalStatPool,
    Linear,
    ReLU,
    ResidualBlock,
    RevBlock,
    RevDownsample,
    RESIDUAL_KINDS,
)

INPUT_CHANNELS = 1
INPUT_FREQ = 80
DEFAULT_EMBEDDING_DIM = 256


@dataclass(frozen=True)
class Conv:
    c: int
    k: int = 3
    stride: int = 1


@dataclass(frozen=True)
class Res:
    kind: str
    c: int
    repeat: int = 1


@dataclass(frozen=True)
class Ds:
    kind: str
    c: int


@dataclass(frozen=True)
class RevRes:
    kind: str
    c_half: int
    repeat: int


@dataclass(frozen=True)
class RevDs:
    r: int
    c_out: int


@dataclass(frozen=True)
class Pooling:
    pass


@dataclass(frozen=True)
class Fc:
    d_in: int
    d_out: int


@dataclass
class NetworkSpec:
    name: str
    stages: list = field(default_factory=list)
    embedding_dim: int = DEFAULT_EMBEDDING_DIM


def _check_stage_ints(stage, where):
    """Every integer field is at least 1; a repeat count may be 0, a ratio is at least 2."""
    for fl in fields(stage):
        if fl.type not in ("int", int):
            continue
        value = getattr(stage, fl.name)
        low = {"repeat": 0, "r": 2}.get(fl.name, 1)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
            raise ConfigError(f"{where}: {fl.name} must be an integer >= {low}, got {value!r}")


def build(spec_or_name, dtype=np.float32, seed: int = 0) -> Network:
    """Instantiate a Network from a spec or a registry name.

    Conv/linear weights are He-uniform (fan-in); batch-norm affine starts at
    gamma=1, beta=0; biases at zero. Raises ConfigError naming the failing
    stage on any invariant violation.
    """
    if isinstance(spec_or_name, str):
        spec = registry_spec(spec_or_name)
    else:
        spec = spec_or_name
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype)

    layers = []
    c, f = INPUT_CHANNELS, INPUT_FREQ
    pooled = False
    for si, stage in enumerate(spec.stages):
        where = f"stage {si} ({type(stage).__name__.lower()})"
        if isinstance(stage, (Res, Ds, RevRes)) and stage.kind not in RESIDUAL_KINDS:
            raise ConfigError(f"{where}: unknown kind {stage.kind!r}")
        _check_stage_ints(stage, where)
        if isinstance(stage, Conv):
            if stage.k % 2 == 0:
                raise ConfigError(f"{where}: k must be odd, got {stage.k}")
            layers.append(Conv2d(c, stage.c, stage.k, stride=stage.stride, rng=rng, dtype=dtype))
            layers.append(BatchNorm2d(stage.c, dtype=dtype))
            layers.append(ReLU())
            f = ops.conv_out_size(f, stage.stride)
            c = stage.c
        elif isinstance(stage, Res):
            for _ in range(stage.repeat):
                layers.append(ResidualBlock(stage.kind, c, stage.c, rng=rng, dtype=dtype))
                c = stage.c
        elif isinstance(stage, Ds):
            layers.append(ResidualBlock(stage.kind, c, stage.c, rng=rng, dtype=dtype, stride=2))
            f = ops.conv_out_size(f, 2)
            c = stage.c
        elif isinstance(stage, RevRes):
            if c != 2 * stage.c_half:
                raise ConfigError(
                    f"{where}: reversible stage needs {2 * stage.c_half} input "
                    f"channels, network has {c}"
                )
            for _ in range(stage.repeat):
                layers.append(RevBlock(stage.kind, stage.c_half, rng=rng, dtype=dtype))
        elif isinstance(stage, RevDs):
            if stage.c_out != stage.r * stage.r * c:
                raise ConfigError(
                    f"{where}: output channels {stage.c_out} must be "
                    f"r^2 * {c} = {stage.r * stage.r * c}"
                )
            if f % stage.r:
                raise ConfigError(f"{where}: frequency {f} not divisible by {stage.r}")
            layers.append(RevDownsample(stage.r))
            f //= stage.r
            c = stage.c_out
        elif isinstance(stage, Pooling):
            layers.append(GlobalStatPool())
            pooled = True
        elif isinstance(stage, Fc):
            if not pooled:
                raise ConfigError(f"{where}: fc requires a pooling stage first")
            expected = 2 * c * f
            if stage.d_in != expected:
                raise ConfigError(
                    f"{where}: fc width {stage.d_in} != 2*c*f = 2*{c}*{f} = {expected}"
                )
            layers.append(Linear(stage.d_in, stage.d_out, rng=rng, dtype=dtype))
        else:
            raise ConfigError(f"{where}: unknown stage type")

    dim = spec.embedding_dim
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
        raise ConfigError(f"embedding_dim must be an integer >= 1, got {dim!r}")
    fcs = [stage for stage in spec.stages if isinstance(stage, Fc)]
    if fcs and fcs[-1].d_out != dim:
        raise ConfigError(f"embedding_dim {dim} != the last fc's d_out {fcs[-1].d_out}")
    return Network(layers, (INPUT_CHANNELS, INPUT_FREQ), dim, dtype)


# -- named architectures ----------------------------------------------------
#
# Every layout opens with a stem, runs one stage per entry of `widths` and
# `blocks`, and closes with `_head`. Each stage after the first halves the
# frequency axis.

_W300 = (48, 96, 192, 300)
_W384 = (48, 96, 192, 384)


def _widths(kind, channels):
    """Block widths: a bottleneck block is 4x its nominal channel count."""
    return [4 * c if kind == "bottleneck" else c for c in channels]


def _head(name, stages, width, n_stages, embedding_dim=DEFAULT_EMBEDDING_DIM):
    f = INPUT_FREQ >> (n_stages - 1)
    stages = stages + [Pooling(), Fc(2 * width * f, embedding_dim)]
    return NetworkSpec(name, stages, embedding_dim)


def _resnet(name, kind, blocks):
    w = _widths(kind, (32, 64, 128, 256))
    stages = [Conv(32), Res(kind, w[0], blocks[0])]
    for c, b in zip(w[1:], blocks[1:]):
        stages += [Ds(kind, c), Res(kind, c, b - 1)]
    return _head(name, stages, w[-1], len(w))


def _df_resnet(name, blocks):
    w = (32, 64, 128, 256)
    stages = [Conv(32), Res("df_bottleneck", w[0], blocks[0])]
    for c, b in zip(w[1:], blocks[1:]):
        stages += [Conv(c, 3, 2), Res("df_bottleneck", c, b)]
    return _head(name, stages, w[-1], len(w))


def _type1(name, kind, widths, blocks, stem, conv_opener,
          embedding_dim=DEFAULT_EMBEDDING_DIM):
    """Partially reversible: a strided block (a `Ds` block, or a stride-2
    conv if `conv_opener`) opens each stage after the first."""
    stages = stem + [RevRes(kind, widths[0] // 2, blocks[0])]
    for c, b in zip(widths[1:], blocks[1:]):
        stages.append(Conv(c, 3, 2) if conv_opener else Ds(kind, c))
        stages.append(RevRes(kind, c // 2, b))
    return _head(name, stages, widths[-1], len(widths), embedding_dim)


def _type2(name, kind, widths, blocks, stem, reducer_k,
          embedding_dim=DEFAULT_EMBEDDING_DIM):
    """Fully reversible: a conv reducer to a quarter of the width (kernel
    sizes `reducer_k`) and an invertible 2x2 rearrangement open each stage
    after the first."""
    stages = stem + [RevRes(kind, widths[0] // 2, blocks[0])]
    for c, b, k in zip(widths[1:], blocks[1:], reducer_k):
        stages += [Conv(c // 4, k, 1), RevDs(2, c), RevRes(kind, c // 2, b)]
    return _head(name, stages, widths[-1], len(widths), embedding_dim)


def _revnet_type1(name, kind, channels, blocks):
    w = _widths(kind, channels)
    return _type1(name, kind, w, blocks, [Conv(48), Res(kind, w[0], 1)], False)


def _df_revnet_type1(name, blocks):
    return _type1(name, "df_bottleneck", _W384, blocks, [Conv(48), Conv(48)], True)


def _revnet_type2_basic(name, channels, blocks):
    return _type2(name, "basic", channels, blocks, [Conv(channels[0])], (3, 3, 3))


def _revnet_type2_bottleneck(name, channels, blocks):
    # the stem's 1x1 conv expands to the 4x-wide blocks; 1x1/1x1/3x3 reducers
    w = _widths("bottleneck", channels)
    return _type2(name, "bottleneck", w, blocks, [Conv(48), Conv(w[0], 1, 1)], (1, 1, 3))


def _df_revnet_type2(name, blocks):
    return _type2(name, "df_bottleneck", _W384, blocks, [Conv(48)], (3, 3, 3))


# name -> (builder, arguments after the name)
_REGISTRY_BUILDERS = {
    # plain residual baselines
    "ResNet34": (_resnet, "basic", (3, 4, 6, 3)),
    "ResNet101": (_resnet, "bottleneck", (3, 4, 23, 3)),
    "ResNet152": (_resnet, "bottleneck", (3, 8, 36, 3)),
    # depthwise-bottleneck baselines
    "DF-ResNet56": (_df_resnet, (3, 3, 8, 3)),
    "DF-ResNet110": (_df_resnet, (3, 3, 26, 3)),
    "DF-ResNet179": (_df_resnet, (3, 8, 44, 3)),
    "DF-ResNet233": (_df_resnet, (3, 8, 62, 3)),
    # partially reversible (strided downsampling kept, inputs cached)
    "RevNet46": (_revnet_type1, "basic", _W300, (1, 2, 4, 2)),
    "RevNet126": (_revnet_type1, "basic", _W384, (2, 3, 22, 2)),
    "RevNet140": (_revnet_type1, "bottleneck", _W300, (2, 3, 14, 2)),
    "RevNet178": (_revnet_type1, "basic", _W384, (3, 8, 32, 3)),
    "RevNet230": (_revnet_type1, "bottleneck", _W300, (3, 8, 26, 3)),
    # fully reversible downsampling
    "RevNet57": (_revnet_type2_basic, _W300, (2, 3, 5, 3)),
    "RevNet137": (_revnet_type2_basic, _W384, (3, 4, 23, 3)),
    "RevNet197": (_revnet_type2_basic, _W384, (3, 8, 34, 3)),
    "RevNet155": (_revnet_type2_bottleneck, _W300, (3, 4, 15, 3)),
    "RevNet245": (_revnet_type2_bottleneck, _W300, (3, 8, 26, 3)),
    # depthwise-bottleneck reversible variants
    "DF-RevNet66": (_df_revnet_type1, (2, 2, 4, 2)),
    "DF-RevNet126": (_df_revnet_type1, (3, 3, 15, 3)),
    "DF-RevNet258": (_df_revnet_type1, (3, 8, 32, 3)),
    "DF-RevNet354": (_df_revnet_type1, (3, 8, 48, 3)),
    "DF-RevNet89": (_df_revnet_type2, (3, 3, 6, 2)),
    "DF-RevNet149": (_df_revnet_type2, (3, 3, 15, 3)),
    "DF-RevNet281": (_df_revnet_type2, (3, 8, 32, 3)),
    "DF-RevNet377": (_df_revnet_type2, (3, 8, 48, 3)),
}

REGISTRY_NAMES = tuple(_REGISTRY_BUILDERS)


def registry_spec(name: str) -> NetworkSpec:
    if name not in _REGISTRY_BUILDERS:
        raise ConfigError(
            f"unknown network {name!r}; known: {', '.join(REGISTRY_NAMES)}"
        )
    builder, *args = _REGISTRY_BUILDERS[name]
    return builder(name, *args)


def toy_spec(stage_blocks, width: int, kind: str = "basic", net_type: str = "type2",
             embedding_dim: int = 32) -> NetworkSpec:
    """A desk-scale miniature following the full stage grammar.

    type2 keeps the width constant across stages (conv reducer + invertible
    rearrangement between stages); type1 doubles the width via strided
    downsampling blocks. fc width depends only on the width and the number
    of downsamplings, never on stage_blocks.
    """
    if width % 2 or width < 4:
        raise ConfigError(f"toy width must be even and >= 4, got {width}")
    if kind not in RESIDUAL_KINDS:
        raise ConfigError(f"unknown residual kind {kind!r}")
    n_stages = len(stage_blocks)
    if n_stages < 1:
        raise ConfigError("need at least one stage")
    stem = [Conv(width)]
    if net_type == "type2":
        if n_stages > 1 and width % 4:
            raise ConfigError(
                f"multi-stage type2 toys need width divisible by 4, got {width}"
            )
        return _type2(f"toy-{kind}-t2-w{width}", kind, [width] * n_stages, stage_blocks,
                      stem, [3] * (n_stages - 1), embedding_dim)
    if net_type == "type1":
        return _type1(f"toy-{kind}-t1-w{width}", kind,
                      [width * 2 ** i for i in range(n_stages)], stage_blocks, stem, False,
                      embedding_dim)
    raise ConfigError(f"unknown net_type {net_type!r}")


# -- JSON round trip --------------------------------------------------------

_STAGE_TYPES = {"conv": Conv, "res": Res, "ds": Ds, "rev_res": RevRes, "rev_ds": RevDs,
                "pooling": Pooling, "fc": Fc}

_STAGE_OPS = {cls: op for op, cls in _STAGE_TYPES.items()}


def spec_to_json(spec: NetworkSpec) -> str:
    stages = [{"op": _STAGE_OPS[type(stage)], **asdict(stage)} for stage in spec.stages]
    doc = {"name": spec.name, "stages": stages, "embedding_dim": spec.embedding_dim}
    return json.dumps(doc, indent=2)


def spec_from_json(text: str) -> NetworkSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"network document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("network document must be a JSON object")
    allowed_top = {"name", "stages", "embedding_dim"}
    extra = set(doc) - allowed_top
    if extra:
        raise ConfigError(f"unknown keys in network document: {sorted(extra)}")
    entries = doc.get("stages", [])
    if not isinstance(entries, list):
        raise ConfigError("network document's stages must be a JSON list")
    stages = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"stage {i}: expected a JSON object, got {entry!r}")
        op = entry.get("op")
        if op not in _STAGE_TYPES:
            raise ConfigError(f"stage {i}: unknown op {op!r}")
        cls = _STAGE_TYPES[op]
        kwargs = {k: v for k, v in entry.items() if k != "op"}
        extra = set(kwargs) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"stage {i}: unknown keys {sorted(extra)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in kwargs]
        if missing:
            raise ConfigError(f"stage {i} ({op}): missing keys {missing}")
        stages.append(cls(**kwargs))
    return NetworkSpec(
        name=doc.get("name", "unnamed"),
        stages=stages,
        embedding_dim=doc.get("embedding_dim", DEFAULT_EMBEDDING_DIM),
    )
