"""Registry fidelity, spec validation, pinned parameter counts, JSON round trip."""

import re

import numpy as np
import pytest

from revmem import zoo
from revmem.engine import run_forward, walk
from revmem.errors import ConfigError
from revmem.layers import Planned

# reference parameter counts for the named architectures, asserted at 2%.
# Entries are limited to networks whose reference block layout is
# arithmetically consistent with the reference count (a few reference rows
# contradict their own layout; those are checked against PARAM_EXACT only).
PARAM_TABLE = {
    "ResNet34": 6.6e6,
    "ResNet101": 15.9e6,
    "ResNet152": 19.8e6,
    "DF-ResNet56": 4.5e6,
    "DF-ResNet110": 7.0e6,
    "DF-ResNet179": 9.8e6,
    "DF-ResNet233": 12.3e6,
    "RevNet46": 6.7e6,
    "RevNet57": 6.1e6,
    "RevNet126": 15.0e6,
    "RevNet137": 14.2e6,
    "RevNet140": 15.8e6,
    "RevNet155": 15.6e6,
    "RevNet197": 18.2e6,
    "RevNet245": 19.4e6,
    "DF-RevNet66": 4.8e6,
    "DF-RevNet89": 4.5e6,
    "DF-RevNet149": 6.5e6,
}

# exact parameter counts of every registry net; a layout change that moves
# any stage of any net changes at least one of these
PARAM_EXACT = {
    "ResNet34": 6_629_664,
    "ResNet101": 15_847_968,
    "ResNet152": 19_751_200,
    "DF-ResNet56": 4_535_136,
    "DF-ResNet110": 6_995_808,
    "DF-ResNet179": 9_634_400,
    "DF-ResNet233": 12_095_072,
    "RevNet46": 6_747_592,
    "RevNet126": 14_973_616,
    "RevNet140": 15_767_704,
    "RevNet178": 20_059_600,
    "RevNet230": 20_710_360,
    "RevNet57": 6_102_190,
    "RevNet137": 14_203_264,
    "RevNet197": 18_189_568,
    "RevNet155": 15_697_192,
    "RevNet245": 19_462_312,
    "DF-RevNet66": 4_801_840,
    "DF-RevNet126": 7_175_920,
    "DF-RevNet258": 10_031_728,
    "DF-RevNet354": 12_526_192,
    "DF-RevNet89": 4_491_040,
    "DF-RevNet149": 6_500_896,
    "DF-RevNet281": 9_356_704,
    "DF-RevNet377": 11_851_168,
}

FC_TABLE = {
    "RevNet46": 6000, "RevNet57": 6000,
    "RevNet126": 7680, "RevNet137": 7680, "RevNet178": 7680, "RevNet197": 7680,
    "RevNet140": 24000, "RevNet155": 24000, "RevNet230": 24000, "RevNet245": 24000,
    "DF-RevNet66": 7680, "DF-RevNet89": 7680, "DF-RevNet126": 7680,
    "DF-RevNet149": 7680, "DF-RevNet258": 7680, "DF-RevNet281": 7680,
    "DF-RevNet354": 7680, "DF-RevNet377": 7680,
}


class TestRegistry:
    @pytest.mark.parametrize("name", zoo.REGISTRY_NAMES)
    def test_builds_and_matches_pinned_count(self, name):
        assert zoo.build(name, dtype=np.float32).param_count == PARAM_EXACT[name]

    @pytest.mark.parametrize("name,target", sorted(PARAM_TABLE.items()))
    def test_param_count_within_two_percent(self, name, target):
        assert abs(PARAM_EXACT[name] - target) / target <= 0.02

    @pytest.mark.parametrize("name,d_in", sorted(FC_TABLE.items()))
    def test_fc_dims_exact(self, name, d_in):
        spec = zoo.registry_spec(name)
        fc = [s for s in spec.stages if isinstance(s, zoo.Fc)][0]
        assert (fc.d_in, fc.d_out) == (d_in, 256)

    def test_fc_width_rule_holds_everywhere(self):
        # d_in == 2 * final channels * (80 / frequency downsampling)
        for name in zoo.REGISTRY_NAMES:
            spec = zoo.registry_spec(name)
            net = zoo.build(spec, dtype=np.float32)
            shape = walk(net, Planned((1, 1, 80, 8)), "reversible")[0].shape
            fc = [s for s in spec.stages if isinstance(s, zoo.Fc)][0]
            assert shape == (1, fc.d_out)

    def test_revnet46_fc(self):
        net = zoo.build("RevNet46", dtype=np.float32)
        fc = net.layers[-1]
        assert fc.w.value.shape == (6000, 256)

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown network"):
            zoo.registry_spec("RevNet9000")

    def test_every_registry_net_produces_finite_embeddings(self, rng):
        x = rng.normal(size=(1, 1, 80, 8)).astype(np.float32)
        for name in zoo.REGISTRY_NAMES:
            net = zoo.build(name, dtype=np.float32, seed=0)
            mode = "reversible" if any(l.reversible for l in net.layers) else "stored"
            out, _, _ = run_forward(net, x, mode)
            assert out.shape == (1, 256), name
            assert np.all(np.isfinite(out)), name


class TestValidation:
    def test_rev_stage_channel_mismatch_names_stage(self):
        spec = zoo.NetworkSpec("bad", [zoo.Conv(8), zoo.RevRes("basic", 6, 1),
                                       zoo.Pooling(), zoo.Fc(2 * 12 * 80, 32)])
        with pytest.raises(ConfigError, match="stage 1"):
            zoo.build(spec)

    def test_rev_ds_channel_rule(self):
        spec = zoo.NetworkSpec("bad", [zoo.Conv(8), zoo.RevDs(2, 16)])
        with pytest.raises(ConfigError, match="r\\^2"):
            zoo.build(spec)

    def test_fc_width_mismatch(self):
        spec = zoo.NetworkSpec("bad", [zoo.Conv(8), zoo.Pooling(), zoo.Fc(100, 32)])
        with pytest.raises(ConfigError, match="fc width"):
            zoo.build(spec)

    def test_bottleneck_width_divisibility(self):
        spec = zoo.NetworkSpec("bad", [zoo.Conv(12), zoo.RevRes("bottleneck", 6, 1),
                                       zoo.Pooling(), zoo.Fc(2 * 12 * 80, 32)])
        with pytest.raises(ConfigError, match="divisible by 4"):
            zoo.build(spec)

    @pytest.mark.parametrize("stage, where, field", [
        (zoo.Conv(8, 3, 0), "stage 1 (conv)", "stride"),
        (zoo.Conv(0), "stage 1 (conv)", "c"),
        (zoo.Conv(8, 0), "stage 1 (conv)", "k"),
        (zoo.RevDs(0, 0), "stage 1 (revds)", "r"),
        (zoo.Res("basic", 8, -2), "stage 1 (res)", "repeat"),
        (zoo.Res("basic", 8, 1.5), "stage 1 (res)", "repeat"),
        (zoo.Ds("basic", 0), "stage 1 (ds)", "c"),
        (zoo.RevRes("basic", 4, -1), "stage 1 (revres)", "repeat"),
        (zoo.Fc(0, 32), "stage 2 (fc)", "d_in"),
        (zoo.RevDs(1, 8), "stage 1 (revds)", "r"),  # a ratio below 2 cannot downsample
        (zoo.Conv(8, 2), "stage 1 (conv)", "k"),  # a conv pads by k // 2, so k is odd
    ])
    def test_stage_integers_checked(self, stage, where, field):
        stages = [zoo.Conv(8), stage]
        if isinstance(stage, zoo.Fc):
            stages.insert(1, zoo.Pooling())
        with pytest.raises(ConfigError, match=rf"{re.escape(where)}: {field} must be"):
            zoo.build(zoo.NetworkSpec("bad", stages))


class TestToySpec:
    def test_basic_toy_builds(self):
        net = zoo.build(zoo.toy_spec([1, 1], 8, "basic"))
        assert net.param_count > 0

    def test_fc_independent_of_depth(self):
        shallow = zoo.toy_spec([1, 1], 8, "basic")
        deep = zoo.toy_spec([4, 4], 8, "basic")
        fc = lambda s: [st for st in s.stages if isinstance(st, zoo.Fc)][0]
        assert fc(shallow) == fc(deep)

    def test_type2_has_no_strided_downsampling(self):
        spec = zoo.toy_spec([2, 2, 2], 8, "df_bottleneck")
        assert not any(isinstance(s, zoo.Ds) for s in spec.stages)
        assert all(s.stride == 1 for s in spec.stages if isinstance(s, zoo.Conv))

    def test_type1_uses_strided_blocks(self):
        spec = zoo.toy_spec([1, 1], 8, "basic", net_type="type1")
        assert any(isinstance(s, zoo.Ds) for s in spec.stages)

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            zoo.toy_spec([1], 7, "basic")

    # the argument sets the benchmark workloads pass to toy_spec
    @pytest.mark.parametrize("args, name, stages", [
        (([4, 4], 16, "df_bottleneck", "type2"), "toy-df_bottleneck-t2-w16",
         [zoo.Conv(16), zoo.RevRes("df_bottleneck", 8, 4), zoo.Conv(4, 3, 1), zoo.RevDs(2, 16),
          zoo.RevRes("df_bottleneck", 8, 4), zoo.Pooling(), zoo.Fc(1280, 32)]),
        (([1, 1], 64, "basic", "type1"), "toy-basic-t1-w64",
         [zoo.Conv(64), zoo.RevRes("basic", 32, 1), zoo.Ds("basic", 128),
          zoo.RevRes("basic", 64, 1), zoo.Pooling(), zoo.Fc(10240, 32)]),
    ], ids=["train-rev-df/train-stored-df", "train-wide-q8"])
    def test_benchmark_layouts_pinned(self, args, name, stages):
        assert zoo.toy_spec(*args) == zoo.NetworkSpec(name, stages, 32)

    def test_zero_block_stage_is_valid(self):
        net = zoo.build(zoo.toy_spec([0], 8, "basic"))
        assert net.param_count > 0


class TestJsonRoundTrip:
    def test_round_trip_preserves_spec(self):
        spec = zoo.registry_spec("RevNet57")
        back = zoo.spec_from_json(zoo.spec_to_json(spec))
        assert back == spec

    def test_round_trip_toy(self):
        spec = zoo.toy_spec([2, 1], 16, "df_bottleneck")
        back = zoo.spec_from_json(zoo.spec_to_json(spec))
        assert back == spec
        assert (zoo.build(back, dtype=np.float32).param_count
                == zoo.build(spec, dtype=np.float32).param_count)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            zoo.spec_from_json('{"name": "x", "stages": [], "extra": 1}')

    def test_unknown_stage_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            zoo.spec_from_json(
                '{"name": "x", "stages": [{"op": "conv", "c": 8, "pad": 3}]}')

    @pytest.mark.parametrize("text, match", [
        ('{"name": "x", "stages": [', "not valid JSON"),
        ('[]', "JSON object"),
        ('{"stages": {"op": "conv"}}', "JSON list"),
        ('{"stages": [3]}', "stage 0: expected a JSON object"),
        ('{"stages": [{"op": "res", "c": 8}]}', r"stage 0 \(res\): missing keys \['kind'\]"),
    ])
    def test_malformed_document_rejected(self, text, match):
        with pytest.raises(ConfigError, match=match):
            zoo.spec_from_json(text)

    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigError, match="unknown op"):
            zoo.spec_from_json('{"name": "x", "stages": [{"op": "warp"}]}')
