"""Command-line surface: grammar, exit codes, artifacts, determinism."""

import argparse

import numpy as np
import pytest

from revmem import cli, zoo
from revmem.cli import main
from revmem.loss import Trainer, aam_softmax_loss


def run(args):
    return main(args)


@pytest.fixture
def toy_spec_file(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(zoo.spec_to_json(zoo.toy_spec([1, 1], 8, "basic")))
    return str(path)


# Every option each subcommand takes; a new option needs an edit here.
OPTIONS = {
    "gradcheck": {"--seed", "--out", "--inject-vjp-fault"},
    "train": {"--net", "--spec", "--mode", "--optim", "--batch", "--steps", "--seed",
              "--f64", "--out", "--frames", "--lr", "--classes", "--block"},
    "memreport": {"--net", "--spec", "--mode", "--optim", "--batch", "--f64", "--out",
                  "--frames", "--sweep-depths"},
    "quantbench": {"--elements", "--blocks", "--seed", "--out"},
    "eer": {"--scores", "--emb", "--out"},
}


def test_option_sets_pinned():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
           for name, parser in sub.choices.items()}
    assert got == OPTIONS


@pytest.mark.parametrize("argv", [["train", "--steps", "1"],
                                  ["memreport", "--net", "ResNet34"]],
                         ids=["train", "memreport"])
def test_unwritable_out_exits_2_naming_path(tmp_path, capsys, argv):
    out = str(tmp_path / "missing" / "x.csv")
    assert run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot write {out}:")
    assert "Traceback" not in err


@pytest.mark.parametrize("unwritable", ["log", "embeddings"])
def test_train_checks_out_paths_before_first_step(tmp_path, capsys, monkeypatch,
                                                   unwritable):
    steps = []
    forward = Trainer.forward
    monkeypatch.setattr(Trainer, "forward",
                        lambda *a, **k: steps.append(1) or forward(*a, **k))
    if unwritable == "log":
        out = tmp_path / "missing" / "x.csv"
        bad = out
    else:
        out = tmp_path / "x.csv"
        bad = tmp_path / "x_embeddings.csv"
        bad.mkdir()  # a directory cannot be opened as a file
    assert run(["train", "--steps", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot write {bad}:")
    assert steps == []
    assert not out.exists()  # the probe leaves no file behind


class TestGradcheckCommand:
    def test_default_passes(self, tmp_path):
        out = tmp_path / "gc.csv"
        assert run(["gradcheck", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "check,max_error,tolerance,status"
        assert all(line.endswith("pass") for line in lines[1:])
        names = {line.split(",")[0] for line in lines[1:]}
        assert {"conv2d_1x1_s2_dx", "conv2d_1x1_s2_dw",
                "conv2d_3x3_s2_dx", "conv2d_3x3_s2_dw"} <= names
        # depthwise convs run at stride 1 only
        assert {"depthwise_conv2d_dx", "depthwise_conv2d_dw"} <= names
        assert not any(name.startswith("depthwise_conv2d_s2") for name in names)

    def test_fault_injection_names_op(self, tmp_path, capsys):
        out = tmp_path / "gc.csv"
        assert run(["gradcheck", "--inject-vjp-fault", "batchnorm2d",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "batchnorm2d" in err
        assert "FAIL" in out.read_text()

    @pytest.mark.parametrize("op, row", [("conv2d", "conv2d_1x1_s2_dx"),
                                         ("depthwise_conv2d", "depthwise_conv2d_dx"),
                                         ("conv2d", "conv2d_dw"),
                                         ("conv2d", "conv2d_1x1_s2_dw"),
                                         ("depthwise_conv2d", "depthwise_conv2d_dw"),
                                         ("batchnorm2d", "batchnorm2d_dgamma"),
                                         ("linear", "linear_db"),
                                         ("conv2d", "conv2d_3x3_s2_dx"),
                                         ("conv2d", "conv2d_3x3_s2_dw"),
                                         ("global_stat_pool", "global_stat_pool_dx"),
                                         ("relu", "relu_mask")])
    def test_fault_injection_reaches_strided_rows(self, tmp_path, op, row):
        out = tmp_path / "gc.csv"
        assert run(["gradcheck", "--inject-vjp-fault", op, "--out", str(out)]) == 1
        rows = {line.split(",")[0]: line for line in out.read_text().split("\n")}
        assert rows[row].endswith("FAIL")

    def test_unknown_fault_op_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["gradcheck", "--inject-vjp-fault", "conv2dd"])
        assert info.value.code == 2
        assert "argument --inject-vjp-fault: invalid choice: 'conv2dd'" in capsys.readouterr().err

    def test_zero_depth_net_vacuous_pass(self, tmp_path):
        # the block-free net row has nothing to disagree about
        out = tmp_path / "gc.csv"
        assert run(["gradcheck", "--seed", "3", "--out", str(out)]) == 0
        zero_rows = [line for line in out.read_text().strip().split("\n")
                     if line.startswith("net_equivalence_zero_depth")]
        assert len(zero_rows) == 1 and zero_rows[0].endswith("pass")


class TestTrainCommand:
    def test_loss_halves_on_default_toy(self, tmp_path):
        out = tmp_path / "train.csv"
        assert run(["train", "--steps", "40", "--seed", "0", "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        first = float(rows[0].split(",")[1])
        last = float(rows[-1].split(",")[1])
        assert last <= 0.5 * first

    def test_steps_zero_logs_single_evaluation(self, tmp_path):
        out = tmp_path / "train.csv"
        assert run(["train", "--steps", "0", "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")
        assert len(rows) == 2  # header + initial evaluation

    def test_modes_agree_stepwise_float64(self, tmp_path):
        losses = {}
        for mode in ("stored", "reversible"):
            out = tmp_path / f"{mode}.csv"
            assert run(["train", "--steps", "5", "--mode", mode, "--f64",
                        "--seed", "1", "--out", str(out)]) == 0
            rows = out.read_text().strip().split("\n")[1:]
            losses[mode] = [float(r.split(",")[1]) for r in rows]
        for a, b in zip(losses["stored"], losses["reversible"]):
            assert abs(a - b) <= 1e-9

    def test_deterministic_output_bytes(self, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"run{i}.csv"
            assert run(["train", "--steps", "3", "--seed", "7", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_writes_embeddings_for_eval(self, tmp_path):
        out = tmp_path / "train.csv"
        assert run(["train", "--steps", "2", "--out", str(out)]) == 0
        emb = tmp_path / "train_embeddings.csv"
        assert emb.exists()
        first = emb.read_text().strip().split("\n")[0].split(",")
        assert len(first) == 1 + 32  # label + toy embedding width

    @pytest.mark.parametrize("out", ["runs.v2/train", ".hidden/x", "log.csv"])
    def test_embeddings_written_beside_the_log(self, tmp_path, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        log = tmp_path / out
        log.parent.mkdir(exist_ok=True)
        assert run(["train", "--steps", "1", "--out", out]) == 0
        stem = log.name.removesuffix(".csv")
        assert (log.parent / f"{stem}_embeddings.csv").exists()
        assert sorted(p.name for p in log.parent.iterdir()) == sorted(
            [log.name, f"{stem}_embeddings.csv"])
        if log.parent != tmp_path:  # nothing lands in the working directory
            assert [p.name for p in tmp_path.iterdir()] == [log.parent.name]

    @pytest.mark.parametrize("dim, cause", [(64, "!= the last fc's d_out 32"),
                                            ("abc", "must be an integer >= 1")])
    def test_bad_embedding_dim_exits_2(self, tmp_path, capsys, dim, cause):
        spec = zoo.toy_spec([1, 1], 8, "basic")
        spec.embedding_dim = dim
        path = tmp_path / "spec.json"
        path.write_text(zoo.spec_to_json(spec))
        assert run(["train", "--spec", str(path), "--steps", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: embedding_dim") and cause in err
        assert "Traceback" not in err

    def test_spec_file_input(self, tmp_path, toy_spec_file):
        out = tmp_path / "train.csv"
        assert run(["train", "--spec", toy_spec_file, "--steps", "1",
                    "--optim", "sgd", "--out", str(out)]) == 0

    def test_unknown_net_is_config_error(self):
        assert run(["train", "--net", "NotANet", "--steps", "1"]) == 2

    def test_loss_dtype_mismatch_is_config_error(self, monkeypatch, capsys):
        setup = Trainer.__init__

        def mixed(self, *args, **kwargs):
            setup(self, *args, **kwargs)
            self.head.value = self.head.value.astype(np.float64)

        monkeypatch.setattr(Trainer, "__init__", mixed)
        assert run(["train", "--steps", "1"]) == 2
        err = capsys.readouterr().err
        assert "embeddings dtype float32" in err and "head weights dtype float64" in err

    @pytest.mark.parametrize("optim", ["adam8", "sgd8"])
    def test_non_finite_gradient_diverges_with_log(self, tmp_path, monkeypatch, capsys,
                                                   optim):
        losses = []

        def poisoned(emb, labels, weights, *args):
            loss, demb, dhead = aam_softmax_loss(emb, labels, weights, *args)
            losses.append(loss)
            if len(losses) == 3:  # step 2: a finite loss with a NaN head gradient
                dhead = dhead.copy()
                dhead[0, 0] = np.nan
            return loss, demb, dhead

        monkeypatch.setattr("revmem.loss.aam_softmax_loss", poisoned)
        out = tmp_path / "train.csv"
        assert run(["train", "--optim", optim, "--steps", "5", "--out", str(out)]) == 1
        rows = out.read_text().strip().split("\n")
        assert rows[0] == "step,loss,activation_bytes,total_bytes"
        assert [int(r.split(",")[0]) for r in rows[1:]] == [0, 1, 2]
        assert all(np.isfinite(float(r.split(",")[1])) for r in rows[1:])
        assert "training diverged at step 2 (non-finite gradient)" in capsys.readouterr().err

    def test_state_overflow_diverges_with_log(self, tmp_path, monkeypatch, capsys):
        losses = []

        def huge(emb, labels, weights, *args):
            loss, demb, dhead = aam_softmax_loss(emb, labels, weights, *args)
            losses.append(loss)
            if len(losses) == 2:  # step 1: a finite gradient that overflows Adam's r
                dhead = dhead.copy()
                dhead[0, 0] = 1e22
            return loss, demb, dhead

        monkeypatch.setattr("revmem.loss.aam_softmax_loss", huge)
        out = tmp_path / "train.csv"
        assert run(["train", "--optim", "adam8", "--steps", "5", "--out", str(out)]) == 1
        rows = out.read_text().strip().split("\n")
        assert [int(r.split(",")[0]) for r in rows[1:]] == [0, 1]
        err = capsys.readouterr().err
        assert "training diverged at step 1 (8-bit state overflow)" in err
        assert "could overflow the 8-bit state" in err

    def test_net_and_spec_conflict(self, toy_spec_file):
        assert run(["train", "--net", "RevNet46", "--spec", toy_spec_file]) == 2


@pytest.mark.parametrize("command", ["train", "memreport"])
@pytest.mark.parametrize("content", [None, b'{"name": "x", "stages": [',
                                     b'{"name": "x", "stages": [{"op": "res", "c": 8}]}',
                                     b'\xff\xfe{}'],
                         ids=["missing-file", "malformed-json", "missing-field", "not-utf8"])
def test_bad_spec_file_exits_2(tmp_path, capsys, command, content):
    path = tmp_path / "spec.json"
    if content is not None:
        path.write_bytes(content)
    assert run([command, "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err


class TestMemreportCommand:
    def test_resnet34_activation_share(self, tmp_path):
        out = tmp_path / "mem.csv"
        assert run(["memreport", "--net", "ResNet34", "--mode", "stored",
                    "--batch", "64", "--frames", "200", "--optim", "sgd",
                    "--out", str(out)]) == 0
        rows = {r.split(",")[0]: r.split(",") for r in
                out.read_text().strip().split("\n")[1:]}
        assert float(rows["activations"][2]) >= 0.85

    def test_depth_sweep_reversible_constant_stored_growing(self, tmp_path, toy_spec_file):
        acts = {}
        for mode in ("reversible", "stored"):
            out = tmp_path / f"sweep-{mode}.csv"
            assert run(["memreport", "--spec", toy_spec_file, "--mode", mode,
                        "--sweep-depths", "4,8,16,32", "--out", str(out)]) == 0
            rows = out.read_text().strip().split("\n")[1:]
            acts[mode] = [int(r.split(",")[2]) for r in rows]
        assert len(set(acts["reversible"])) == 1
        assert acts["stored"] == sorted(acts["stored"]) and len(set(acts["stored"])) == 4

    def test_requires_net_or_spec(self):
        assert run(["memreport"]) == 2

    @pytest.mark.parametrize("stages, cause", [
        ('{"op": "conv", "c": 8, "k": 2}', "stage 0 (conv): k must be odd"),
        ('{"op": "conv", "c": 8}, {"op": "rev_ds", "r": 1, "c_out": 8}',
         "stage 1 (revds): r must be an integer >= 2"),
    ], ids=["even-kernel", "ratio-one"])
    def test_spec_that_cannot_run_exits_2(self, tmp_path, capsys, stages, cause):
        # the plan refuses what a training step would refuse
        path = tmp_path / "spec.json"
        path.write_text(f'{{"name": "x", "stages": [{stages}]}}')
        assert run(["memreport", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert cause in captured.err and captured.out == ""

    @pytest.mark.parametrize("option", ["--steps", "--seed"])
    def test_training_only_options_rejected(self, option):
        # the ledger reads no weights, so a seed or step count changes nothing
        with pytest.raises(SystemExit) as info:
            run(["memreport", "--net", "ResNet34", option, "1"])
        assert info.value.code == 2

    @pytest.mark.parametrize("mode, activations", [("stored", 17_086_382_080),
                                                   ("reversible", 372_736_000)])
    def test_df_revnet89_bytes_pinned(self, tmp_path, mode, activations):
        # the paper's net at its training shape, with 8-bit Adam
        out = tmp_path / "mem.csv"
        assert run(["memreport", "--net", "DF-RevNet89", "--batch", "64", "--frames", "200",
                    "--optim", "adam8", "--mode", mode, "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
        assert {r[0]: int(r[1]) for r in rows} == {
            "activations": activations,
            "weights": 17_964_160,
            "gradients": 17_964_160,
            "optimizer_states": 9_000_304,
            "workspace": 76_992,
        }


class TestSizeBoundaries:
    @pytest.mark.parametrize("argv, option", [
        (["memreport", "--net", "ResNet34", "--batch", "-3", "--frames", "200"], "--batch"),
        (["memreport", "--net", "ResNet34", "--frames", "-4"], "--frames"),
        (["memreport", "--net", "ResNet34", "--frames", "0"], "--frames"),
        (["train", "--batch", "0", "--steps", "1"], "--batch"),
        (["train", "--batch", "-2", "--steps", "1"], "--batch"),
        (["train", "--classes", "0", "--steps", "1"], "--classes"),
        (["quantbench", "--elements", "-5"], "--elements"),
        (["quantbench", "--blocks", "0"], "--blocks"),
        (["quantbench", "--blocks=-5"], "--blocks"),
        (["quantbench", "--blocks", "64,0"], "--blocks"),
        (["quantbench", "--blocks", ","], "--blocks"),
        (["train", "--optim", "adam8", "--block", "0", "--steps", "1"], "--block"),
        (["train", "--optim", "adam", "--block", "0", "--steps", "1"], "--block"),
    ], ids=["memreport-batch-neg", "memreport-frames-neg", "memreport-frames-zero",
            "train-batch-zero", "train-batch-neg", "train-classes-zero",
            "quantbench-elements-neg", "quantbench-blocks-zero", "quantbench-blocks-neg",
            "quantbench-blocks-list-zero", "quantbench-blocks-empty", "train-block-zero-adam8", "train-block-zero-adam"])
    def test_size_below_one_exits_2_naming_option(self, capsys, argv, option):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {option}: must be at least 1" in captured.err
        assert captured.out == ""

    def test_negative_steps_exits_2_naming_option(self, tmp_path, capsys):
        out = tmp_path / "train.csv"
        with pytest.raises(SystemExit) as info:
            run(["train", "--steps", "-1", "--out", str(out)])
        assert info.value.code == 2
        assert "argument --steps: must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("depths, message", [
        ("-1", "argument --sweep-depths: must be at least 0, got -1"),
        ("2,a", "argument --sweep-depths: invalid int value: 'a'"),
    ], ids=["negative", "non-integer"])
    def test_bad_sweep_depths_exit_2_naming_option(self, capsys, depths, message):
        with pytest.raises(SystemExit) as info:
            run(["memreport", "--net", "ResNet34", f"--sweep-depths={depths}"])
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    def test_non_integer_size_keeps_argparse_message(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["train", "--batch", "x"])
        assert info.value.code == 2
        assert "argument --batch: invalid int value: 'x'" in capsys.readouterr().err


class TestQuantbenchCommand:
    def test_report_and_full_agreement(self, tmp_path):
        out = tmp_path / "quant.csv"
        assert run(["quantbench", "--elements", "20000", "--blocks", "64,2048",
                    "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")
        header = rows[0].split(",")
        agree_col = header.index("agreement")
        ratio_col = header.index("bytes_ratio")
        for row in rows[1:]:
            cells = row.split(",")
            assert float(cells[agree_col]) == 1.0
        by_block = [r.split(",") for r in rows[1:] if r.split(",")[1] == "2048"]
        assert all(float(c[ratio_col]) <= 0.2505 for c in by_block)

    def test_sparse_rows_present(self, tmp_path):
        out = tmp_path / "quant.csv"
        assert run(["quantbench", "--elements", "5000", "--out", str(out)]) == 0
        assert "sparse" in out.read_text()


class TestEerCommand:
    def test_from_score_file(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("target 0.9\ntarget 0.8\ntarget 0.7\n"
                          "nontarget 0.75\nnontarget 0.3\nnontarget 0.1\n")
        assert run(["eer", "--scores", str(scores)]) == 0
        printed = capsys.readouterr().out
        assert abs(float(printed.split()[1]) - 1 / 3) <= 1e-9

    def test_from_embeddings(self, tmp_path, capsys):
        emb = tmp_path / "emb.csv"
        rows = []
        rng = np.random.default_rng(0)
        for label, axis in ((0, 0), (0, 0), (1, 1), (1, 1)):
            v = 0.01 * rng.normal(size=4)
            v[axis] += 1.0
            rows.append(str(label) + "," + ",".join(f"{x:.6f}" for x in v))
        emb.write_text("\n".join(rows) + "\n")
        assert run(["eer", "--emb", str(emb)]) == 0
        assert float(capsys.readouterr().out.split()[1]) == 0.0

    def test_requires_exactly_one_source(self, tmp_path):
        assert run(["eer"]) == 2

    def test_missing_negatives_is_config_error(self, tmp_path):
        scores = tmp_path / "scores.txt"
        scores.write_text("target 0.9\n")
        assert run(["eer", "--scores", str(scores)]) == 2

    @pytest.mark.parametrize("source, content, line", [
        ("--scores", None, None),
        ("--scores", "target 0.9\n\nnontarget abc\n", 3),
        ("--scores", "target 0.9\nnontarget nan\n", 2),
        ("--emb", "0,1.0,0.0\nx,0.0,1.0\n", 2),
        ("--emb", "0,1.0,0.0\n1,0.0,1.0,0.5\n", 2),
        ("--emb", "0,1.0,0.0\n1,nan,1.0\n", 2),
        ("--emb", "0,1.0,0.0\n0,1.0,0.1\n1,0.0,0.0\n", 3),
    ], ids=["missing-file", "bad-score", "nan-score", "bad-label", "ragged-row",
            "nan-value", "zero-embedding"])
    def test_bad_input_exits_2_naming_line(self, tmp_path, capsys, source, content, line):
        path = tmp_path / "input.txt"
        if content is not None:
            path.write_text(content)
        assert run(["eer", source, str(path)]) == 2
        captured = capsys.readouterr()
        where = str(path) if line is None else f"{path}:{line}:"
        assert captured.err.startswith("configuration error:") and where in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
