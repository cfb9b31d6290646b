import csv
import json
import os

import numpy as np
import pytest

from hegcn.adjacency import AdjacencySet
from hegcn.cli import EXIT_CONFIG, EXIT_DEPTH, EXIT_OK, EXIT_PARAMS, main
from hegcn.engine import plaintext_reference
from hegcn.model import FullyConnected, GlobalAvgPool, ModelSpec, acceptance_stgcn3, random_stgcn
from hegcn.packing import GraphTensor


@pytest.fixture()
def model_path(tmp_path):
    adj = AdjacencySet.from_edges(4, [[(0, 1), (1, 2), (2, 3)]])
    spec = random_stgcn(
        (1, 2, 8, 4), widths=[2, 4], adjacency=adj, classes=3, kernel=3, stride2_at=1, seed=23
    )
    path = tmp_path / "model.json"
    spec.to_json_file(path)
    return str(path)


class TestInfer:
    def test_seeded_run_is_deterministic(self, model_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = main(["infer", "--model", model_path, "--seed", "5", "--format", "ama",
                       "--out", str(out)])
            assert rc == EXIT_OK
        s1 = (out1 / "scores.json").read_text()
        s2 = (out2 / "scores.json").read_text()
        assert s1 == s2
        assert (out1 / "hoc.csv").read_text() == (out2 / "hoc.csv").read_text()

    def test_both_formats_emit_equivalence_report(self, model_path, tmp_path):
        out = tmp_path / "both"
        rc = main(["infer", "--model", model_path, "--seed", "1", "--format", "both",
                   "--out", str(out)])
        assert rc == EXIT_OK
        eq = json.loads((out / "equivalence.json").read_text())
        assert eq["max_abs_score_diff"] <= 1e-9
        levels = json.loads((out / "levels.json").read_text())
        assert set(levels) == {"ama", "rowmajor"}

    def test_hoc_csv_schema(self, model_path, tmp_path):
        out = tmp_path / "csv"
        main(["infer", "--model", model_path, "--seed", "2", "--format", "ama", "--out", str(out)])
        with open(out / "hoc.csv") as fp:
            rows = list(csv.DictReader(fp))
        assert set(rows[0]) == {"layer", "op", "format", "count"}
        assert any(int(r["count"]) > 0 for r in rows)

    def test_input_file(self, model_path, tmp_path):
        x = GraphTensor.random((1, 2, 8, 4), seed=3)
        tensor = tmp_path / "x.tensor"
        x.save(tensor)
        rc = main(["infer", "--model", model_path, "--input", str(tensor), "--format", "ama",
                   "--out", str(tmp_path / "run")])
        assert rc == EXIT_OK

    @pytest.mark.parametrize(
        "content, message",
        [
            (np.random.default_rng(0).bytes(256), "could not read input tensor"),
            (b'{"dtype": "f64", "order": "bctj"}\n', "'dims'"),
            (b'{"dtype": "f64", "order": "bctj", "dims": [1, 2, 8, 4]}\n', "tensor payload is 0 bytes, expected 512"),
        ],
        ids=["random-bytes", "header-without-dims", "short-payload"],
    )
    def test_unreadable_input_exits_2(self, model_path, tmp_path, capsys, content, message):
        """A tensor file that cannot be read is refused as an unreadable
        model is, before any run."""
        tensor = tmp_path / "x.tensor"
        tensor.write_bytes(content)
        out = tmp_path / "run"
        rc = main(["infer", "--model", model_path, "--input", str(tensor), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_model_exits_2(self, tmp_path):
        rc = main(["infer", "--model", str(tmp_path / "nope.json"), "--seed", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_input_and_seed_conflict_exits_2(self, model_path, tmp_path):
        rc = main(["infer", "--model", model_path, "--seed", "1", "--input", "x",
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_negative_seed_exits_2(self, model_path, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["infer", "--model", model_path, "--seed", "-1", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_depth_budget_violation_exits_3(self, model_path, tmp_path, monkeypatch):
        import hegcn.cli as cli
        import hegcn.engine as eng

        real_run = eng.run_model

        def tight_ctx_run(spec, x, fmt, **kw):
            from hegcn.hesim import SimContext

            ctx = SimContext(64, max_level=2)
            return real_run(spec, x, fmt, ctx=ctx)

        monkeypatch.setattr(cli.engine, "run_model", tight_ctx_run)
        rc = main(["infer", "--model", model_path, "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == EXIT_DEPTH

    def test_quantize_stays_close_to_oracle_with_unchanged_counts(self, tmp_path):
        """``--quantize`` rounds to the 2^-33 grid in both packings: scores move
        off the unquantized ones but stay within 1e-4 of the oracle, and every
        count is the same."""
        spec = acceptance_stgcn3()
        path = tmp_path / "acceptance.json"
        spec.to_json_file(path)
        want = plaintext_reference(spec, GraphTensor.random(spec.input_dims, seed=5))
        outs = {}
        for flags in ([], ["--quantize"]):
            out = tmp_path / ("quantized" if flags else "exact")
            rc = main(["infer", "--model", str(path), "--seed", "5", "--format", "both",
                       "--slot-count", "1024", "--out", str(out), *flags])
            assert rc == EXIT_OK
            outs[bool(flags)] = out
        exact, quantized = (json.loads((outs[q] / "scores.json").read_text()) for q in (False, True))
        for fmt in ("ama", "rowmajor"):
            assert np.max(np.abs(np.array(quantized[fmt]) - want)) <= 1e-4
            assert quantized[fmt] != exact[fmt]
        assert (outs[True] / "hoc.csv").read_text() == (outs[False] / "hoc.csv").read_text()


    @pytest.mark.parametrize("slot_count, message", [(1000, "is not a power of two"), (16, "does not fit the ama packing")])
    def test_unusable_slot_count_exits_2(self, tmp_path, capsys, slot_count, message):
        """The acceptance model, (1, 8, 32, 25): 1000 slots are no power of
        two, and 16 hold no AMA channel block of 32 frames; both are refused
        before any run."""
        path = tmp_path / "acceptance.json"
        acceptance_stgcn3().to_json_file(path)
        out = tmp_path / "o"
        rc = main(["infer", "--model", str(path), "--seed", "1", "--format", "both",
                   "--slot-count", str(slot_count), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestHeadless:
    """A model without a classifier: ``infer`` and ``compare`` need one and
    exit 2 before any work; ``hoc`` counts its layers."""

    @pytest.fixture()
    def headless_path(self, model_path, tmp_path):
        spec = ModelSpec.from_json_file(model_path)
        path = tmp_path / "headless.json"
        ModelSpec(spec.input_dims, spec.layers[:-1], name="headless").to_json_file(path)
        return str(path)

    @pytest.mark.parametrize("command", [["infer", "--seed", "1"], ["compare"]])
    def test_exits_2(self, headless_path, tmp_path, capsys, command):
        out = tmp_path / "o"
        rc = main([command[0], "--model", headless_path, *command[1:], "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "no fully-connected head" in capsys.readouterr().err
        assert not out.exists()

    def test_hoc_counts_every_layer(self, headless_path, capsys):
        assert main(["hoc", "--model", headless_path, "--format", "ama"]) == EXIT_OK
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert rows[-1]["layer"].endswith("-global_avg_pool")


class TestPoolingFrames:
    """The acceptance layers on 24 frames: after the stride 2, pooling sees
    12 valid frames, which its halving tree cannot fold.  ``infer``,
    ``compare`` and ``hoc`` exit 2 before any work and name the layer."""

    @pytest.fixture()
    def frames24_path(self, tmp_path):
        spec = acceptance_stgcn3()
        path = tmp_path / "frames24.json"
        ModelSpec((1, 8, 24, 25), spec.layers, name="frames24").to_json_file(path)
        return str(path)

    @pytest.mark.parametrize("command", [["infer", "--seed", "1", "--format", "both"], ["compare"], ["hoc"]])
    def test_exits_2_naming_the_layer(self, frames24_path, tmp_path, capsys, command):
        out = tmp_path / "o"
        rc = main([command[0], "--model", frames24_path, *command[1:], "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert "12-global_avg_pool" in captured.err and "got 12" in captured.err
        assert not captured.out and not out.exists()


class TestParams:
    def test_reference_levels(self, capsys):
        assert main(["params", "--levels", "21"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert (doc["poly_degree"], doc["modulus_bits"]) == (2**15, 740)
        assert main(["params", "--levels", "19"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert (doc["poly_degree"], doc["modulus_bits"]) == (2**14, 680)

    def test_impossible_exits_4(self):
        assert main(["params", "--levels", "1000"]) == EXIT_PARAMS

    @pytest.mark.parametrize("levels", ["0", "-3"])
    def test_levels_below_one_exit_2(self, capsys, levels):
        assert main(["params", "--levels", levels]) == EXIT_CONFIG
        assert "--levels must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("scale_bits", ["0", "-5"])
    def test_scale_bits_below_one_exit_2(self, capsys, scale_bits):
        assert main(["params", "--levels", "3", "--scale-bits", scale_bits]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "--scale-bits must be at least 1" in captured.err and captured.out == ""


class TestPrune:
    def stub(self, tmp_path):
        table = {
            "drop_one": {str(i): 0.70 + 0.01 * i for i in range(4)},
            "pruned_sets": {"": 0.7425, "3": 0.7312, "2,3": 0.7021},
        }
        path = tmp_path / "stub.json"
        path.write_text(json.dumps(table))
        return str(path)

    def test_search_runs_and_reports(self, model_path, tmp_path, capsys):
        rc = main(["prune", "--model", model_path, "--stub", self.stub(tmp_path),
                   "--max-prune", "2", "--out", str(tmp_path / "p")])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "p" / "prune.json").read_text())
        assert len(doc["results"]) == 3
        assert doc["results"][0]["levels"] - doc["results"][1]["levels"] == 2

    def test_baseline_only(self, model_path, tmp_path):
        rc = main(["prune", "--model", model_path, "--stub", self.stub(tmp_path),
                   "--max-prune", "0"])
        assert rc == EXIT_OK

    def test_bad_stub_exits_2(self, model_path, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["prune", "--model", model_path, "--stub", str(bad)]) == EXIT_CONFIG

    def test_missing_variant_exits_2(self, model_path, tmp_path):
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps({"drop_one": {"0": 0.7}, "pruned_sets": {}}))
        rc = main(["prune", "--model", model_path, "--stub", str(path), "--max-prune", "1"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("past", [-1, 1], ids=["negative", "past-the-activations"])
    def test_max_prune_out_of_range_exits_2(self, model_path, tmp_path, capsys, past):
        """``--max-prune`` lies in 0..(the model's activations); outside
        it the search is refused before it evaluates anything."""
        activations = len(ModelSpec.from_json_file(model_path).activation_indices())
        max_prune = -1 if past < 0 else activations + 1
        out = tmp_path / "p"
        rc = main(["prune", "--model", model_path, "--stub", self.stub(tmp_path),
                   "--max-prune", str(max_prune), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert f"--max-prune must lie in 0..{activations}" in capsys.readouterr().err
        assert not out.exists()


class TestCompareAndHoc:
    def test_compare_emits_reductions_and_sweep(self, model_path, tmp_path):
        out = tmp_path / "cmp"
        rc = main(["compare", "--model", model_path, "--batch", "1,2,4", "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads((out / "compare.json").read_text())
        # toy dims do not favor AMA; only the table structure is checked here
        assert set(doc["total_hoc"]) == {"ama", "rowmajor", "chet_analytic", "fast_hear_analytic"}
        assert "vs_chet" in doc["reduction_pct"]
        sweep = doc["amortized_per_sample"]["rowmajor"]
        totals = [row["total"] for row in sweep]
        assert max(totals) == min(totals)
        with open(out / "amortized.csv") as fp:
            rows = list(csv.DictReader(fp))
        assert {r["format"] for r in rows} == {"ama", "rowmajor"}

    @pytest.mark.parametrize("batch", ["x", "0", "-2", "1,,2", "2,0"])
    def test_batch_must_be_positive_integers(self, model_path, tmp_path, capsys, batch):
        """``--batch`` is a comma list of positive integers, checked before
        any count."""
        out = tmp_path / "cmp"
        rc = main(["compare", "--model", model_path, "--batch", batch, "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "--batch must be a comma list of positive integers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("batch, rc", [("1,32", EXIT_OK), ("1,33", EXIT_CONFIG), ("1000", EXIT_CONFIG)])
    def test_batch_must_fit_the_slot_count(self, tmp_path, capsys, batch, rc):
        """The acceptance model at slot 1024 (T = 32): the AMA channel block
        of a batch of 32 fills the slots, and a larger batch's does not fit;
        the command exits 2 before it makes its output directory."""
        path = tmp_path / "acceptance.json"
        acceptance_stgcn3().to_json_file(path)
        out = tmp_path / "o"
        assert main(["compare", "--model", str(path), "--slot-count", "1024", "--batch", batch, "--out", str(out)]) == rc
        if rc == EXIT_CONFIG:
            assert f"--batch {batch.split(',')[-1]} does not fit the ama packing" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert [row["batch"] for row in json.loads((out / "compare.json").read_text())["amortized_per_sample"]["ama"]] == [1, 32]

    def test_identical_formats_reduce_zero_percent(self, model_path, tmp_path):
        out = tmp_path / "same"
        main(["compare", "--model", model_path, "--out", str(out)])
        doc = json.loads((out / "compare.json").read_text())
        ama = doc["total_hoc"]["ama"]
        assert 100.0 * (1 - ama / ama) == 0.0

    def test_compare_without_spatial_conv_exits_2(self, tmp_path, capsys):
        """A valid model of a pool and a head on the input has no adjacency
        for the framework rows."""
        w = np.random.default_rng(0).normal(size=(2, 5))
        path = tmp_path / "pool-head.json"
        ModelSpec((1, 2, 4, 3), [GlobalAvgPool(), FullyConnected(2, 5, w)], name="pool-head").to_json_file(path)
        rc = main(["compare", "--model", str(path), "--out", str(tmp_path / "cmp")])
        assert rc == EXIT_CONFIG
        assert "no spatial conv" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["hoc", "compare"])
    @pytest.mark.parametrize("slot_count, message", [(1000, "is not a power of two"), (16, "does not fit the ama packing")])
    def test_unusable_slot_count_exits_2(self, tmp_path, capsys, command, slot_count, message):
        """The acceptance model: ``hoc`` and ``compare`` refuse the slot
        counts ``infer`` refuses, before they count anything."""
        path = tmp_path / "acceptance.json"
        acceptance_stgcn3().to_json_file(path)
        out = tmp_path / "o"
        rc = main([command, "--model", str(path), "--slot-count", str(slot_count), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_hoc_csv(self, model_path, tmp_path, capsys):
        rc = main(["hoc", "--model", model_path, "--format", "both"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "layer,op,format,count"
        assert len(lines) > 10


@pytest.mark.parametrize("command", ["infer", "compare", "hoc", "prune"])
def test_out_naming_a_file_exits_2(model_path, tmp_path, capsys, monkeypatch, command):
    """``--out`` that names an existing file is refused with exit 2 before
    any inference, count or search runs, and the file is left as it was."""
    from hegcn import cli

    def refused(*args, **kwargs):
        raise AssertionError("work ran before --out was checked")

    monkeypatch.setattr(cli.engine, "run_model", refused)
    monkeypatch.setattr(cli.costmodel, "analytic_layer_counts", refused)
    monkeypatch.setattr(cli.prune, "search", refused)
    out = tmp_path / "taken"
    out.write_text("keep")
    args = {
        "infer": ["--seed", "1"],
        "compare": ["--batch", "1,2"],
        "hoc": [],
        "prune": ["--stub", TestPrune().stub(tmp_path), "--max-prune", "1"],
    }[command]
    assert main([command, "--model", model_path, *args, "--out", str(out)]) == EXIT_CONFIG
    assert f"--out {out} is not a directory" in capsys.readouterr().err
    assert out.read_text() == "keep"


@pytest.mark.parametrize("command", ["infer", "compare", "hoc"])
@pytest.mark.parametrize("size, message", [("B=0", "input_dims"), ("B=-1", "input_dims"), ("c_out=0", "spatial_conv c_out"), ("classes=0", "fully_connected classes")])
def test_sizes_below_one_exit_2(tmp_path, capsys, command, size, message):
    """The acceptance model as a seeded document with a batch of 0 or -1,
    its last spatial conv 0 wide (the layers after it made to fit), or a
    head of 0 classes: each command exits 2 naming the field."""
    acceptance_stgcn3().to_json_file(tmp_path / "acceptance.json")
    doc = json.loads((tmp_path / "acceptance.json").read_text())
    del doc["weights"], doc["manifest"]
    doc["seed"] = 5
    layers = doc["layers"]
    if size.startswith("B="):
        doc["input"]["B"] = int(size[2:])
    elif size == "c_out=0":
        layers[8]["c_out"] = layers[10]["channels"] = layers[13]["c_in"] = 0
    else:
        layers[13]["classes"] = 0
    path = tmp_path / "sized.json"
    path.write_text(json.dumps(doc))
    args = ["--seed", "1"] if command == "infer" else []
    assert main([command, "--model", str(path), *args, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"{message} must" in capsys.readouterr().err
