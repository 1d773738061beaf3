"""CLI contracts: layout, ordering, exit codes, determinism, reproducibility."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cdpam
from cdpam.cli import DEFAULT_RUN_CONFIG, main, resolve_config
from cdpam.model import PerceptualModel, tiny_config
from cdpam.perturb import DEFAULT_FAMILIES


def tiny_run_config(tmp_path, out_name="run", **data_overrides):
    data = {
        "n_utterances": 16,
        "n_eval_utterances": 10,
        "n_speakers": 2,
        "n_jnd_pairs": 12,
        "n_triplets": 8,
        "families": ["noise"],
        "eval": {
            "n_triplets": 8,
            "triplet_gap": 0.2,
            "mono_levels": 3,
            "mono_contents": 2,
            "common_area_pairs": 8,
            "retrieval_groups": 3,
            "retrieval_group_size": 6,
            "mos_conditions": 3,
            "mos_clips_per_cell": 2,
            "k": 3,
        },
    }
    data.update(data_overrides)
    cfg = {
        "seed": 11,
        "out": str(tmp_path / out_name),
        "model": tiny_config().to_dict(),
        "data": data,
        "train": {
            "batch_size": 4,
            "epochs": {"pretrain": 2, "jnd": 2, "finetune": 2},
            "lr": {"pretrain": 1e-3, "jnd": 1e-3, "finetune": 1e-3},
            "tau": 0.5,
            "margin": 0.1,
            "augment": {"pretrain": False, "jnd": True, "finetune": True},
            "batches_per_mode": 1,
        },
    }
    path = tmp_path / f"{out_name.replace(os.sep, '_')}_config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    config_path, cfg = tiny_run_config(tmp_path)
    for command in ("synth-data", "pretrain", "train-jnd", "finetune", "eval"):
        code = main([command, "--config", str(config_path), "--quiet"]
                    if command in ("pretrain", "train-jnd", "finetune")
                    else [command, "--config", str(config_path)])
        assert code == 0, command
    return tmp_path, config_path, cfg


class TestSynthLayout:
    def test_directory_tree(self, pipeline_run):
        _, _, cfg = pipeline_run
        out = cfg["out"]
        assert os.path.isdir(os.path.join(out, "corpus"))
        assert os.path.isfile(os.path.join(out, "jnd.jsonl"))
        assert os.path.isfile(os.path.join(out, "triplets.jsonl"))
        assert os.path.isdir(os.path.join(out, "eval"))
        assert os.path.isfile(os.path.join(out, "eval", "triplets.jsonl"))

    def test_writes_no_perturbed_clips(self, pipeline_run):
        # a perturbed clip exists only as the spec its record holds
        _, _, cfg = pipeline_run
        for root, dirs, files in os.walk(cfg["out"]):
            assert not [d for d in dirs if d.endswith("_clips")], root
            for name in files:
                if name.endswith(".jsonl"):
                    with open(os.path.join(root, name)) as fh:
                        assert all("paths" not in json.loads(line) for line in fh), name

    def test_missing_output_dir_is_created(self, tmp_path):
        config_path, cfg = tiny_run_config(tmp_path, out_name="nested/deeper/run")
        assert main(["synth-data", "--config", str(config_path)]) == 0
        assert os.path.isdir(cfg["out"])


class TestStageOrdering:
    def test_finetune_before_jnd_fails(self, tmp_path, capsys):
        config_path, cfg = tiny_run_config(tmp_path, out_name="order")
        assert main(["synth-data", "--config", str(config_path)]) == 0
        assert main(["pretrain", "--config", str(config_path), "--quiet"]) == 0
        code = main(["finetune", "--config", str(config_path), "--quiet"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_stage_tagged_checkpoints(self, pipeline_run):
        from cdpam.model import load_checkpoint
        _, _, cfg = pipeline_run
        out = cfg["out"]
        assert load_checkpoint(os.path.join(out, "pretrained.ckpt")).stage == "pretrained"
        assert load_checkpoint(os.path.join(out, "jnd.ckpt")).stage == "jnd"
        assert load_checkpoint(os.path.join(out, "finetuned.ckpt")).stage == "finetuned"

    def test_divergence_exits_2_naming_stage_and_epoch(self, pipeline_run, tmp_path, capsys,
                                                       monkeypatch):
        from cdpam import losses, tensor as T
        _, config_path, cfg = pipeline_run
        out = str(tmp_path / "diverged")
        shutil.copytree(cfg["out"], out)
        real = losses.bce
        monkeypatch.setattr(losses, "bce",
                            lambda *a, **kw: T.mul(real(*a, **kw), T.Tensor(np.nan)))
        code = main(["train-jnd", "--config", str(config_path), "--out", out, "--quiet"])
        assert code == 2
        assert "jnd stage diverged at epoch 0" in capsys.readouterr().err

    def test_loss_logs_written(self, pipeline_run):
        _, _, cfg = pipeline_run
        out = cfg["out"]
        for name in ("pretrain_log.csv", "jnd_log.csv", "finetune_log.csv"):
            with open(os.path.join(out, name)) as fh:
                header = fh.readline().strip()
            assert header == "epoch,stage,loss,wall_ms"


class TestDistanceCommand:
    def test_identical_files_print_zero(self, pipeline_run, capsys):
        _, _, cfg = pipeline_run
        out = cfg["out"]
        wav = os.path.join(out, "corpus", "utt0000.wav")
        ckpt = os.path.join(out, "finetuned.ckpt")
        assert main(["distance", ckpt, wav, wav]) == 0
        assert capsys.readouterr().out.strip() == "0.000000"

    def test_output_parses_as_float(self, pipeline_run, capsys):
        _, _, cfg = pipeline_run
        out = cfg["out"]
        ckpt = os.path.join(out, "finetuned.ckpt")
        a = os.path.join(out, "corpus", "utt0000.wav")
        b = os.path.join(out, "corpus", "utt0001.wav")
        assert main(["distance", ckpt, a, b]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value >= 0.0

    def test_json_mode(self, pipeline_run, capsys):
        _, _, cfg = pipeline_run
        out = cfg["out"]
        ckpt = os.path.join(out, "finetuned.ckpt")
        wav = os.path.join(out, "corpus", "utt0000.wav")
        assert main(["distance", ckpt, wav, wav, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["distance"] == 0.0

    def test_missing_file_exits_2(self, pipeline_run, capsys):
        _, _, cfg = pipeline_run
        ckpt = os.path.join(cfg["out"], "finetuned.ckpt")
        code = main(["distance", ckpt, "/nonexistent/a.wav", "/nonexistent/b.wav"])
        assert code == 2
        assert capsys.readouterr().err != ""

    def test_checkpoint_missing_tensor_exits_2(self, pipeline_run, tmp_path, capsys,
                                                rewrite_checkpoint):
        _, _, cfg = pipeline_run
        out = cfg["out"]
        bad = tmp_path / "missing.ckpt"
        bad.write_bytes(Path(out, "finetuned.ckpt").read_bytes())
        rewrite_checkpoint(bad, lambda t: t.pop("enc.bn4.running_var"))
        wav = os.path.join(out, "corpus", "utt0000.wav")
        assert main(["distance", str(bad), wav, wav]) == 2
        assert "'enc.bn4.running_var'" in capsys.readouterr().err


class TestEvalCommand:
    def test_reports_contain_all_metrics(self, pipeline_run):
        _, _, cfg = pipeline_run
        with open(os.path.join(cfg["out"], "reports.json")) as fh:
            reports = json.load(fh)
        assert set(reports) == {"two_afc", "common_area", "monotonicity", "precision_at_k",
                                "mos_correlation"}
        assert os.path.isfile(os.path.join(cfg["out"], "reports.csv"))
        assert os.path.isfile(os.path.join(cfg["out"], "common_area_hist.svg"))

    def test_rerun_identical_reports(self, pipeline_run):
        tmp_path, config_path, cfg = pipeline_run
        report_path = os.path.join(cfg["out"], "reports.json")
        first = Path(report_path).read_bytes()
        assert main(["eval", "--config", str(config_path)]) == 0
        assert Path(report_path).read_bytes() == first

    def test_metrics_filter(self, pipeline_run, capsys):
        _, config_path, cfg = pipeline_run
        assert main(["eval", "--config", str(config_path), "--metrics", "two_afc",
                     "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out) == ["two_afc"]

    def test_repeated_metric_exits_2_before_embedding(self, pipeline_run, monkeypatch, capsys):
        _, config_path, _ = pipeline_run
        calls = []
        monkeypatch.setattr(PerceptualModel, "embed_waves", lambda self, waves: calls.append(1))
        assert main(["eval", "--config", str(config_path), "--metrics", "two_afc,two_afc"]) == 2
        assert "error: metric 'two_afc' is requested twice" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_exits_2(self, pipeline_run, tmp_path, capsys, k):
        _, _, cfg = pipeline_run
        config_path, _ = tiny_run_config(tmp_path, eval={**cfg["data"]["eval"], "k": k})
        assert main(["eval", "--config", str(config_path), "--out", cfg["out"],
                     "--metrics", "precision_at_k"]) == 2
        assert f"error: k must be >= 1, got {k}" in capsys.readouterr().err


class TestEmptyEvalSets:
    @pytest.mark.parametrize("filename,metric,dataset", [
        ("triplets.jsonl", "two_afc", "two-AFC"),
        ("common_area.jsonl", "common_area", "common-area"),
        ("mono.jsonl", "monotonicity", "monotonicity"),
        ("retrieval.jsonl", "precision_at_k", "retrieval"),
        ("mos.jsonl", "mos_correlation", "MOS"),
    ])
    def test_exits_2_naming_the_dataset(self, pipeline_run, tmp_path, capsys, filename, metric,
                                        dataset):
        _, config_path, cfg = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(cfg["out"], run)
        (run / "eval" / filename).write_text("")
        code = main(["eval", "--config", str(config_path), "--out", str(run),
                     "--metrics", metric])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and dataset in err and "empty" in err


def json_line(capsys) -> dict:
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


class TestJsonOutput:
    def test_each_stage_prints_one_json_line(self, tmp_path, capsys):
        config_path, cfg = tiny_run_config(tmp_path, out_name="json")
        out = cfg["out"]
        assert main(["synth-data", "--config", str(config_path), "--json"]) == 0
        synth = json_line(capsys)
        assert synth["out"] == out and synth["corpus"] == cfg["data"]["n_utterances"]
        assert synth["eval"]["triplets"] == cfg["data"]["eval"]["n_triplets"]
        for command, stage, checkpoint in (("pretrain", "pretrain", "pretrained.ckpt"),
                                           ("train-jnd", "jnd", "jnd.ckpt"),
                                           ("finetune", "finetune", "finetuned.ckpt")):
            assert main([command, "--config", str(config_path), "--json"]) == 0
            outputs = json_line(capsys)
            assert outputs["checkpoint"] == os.path.join(out, checkpoint)
            assert os.path.isfile(outputs["log"])
            assert outputs["epochs"] == cfg["train"]["epochs"][stage]
            assert np.isfinite(outputs["final_loss"])

    def test_pipeline_prints_one_json_line(self, pipeline_run, tmp_path, capsys):
        _, config_path, cfg = pipeline_run
        out = str(tmp_path / "pipe")
        assert main(["pipeline", "--config", str(config_path), "--out", out, "--json"]) == 0
        outputs = json_line(capsys)
        assert list(outputs) == sorted(["synth-data", "pretrain", "train-jnd", "finetune",
                                        "eval"])
        assert outputs["finetune"]["checkpoint"] == os.path.join(out, "finetuned.ckpt")
        with open(os.path.join(out, "reports.json")) as fh:
            reports = json.load(fh)
        assert outputs["eval"] == {metric: r["value"] for metric, r in reports.items()}
        # same config and seed as the module's step-by-step run
        assert (Path(cfg["out"], "finetuned.ckpt").read_bytes()
                == Path(out, "finetuned.ckpt").read_bytes())


class TestReproducibility:
    def test_same_seed_identical_manifests(self, tmp_path):
        path_a, cfg_a = tiny_run_config(tmp_path, out_name="rep_a")
        path_b, cfg_b = tiny_run_config(tmp_path, out_name="rep_b")
        assert main(["synth-data", "--config", str(path_a)]) == 0
        assert main(["synth-data", "--config", str(path_b)]) == 0
        for name in ("jnd.jsonl", "triplets.jsonl"):
            a = Path(cfg_a["out"], name).read_bytes()
            b = Path(cfg_b["out"], name).read_bytes()
            assert a == b

    def test_flag_overrides_win(self, tmp_path):
        config_path, _ = tiny_run_config(tmp_path, out_name="ov")
        cfg = resolve_config(str(config_path), seed=99, out=str(tmp_path / "other"),
                             epochs=7, stage="pretrain")
        assert cfg["seed"] == 99
        assert cfg["out"] == str(tmp_path / "other")
        assert cfg["train"]["epochs"]["pretrain"] == 7

    def test_run_manifest_echoes_config(self, pipeline_run):
        _, _, cfg = pipeline_run
        with open(os.path.join(cfg["out"], "synth_data_manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "synth_data"
        assert manifest["config"]["seed"] == cfg["seed"]
        assert manifest["config"]["data"]["n_utterances"] == cfg["data"]["n_utterances"]


class TestConfigBoundary:
    @pytest.mark.parametrize("override,named", [
        ({"train": {"batch_size": 0}}, "batch_size"),
        ({"data": 5}, "'data'"),
        ({"train": {"lr": "x"}}, "'train.lr'"),
        ({"train": {"augment": True}}, "'train.augment'"),
        ({"train": {"epochs": {"pretrain": "2"}}}, "epochs"),
        ([1, 2], "the config file must be a JSON object"),
        ({"trian": {}}, "unknown config key 'trian'"),
        ({"data": {"eval": {"n_triplet": 8}}}, "unknown config key 'data.eval.n_triplet'"),
        ({"model": "huge"}, "'model'"),
        ({"seed": "x"}, "config key 'seed' must be an integer"),
        ({"seed": True}, "config key 'seed' must be an integer"),
        ({"out": 5}, "config key 'out' must be a string"),
        ({"train": {"tau": "0.5"}}, "config key 'train.tau' must be a number"),
        ({"train": {"augment": {"jnd": 1}}}, "config key 'train.augment.jnd' must be true"),
        ({"train": {"batches_per_mode": 1.5}}, "'train.batches_per_mode' must be null or"),
        ({"data": {"families": "noise"}}, "config key 'data.families' must be a list"),
        ({"data": {"families": ["noise", 3]}}, "config key 'data.families' must be a list"),
        ({"model": {"foo": 1}}, "unknown config key 'model.foo'"),
        ({"model": {k: v for k, v in tiny_config().to_dict().items() if k != "sample_rate"}},
         "missing config key 'model.sample_rate'"),
        ({"model": {**tiny_config().to_dict(), "encoder": {"kernel": 3}}},
         "missing config key 'model.encoder.n_layers'"),
        ({"model": {**tiny_config().to_dict(),
                    "encoder": {**tiny_config().to_dict()["encoder"], "block_channels": []}}},
         "model.encoder.block_channels must be a non-empty tuple"),
        ({"model": {**tiny_config().to_dict(), "sample_rate": "1600"}},
         "model.sample_rate must be a positive integer"),
        ({"seed": -1}, "config key 'seed' must be a non-negative integer"),
        ({"data": {"jnd_threshold": float("nan")}},
         "config key 'data.jnd_threshold' must be a finite number, got nan"),
        ({"data": {"families": ["foo"]}}, "config key 'data.families' must be a list of one"),
        ({"data": {"families": []}}, "config key 'data.families' must be a list of one"),
        ({"data": {"jnd_sigma": -0.5}}, "config key 'data.jnd_sigma' must be >= 0, got -0.5"),
        ({"data": {"eval": {"triplet_gap": float("inf")}}},
         "config key 'data.eval.triplet_gap' must be a finite number, got inf"),
        ({"train": {"tau": float("nan")}}, "config key 'train.tau' must be a finite number"),
        ({"data": {"families": ["noise", "noise"]}},
         "config key 'data.families' must be a list of one or more distinct families"),
        ({"train": {"tau": 10 ** 400}}, "config key 'train.tau' must be a finite number"),
    ])
    def test_bad_config_exits_2_naming_the_key(self, tmp_path, capsys, override, named):
        # synth-data is the first command to write: a bad value must stop it before it does
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(override))
        assert main(["synth-data", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not (tmp_path / "run").exists()

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        assert main(["synth-data", "--seed", "-1", "--out", str(tmp_path / "run")]) == 2
        assert "'seed' must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_k_below_one_exits_2_before_writing(self, tmp_path, capsys):
        config_path, cfg = tiny_run_config(tmp_path)
        cfg["data"]["eval"]["k"] = 0
        config_path.write_text(json.dumps(cfg))
        assert main(["synth-data", "--config", str(config_path)]) == 2
        assert "k must be >= 1, got 0 (config key 'data.eval.k')" in capsys.readouterr().err
        assert not os.path.exists(cfg["out"])

    @pytest.mark.parametrize("key,value,named", [
        ("n_jnd_pairs", 0, "need at least one jnd pair"),
        ("n_triplets", 0, "need at least one triplet"),
        ("jnd_threshold", 1.5, "threshold must lie in (0, 1)"),
        ("eval.mono_levels", 2, "monotonicity needs >= 3 levels"),
        ("eval.retrieval_group_size", 64, "retrieval groups need group_size"),
        ("eval.triplet_gap", 1.0, "min_magnitude_gap must be in [0, 1)"),
    ], ids=["n_jnd_pairs", "n_triplets", "jnd_threshold", "mono_levels", "retrieval_group_size",
            "triplet_gap"])
    def test_synth_data_rejects_before_writing(self, tmp_path, capsys, key, value, named):
        config_path, cfg = tiny_run_config(tmp_path)
        section = cfg["data"]["eval"] if key.startswith("eval.") else cfg["data"]
        section[key.removeprefix("eval.")] = value
        config_path.write_text(json.dumps(cfg))
        assert main(["synth-data", "--config", str(config_path)]) == 2
        assert named in capsys.readouterr().err
        assert not os.path.exists(cfg["out"])

    @pytest.mark.parametrize("value", [-1, 0])
    def test_batches_per_mode_below_one_exits_2_without_a_checkpoint(self, pipeline_run,
                                                                     tmp_path, capsys, value):
        _, _, cfg = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(cfg["out"], run)
        (run / "pretrained.ckpt").unlink()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**cfg, "out": str(run),
                                    "train": {**cfg["train"], "batches_per_mode": value}}))
        assert main(["pretrain", "--config", str(path), "--quiet"]) == 2
        assert f"batches_per_mode must be an integer >= 1, got {value}" in capsys.readouterr().err
        assert not (run / "pretrained.ckpt").exists()

    @pytest.mark.parametrize("gap", [1.0, 1.5])
    def test_unreachable_triplet_gap_exits_2(self, tmp_path, gap):
        # a fresh process with a time limit: at a gap no triplet can reach, synth-data
        # would otherwise draw forever
        config_path, cfg = tiny_run_config(tmp_path)
        cfg["data"]["eval"]["triplet_gap"] = gap
        config_path.write_text(json.dumps(cfg))
        src = os.path.dirname(os.path.dirname(os.path.abspath(cdpam.__file__)))
        proc = subprocess.run([sys.executable, "-m", "cdpam.cli", "synth-data", "--config",
                               str(config_path)], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert f"min_magnitude_gap must be in [0, 1), got {gap}" in proc.stderr

    def test_leaf_types_accepted(self, tmp_path):
        path = tmp_path / "types.json"
        path.write_text(json.dumps({"train": {"tau": 1, "lr": {"jnd": 0.01},
                                              "batches_per_mode": None},
                                    "data": {"jnd_threshold": 0.2, "families": ["eq"]}}))
        cfg = resolve_config(str(path))
        assert cfg["train"]["tau"] == 1 and cfg["data"]["families"] == ["eq"]

    def test_default_families_match_perturb(self):
        # cli spells the pair out: it must not import numpy before capping the BLAS pool
        assert tuple(DEFAULT_RUN_CONFIG["data"]["families"]) == DEFAULT_FAMILIES

    @pytest.mark.parametrize("model", ["desk", "default", tiny_config().to_dict()])
    def test_model_preset_or_object_accepted(self, tmp_path, model):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"model": model}))
        assert resolve_config(str(path))["model"] == model


class TestEmptyRecordSets:
    @pytest.mark.parametrize("command,records,checkpoint,name", [
        ("train-jnd", "jnd.jsonl", "jnd.ckpt", "jnd"),
        ("finetune", "triplets.jsonl", "finetuned.ckpt", "triplet"),
    ])
    def test_exits_2_without_a_checkpoint(self, pipeline_run, tmp_path, capsys, command, records,
                                          checkpoint, name):
        _, config_path, cfg = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(cfg["out"], run)
        (run / records).write_text("")
        (run / checkpoint).unlink()
        assert main([command, "--config", str(config_path), "--out", str(run), "--quiet"]) == 2
        assert f"error: the {name} record set is empty" in capsys.readouterr().err
        assert not (run / checkpoint).exists()


def _drop(key):
    return lambda row: {k: v for k, v in row.items() if k != key}


def _set(key, value):
    return lambda row: {**row, key: value}


def _set_spec_seed(value):
    return lambda row: {**row, "spec": {**row["spec"], "seed": value}}


class TestMalformedRecords:
    @pytest.mark.parametrize("filename,edit,command,named", [
        ("jnd.jsonl", _drop("spec_a"), "train-jnd", "jnd.jsonl line 2: missing key 'spec_a'"),
        ("eval/mono.jsonl", _drop("utt_id"), "eval", "mono.jsonl line 2: missing key 'utt_id'"),
        ("corpus.jsonl", _drop("speaker_id"), "pretrain",
         "corpus.jsonl line 2: missing key 'speaker_id'"),
        ("triplets.jsonl", lambda row: [1, 2], "finetune",
         "triplets.jsonl line 2: expected a JSON object"),
        ("jnd.jsonl", _set("ref_id", "nope"), "train-jnd", "utterance 'nope' is not in the corpus"),
        ("eval/mono.jsonl", _set("utt_id", "nope"), "eval",
         "utterance 'nope' is not in the corpus"),
        ("eval/mono.jsonl", _set("level", "x"), "eval", "mono.jsonl line 2: key 'level'"),
        ("eval/mos.jsonl", _set("rating", "x"), "eval", "mos.jsonl line 2: key 'rating'"),
        ("eval/mos.jsonl", _set("rating", float("nan")), "eval", "mos.jsonl line 2: key 'rating'"),
        ("eval/retrieval.jsonl", _set("group_id", [1]), "eval",
         "retrieval.jsonl line 2: key 'group_id'"),
        ("eval/mono.jsonl", _set_spec_seed(-1), "eval",
         "mono.jsonl line 2: seed must be an integer >= 0, got -1"),
        ("eval/mono.jsonl", _set_spec_seed(float("inf")), "eval",
         "mono.jsonl line 2: seed must be an integer >= 0, got inf"),
        ("eval/mono.jsonl", _set_spec_seed(True), "eval",
         "mono.jsonl line 2: seed must be an integer >= 0, got True"),
    ], ids=["missing-spec_a", "missing-utt_id", "missing-speaker_id", "not-an-object",
            "unknown-ref_id", "unknown-utt_id", "string-level", "string-rating", "nan-rating",
            "list-group_id", "negative-seed", "infinite-seed", "bool-seed"])
    def test_exits_2_naming_the_fault(self, pipeline_run, tmp_path, capsys, filename, edit,
                                      command, named):
        _, config_path, cfg = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(cfg["out"], run)
        path = run / filename
        lines = path.read_text().splitlines()
        lines[1] = json.dumps(edit(json.loads(lines[1])))
        path.write_text("\n".join(lines) + "\n")
        argv = [command, "--config", str(config_path), "--out", str(run)]
        assert main(argv + (["--metrics", "monotonicity"] if command == "eval" else
                            ["--quiet"])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_config_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["synth-data", "--config", str(bad)]) == 2
        assert capsys.readouterr().err != ""


class TestThreadCap:
    def test_every_manifest_records_thread_settings(self, pipeline_run):
        _, _, cfg = pipeline_run
        names = [n for n in sorted(os.listdir(cfg["out"])) if n.endswith("_manifest.json")]
        assert len(names) == 5
        for name in names:
            with open(os.path.join(cfg["out"], name)) as fh:
                threads = json.load(fh)["threads"]
            assert threads == {var: os.environ.get(var) for var in
                               ("CDPAM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}

    def test_manifest_records_the_capped_pool(self, tmp_path):
        config_path, cfg = tiny_run_config(tmp_path, out_name="threads")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cdpam.__file__)))
        env = dict(os.environ, PYTHONPATH=src, CDPAM_THREADS="1", OMP_NUM_THREADS="7",
                   OPENBLAS_NUM_THREADS="7")
        subprocess.run([sys.executable, "-m", "cdpam.cli", "synth-data", "--config",
                        str(config_path)], env=env, capture_output=True, check=True)
        with open(os.path.join(cfg["out"], "synth_data_manifest.json")) as fh:
            threads = json.load(fh)["threads"]
        assert threads == {"CDPAM_THREADS": "1", "OMP_NUM_THREADS": "1",
                           "OPENBLAS_NUM_THREADS": "1"}

    def test_cdpam_threads_wins_over_preset_pool_sizes(self):
        # a fresh interpreter: numpy is already loaded here, so the cap would be skipped
        src = os.path.dirname(os.path.dirname(os.path.abspath(cdpam.__file__)))
        pool_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        env = dict(os.environ, PYTHONPATH=src, CDPAM_THREADS="1", **{v: "7" for v in pool_vars})
        code = ("import os, sys\n"
                "from cdpam.cli import _configure_threads\n"
                "assert 'numpy' not in sys.modules\n"
                "_configure_threads()\n"
                f"print(*(os.environ[v] for v in {pool_vars!r}))\n")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.split() == ["1", "1", "1"]
