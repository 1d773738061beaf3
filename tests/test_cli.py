"""CLI contracts: layout, ordering, exit codes, determinism, reproducibility."""

import csv
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cdpam
from cdpam import datagen
from cdpam.audio import Waveform, read_wav, write_wav
from cdpam.cli import (DEFAULT_RUN_CONFIG, TRAINING_STAGES, _check_config, _configure_threads, main,
                       resolve_config)
from cdpam.errors import ContractError
from cdpam.evaluate import EVAL_SETS
from cdpam.model import PerceptualModel, tiny_config
from cdpam.perturb import DEFAULT_FAMILIES
from cdpam.trainer import TrainConfig


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

    def test_writes_exactly_the_record_files_the_stages_read(self, tmp_path, monkeypatch):
        # each stage's record file is named once, in TRAINING_STAGES: renamed there, it is
        # written under the new name
        stages = {stage: (command, name and "renamed_" + name)
                  for stage, (command, name) in TRAINING_STAGES.items()}
        monkeypatch.setattr("cdpam.cli.TRAINING_STAGES", stages)
        config_path, cfg = tiny_run_config(tmp_path)
        assert main(["synth-data", "--config", str(config_path)]) == 0
        written = {name for name in os.listdir(cfg["out"]) if name.endswith(".jsonl")}
        assert written - {"corpus.jsonl"} == {name for _, name in stages.values() if name}
        kinds = {"jnd": "jnd_pair", "finetune": "triplet"}
        for stage, kind in kinds.items():
            records = datagen.read_jsonl(os.path.join(cfg["out"], stages[stage][1]),
                                         datagen.JudgmentRecord)
            assert records and {record.kind for record in records} == {kind}, stage

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

    def test_json_reports_what_it_read(self, pipeline_run, tmp_path, capsys):
        # a 3 s file against a 1 s clip: the report shows that the model read its first second
        _, _, cfg = pipeline_run
        ckpt = os.path.join(cfg["out"], "finetuned.ckpt")
        wav = os.path.join(cfg["out"], "corpus", "utt0000.wav")
        rate, clip = tiny_config().sample_rate, tiny_config().clip_samples
        long = tmp_path / "long.wav"
        tone = 0.5 * np.sin(2 * np.pi * 100.0 * np.arange(3 * rate) / rate)
        write_wav(Waveform(tone, rate), long)
        assert main(["distance", ckpt, wav, str(long)]) == 0
        plain = capsys.readouterr().out
        assert main(["distance", ckpt, wav, str(long), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert f"{report['distance']:.6f}\n" == plain
        assert report["sample_rate"] == rate and report["samples_used"] == clip
        assert report["inputs"] == [
            {"path": wav, "samples": read_wav(wav).samples.size, "sample_rate": rate},
            {"path": str(long), "samples": 3 * rate, "sample_rate": rate}]

    def test_missing_file_exits_2(self, pipeline_run, capsys):
        _, _, cfg = pipeline_run
        ckpt = os.path.join(cfg["out"], "finetuned.ckpt")
        code = main(["distance", ckpt, "/nonexistent/a.wav", "/nonexistent/b.wav"])
        assert code == 2
        assert capsys.readouterr().err != ""

    def test_unreadable_wav_exits_2_naming_it(self, pipeline_run, tmp_path, capsys):
        _, _, cfg = pipeline_run
        ckpt = os.path.join(cfg["out"], "finetuned.ckpt")
        wav = os.path.join(cfg["out"], "corpus", "utt0000.wav")
        bad = tmp_path / "nan.wav"  # 32-bit float mono, one NaN sample
        bad.write_bytes(b"RIFF" + struct.pack("<I", 40) + b"WAVE"
                        + b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 1600, 6400, 4, 32)
                        + b"data" + struct.pack("<I", 4) + struct.pack("<f", np.nan))
        assert main(["distance", ckpt, wav, str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: waveform contains non-finite samples\n"

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
        for metrics, named in (("two_afc,two_afc", "metric 'two_afc' is requested twice"),
                               ("", "unknown metric ''")):  # empty is not "not given"
            assert main(["eval", "--config", str(config_path), "--metrics", metrics]) == 2
            assert capsys.readouterr().err == f"error: {named}\n"
        assert calls == []

    @pytest.mark.parametrize("fault", ["corrupt", "missing"])
    def test_subset_reads_only_its_eval_sets(self, pipeline_run, tmp_path, fault):
        # a two_afc eval reads the eval corpus and eval/triplets.jsonl alone, so a MOS file
        # that cannot be read does not stop it
        _, config_path, cfg = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(cfg["out"], run)
        mos = run / "eval" / "mos.jsonl"
        if fault == "corrupt":
            mos.write_text("{not json\n")
        else:
            mos.unlink()
        (run / "reports.json").unlink()
        assert main(["eval", "--config", str(config_path), "--out", str(run),
                     "--metrics", "two_afc"]) == 0
        assert list(json.loads((run / "reports.json").read_text())) == ["two_afc"]

    def test_subset_without_common_area_removes_the_histogram(self, pipeline_run, tmp_path):
        # an earlier eval's histogram would sit beside reports of another checkpoint
        _, config_path, cfg = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(cfg["out"], run)
        histogram = run / "common_area_hist.svg"
        argv = ["eval", "--config", str(config_path), "--out", str(run), "--metrics"]
        assert main(argv + ["common_area"]) == 0
        drawn = histogram.read_bytes()
        assert main(argv + ["two_afc"]) == 0
        assert not histogram.exists()
        assert main(argv + ["two_afc"]) == 0  # and with none there, the eval still runs
        assert main(argv + ["two_afc,common_area"]) == 0
        assert histogram.read_bytes() == drawn

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_exits_2(self, pipeline_run, tmp_path, capsys, k):
        _, _, cfg = pipeline_run
        config_path, _ = tiny_run_config(tmp_path, eval={**cfg["data"]["eval"], "k": k})
        assert main(["eval", "--config", str(config_path), "--out", cfg["out"],
                     "--metrics", "precision_at_k"]) == 2
        assert (f"error: config key 'data.eval.k' must be an integer >= 1, got {k}\n"
                == capsys.readouterr().err)


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
        # each eval set's count under its metric's name, the lines of the file it wrote
        lines = {metric: len(Path(out, "eval", filename).read_text().splitlines())
                 for metric, (filename, _) in EVAL_SETS.items()}
        assert synth["eval"] == {"corpus": cfg["data"]["n_eval_utterances"], **lines}
        assert lines["two_afc"] == cfg["data"]["eval"]["n_triplets"]
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

    def test_quiet_pipeline_prints_no_epoch_lines(self, pipeline_run, tmp_path, capsys):
        _, config_path, cfg = pipeline_run
        out = str(tmp_path / "quiet")
        assert main(["pipeline", "--config", str(config_path), "--out", out, "--quiet"]) == 0
        printed = capsys.readouterr().out
        assert "epoch" not in printed and "two_afc:" in printed
        assert (Path(cfg["out"], "finetuned.ckpt").read_bytes()
                == Path(out, "finetuned.ckpt").read_bytes())


def _without_wall_ms(path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index("wall_ms")
    return [row[:column] + row[column + 1:] for row in rows]


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

    def test_pipeline_run_twice_writes_the_same_files(self, tmp_path):
        # at one path, since the manifests echo it; the loss logs time each epoch in their
        # wall_ms column, and match once it is dropped
        config_path, cfg = tiny_run_config(tmp_path, out_name="twice")
        root = Path(cfg["out"])
        runs = []
        for _ in range(2):
            assert main(["pipeline", "--config", str(config_path), "--quiet"]) == 0
            runs.append({str(path.relative_to(root)): _without_wall_ms(path)
                         if path.name.endswith("_log.csv") else path.read_bytes()
                         for path in root.rglob("*") if path.is_file()})
            shutil.rmtree(root)
        assert sorted(runs[0]) == sorted(runs[1])
        assert sum(name.endswith("_log.csv") for name in runs[0]) == 3
        for name, content in runs[0].items():
            assert runs[1][name] == content, name

    def test_flag_overrides_win(self, tmp_path):
        config_path, file_cfg = tiny_run_config(tmp_path, out_name="ov")
        cfg = resolve_config(str(config_path), seed=99, out=str(tmp_path / "other"))
        assert cfg["seed"] == 99
        assert cfg["out"] == str(tmp_path / "other")
        # the config file is the one setter of a stage's epoch count
        assert cfg["train"]["epochs"] == file_cfg["train"]["epochs"]

    def test_run_manifest_echoes_config(self, pipeline_run):
        _, _, cfg = pipeline_run
        with open(os.path.join(cfg["out"], "synth_data_manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "synth_data"
        assert manifest["config"]["seed"] == cfg["seed"]
        assert manifest["config"]["data"]["n_utterances"] == cfg["data"]["n_utterances"]


class TestConfigBoundary:
    @pytest.mark.parametrize("override,named", [
        ({"train": {"batch_size": 0}},
         "config key 'train.batch_size' must be an integer >= 1, got 0"),
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
        ({"train": {"tau": "0.5"}}, "config key 'train.tau' must be a finite number, got '0.5'"),
        ({"train": {"augment": {"jnd": 1}}}, "config key 'train.augment.jnd' must be true"),
        ({"train": {"batches_per_mode": 1}}, "unknown config key 'train.batches_per_mode'"),
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
         "model.sample_rate must be an integer >= 1, got '1600'"),
        ({"seed": -1}, "config key 'seed' must be an integer >= 0, got -1"),
        ({"data": {"jnd_threshold": float("nan")}},
         "config key 'data.jnd_threshold' must be a finite number, got nan"),
        ({"data": {"families": ["foo"]}}, "config key 'data.families' must be a list of one"),
        ({"data": {"families": []}}, "config key 'data.families' must be a list of one"),
        ({"data": {"jnd_sigma": -0.5}},
         "config key 'data.jnd_sigma' must be a finite number >= 0, got -0.5"),
        ({"data": {"eval": {"triplet_gap": float("inf")}}},
         "config key 'data.eval.triplet_gap' must be a finite number, got inf"),
        ({"train": {"tau": float("nan")}}, "config key 'train.tau' must be a finite number"),
        ({"data": {"families": ["noise", "noise"]}},
         "config key 'data.families' must be a list of one or more distinct families"),
        ({"train": {"tau": 10 ** 400}}, "config key 'train.tau' must be a finite number"),
        # eval sizes that some metric cannot score, rejected before training
        ({"data": {"eval": {"retrieval_groups": 1}}},
         "config key 'data.eval.retrieval_groups' must be an integer >= 2, got 1"),
        ({"data": {"eval": {"retrieval_group_size": 1}}},
         "config key 'data.eval.retrieval_group_size' must be an integer >= 2, got 1"),
        ({"data": {"eval": {"common_area_pairs": 0}}},
         "config key 'data.eval.common_area_pairs' must be an integer >= 1, got 0"),
        ({"data": {"eval": {"mos_clips_per_cell": 0}}},
         "config key 'data.eval.mos_clips_per_cell' must be an integer >= 1, got 0"),
        ({"data": {"eval": {"mos_conditions": 0}}},
         "config key 'data.eval.mos_conditions' must be an integer >= 2, got 0"),
        ({"data": {"n_speakers": 1, "eval": {"mos_conditions": 1}}},
         "config key 'data.eval.mos_conditions' must be an integer >= 2, got 1"),
        ({"data": {"eval": {"retrieval_groups": 2, "retrieval_group_size": 2}}},
         "config keys 'data.eval.retrieval_groups' x 'retrieval_group_size' must be at least "
         "'data.eval.k' + 1 = 6, got 4"),
        ({"data": {"eval": {"k": 200}}}, "'data.eval.k' + 1 = 201, got 200"),
        ({"train": {"lr": {"jnd": -1.0}}},
         "config key 'train.lr.jnd' must be a finite number > 0, got -1.0"),
        ({"train": {"epochs": {"finetune": 0}}},
         "config key 'train.epochs.finetune' must be an integer >= 1, got 0"),
        ({"train": {"tau": 0}}, "config key 'train.tau' must be a finite number > 0, got 0"),
        ({"data": {"eval": {"n_triplets": 0}}},
         "config key 'data.eval.n_triplets' must be an integer >= 1, got 0"),
        # an acoustic pretraining pair is two utterances: a batch of 16 needs 32
        ({"data": {"n_utterances": 31}},
         "config key 'data.n_utterances' must be at least 2 x 'train.batch_size' = 32, got 31"),
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
        assert ("error: config key 'seed' must be an integer >= 0, got -1\n"
                == capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    def test_k_below_one_exits_2_before_writing(self, tmp_path, capsys):
        config_path, cfg = tiny_run_config(tmp_path)
        cfg["data"]["eval"]["k"] = 0
        config_path.write_text(json.dumps(cfg))
        assert main(["synth-data", "--config", str(config_path)]) == 2
        assert ("error: config key 'data.eval.k' must be an integer >= 1, got 0\n"
                == capsys.readouterr().err)
        assert not os.path.exists(cfg["out"])

    @pytest.mark.parametrize("key,value,named", [
        ("n_jnd_pairs", 0, "config key 'data.n_jnd_pairs' must be an integer >= 1, got 0"),
        ("n_triplets", 0, "config key 'data.n_triplets' must be an integer >= 1, got 0"),
        ("jnd_threshold", 1.5,
         "config key 'data.jnd_threshold' must be a finite number in (0, 1), got 1.5"),
        ("eval.mono_levels", 2,
         "config key 'data.eval.mono_levels' must be an integer >= 3, got 2"),
        ("eval.retrieval_group_size", 64,
         "config key 'data.eval.retrieval_group_size' must be at most "
         "'data.n_eval_utterances' = 10, got 64"),
        ("eval.triplet_gap", 1.0,
         "config key 'data.eval.triplet_gap' must be a finite number in [0, 1), got 1.0"),
        ("eval.mono_contents", 1,
         "config key 'data.eval.mono_contents' must be an integer >= 2, got 1"),
        ("jnd_threshold", 0.0,
         "config key 'data.jnd_threshold' must be a finite number in (0, 1), got 0.0"),
        ("eval.triplet_gap", -0.1,
         "config key 'data.eval.triplet_gap' must be a finite number in [0, 1), got -0.1"),
    ], ids=["n_jnd_pairs", "n_triplets", "jnd_threshold", "mono_levels", "retrieval_group_size",
            "triplet_gap", "mono_contents", "jnd_threshold_zero", "triplet_gap_negative"])
    def test_synth_data_rejects_before_writing(self, tmp_path, capsys, key, value, named):
        config_path, cfg = tiny_run_config(tmp_path)
        section = cfg["data"]["eval"] if key.startswith("eval.") else cfg["data"]
        section[key.removeprefix("eval.")] = value
        config_path.write_text(json.dumps(cfg))
        assert main(["synth-data", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not os.path.exists(cfg["out"])

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
        assert proc.stderr == (f"error: config key 'data.eval.triplet_gap' must be a finite "
                               f"number in [0, 1), got {gap}\n")

    def test_leaf_types_accepted(self, tmp_path):
        path = tmp_path / "types.json"
        # 32 utterances sit on the least corpus a batch of 16 accepts
        path.write_text(json.dumps({"train": {"tau": 1, "lr": {"jnd": 0.01}},
                                    "data": {"jnd_threshold": 0.2, "families": ["eq"],
                                             "n_utterances": 32}}))
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


# each config key whose rule the library function that consumes it also checks: the
# parameter it becomes, a call that passes the value in its place, and the rule's bounds
LIBRARY_RULES = {
    **{f"train.epochs.{stage}": ("epochs", lambda c, v: TrainConfig(epochs=v), 1)
       for stage in TRAINING_STAGES},
    "train.batch_size": ("batch_size", lambda c, v: TrainConfig(batch_size=v), 1),
    **{f"train.lr.{stage}": ("lr", lambda c, v: TrainConfig(lr=v), 0.0)
       for stage in TRAINING_STAGES},
    "train.tau": ("tau", lambda c, v: TrainConfig(tau=v), 0.0),
    "data.n_utterances": ("n", lambda c, v: datagen.synth_corpus(v, 1, clip_samples=400), 1),
    "data.n_eval_utterances": ("n", lambda c, v: datagen.synth_corpus(v, 1, clip_samples=400),
                               1),
    "data.n_speakers": ("n_speakers", lambda c, v: datagen.synth_corpus(1, v, clip_samples=400),
                        1),
    "data.n_jnd_pairs": ("n_pairs", lambda c, v: datagen.oracle_jnd(c, v), 1),
    "data.jnd_threshold": ("threshold", lambda c, v: datagen.oracle_jnd(c, 1, threshold=v),
                           0.0, 1.0),
    "data.jnd_sigma": ("noise_sigma", lambda c, v: datagen.oracle_jnd(c, 1, noise_sigma=v), 0.0),
    "data.n_triplets": ("n", lambda c, v: datagen.oracle_triplets(c, v), 1),
    "data.eval.n_triplets": ("n", lambda c, v: datagen.oracle_triplets(c, v), 1),
    "data.eval.triplet_gap": ("min_magnitude_gap",
                              lambda c, v: datagen.oracle_triplets(c, 1, min_magnitude_gap=v),
                              0.0, 1.0),
    "data.eval.mono_levels": ("n_levels", lambda c, v: datagen.build_mono_series(c, n_levels=v),
                              3),
    "data.eval.mono_contents": ("n_contents",
                                lambda c, v: datagen.build_mono_series(c, n_contents=v), 2),
    "data.eval.common_area_pairs": ("n_pairs",
                                    lambda c, v: datagen.build_common_area_sets(c, v), 1),
    "data.eval.retrieval_groups": (
        "n_groups", lambda c, v: datagen.build_retrieval_set(c, n_groups=v, group_size=2), 2),
    "data.eval.retrieval_group_size": (
        "group_size", lambda c, v: datagen.build_retrieval_set(c, n_groups=2, group_size=v), 2),
    "data.eval.mos_conditions": ("n_conditions",
                                 lambda c, v: datagen.build_mos_set(c, n_conditions=v), 2),
    "data.eval.mos_clips_per_cell": (
        "clips_per_cell", lambda c, v: datagen.build_mos_set(c, clips_per_cell=v), 1),
}


def _around(bound) -> tuple:
    """The bound and its nearest neighbours of the same type."""
    if isinstance(bound, int):
        return bound - 1, bound, bound + 1
    return math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf)


class TestLibraryRulesMatch:
    """cli states some library rules again, to reject a config before any command writes a
    file and to name the dotted key; the two copies must agree at every bound.  The copies
    are the leaf rules of _check_config: resolve_config's rules across keys, such as
    retrieval_group_size <= n_eval_utterances, are no library rule's copy."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return datagen.synth_corpus(4, 2, sample_rate=4000, clip_samples=400)

    @pytest.mark.parametrize("key", LIBRARY_RULES)
    def test_cli_and_library_agree_at_each_bound(self, monkeypatch, corpus, key):
        # a triplet gap just below 1 is valid but unreachable: one draw, then CapacityError
        monkeypatch.setattr(datagen, "MAX_TRIPLET_DRAWS", 1)
        name, call, *bounds = LIBRARY_RULES[key]
        for value in [v for bound in bounds for v in _around(bound)]:
            override = value
            for part in reversed(key.split(".")):
                override = {part: override}
            try:
                _check_config(override, DEFAULT_RUN_CONFIG)
                cli_accepts = True
            except ContractError as err:
                assert str(err).startswith(f"config key {key!r} must be "), err
                cli_accepts = False
            try:
                call(corpus, value)
                library_accepts = True
            except ContractError as err:  # CapacityError too: the value passed its check
                library_accepts = not str(err).startswith(f"{name} must be ")
            assert cli_accepts == library_accepts, (key, value)


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


class TestWrongRecordKind:
    @pytest.mark.parametrize("command,records,other,checkpoint,message", [
        ("train-jnd", "jnd.jsonl", "triplets.jsonl", "jnd.ckpt",
         "expected jnd_pair records, got 'triplet'"),
        ("finetune", "triplets.jsonl", "jnd.jsonl", "finetuned.ckpt",
         "expected triplet records, got 'jnd_pair'"),
    ])
    def test_exits_2_without_a_checkpoint(self, pipeline_run, tmp_path, capsys, command, records,
                                          other, checkpoint, message):
        _, config_path, cfg = pipeline_run
        run = tmp_path / "run"
        shutil.copytree(cfg["out"], run)
        shutil.copyfile(run / other, run / records)
        (run / checkpoint).unlink()
        assert main([command, "--config", str(config_path), "--out", str(run), "--quiet"]) == 2
        assert f"error: {message}\n" in capsys.readouterr().err
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
        ("eval/mos.jsonl", _set("rating", 10 ** 400), "eval",
         f"mos.jsonl line 2: key 'rating' must be a finite number, got {10 ** 400}\n"),
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
            "huge-rating", "list-group_id", "negative-seed", "infinite-seed", "bool-seed"])
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
        # eval reads only the sets of the metrics it runs: run the one that reads `filename`
        metric = next((m for m, (name, _) in EVAL_SETS.items() if name == path.name), None)
        assert main(argv + (["--metrics", metric] if command == "eval" else ["--quiet"])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [name for name, _ in TRAINING_STAGES.values()])
    def test_epochs_flag_is_an_unknown_argument(self, capsys, command):
        # a stage's epoch count is set in the config file alone
        with pytest.raises(SystemExit) as exc:
            main([command, "--epochs", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --epochs 3" in capsys.readouterr().err

    @pytest.mark.parametrize("slot", [0, 1, 2])  # the checkpoint, the first WAV, the second
    def test_directory_for_a_distance_file_exits_2(self, pipeline_run, tmp_path, capsys, slot):
        _, _, cfg = pipeline_run
        args = [os.path.join(cfg["out"], "finetuned.ckpt"),
                os.path.join(cfg["out"], "corpus", "utt0000.wav"),
                os.path.join(cfg["out"], "corpus", "utt0001.wav")]
        args[slot] = str(tmp_path)
        assert main(["distance", *args]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"

    def test_directory_as_config_exits_2(self, tmp_path, capsys):
        assert main(["synth-data", "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"

    def test_missing_config_exits_2_naming_it(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["synth-data", "--config", str(missing)]) == 2
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"

    def test_unreadable_wav_exits_2(self, pipeline_run, monkeypatch, capsys):
        # raised by hand: file modes do not stop a superuser from reading
        _, _, cfg = pipeline_run
        wav = os.path.join(cfg["out"], "corpus", "utt0000.wav")

        def denied(path):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr("cdpam.audio.read_wav", denied)
        assert main(["distance", os.path.join(cfg["out"], "finetuned.ckpt"), wav, wav]) == 2
        assert capsys.readouterr().err == f"error: {wav}: Permission denied\n"

    def test_bad_config_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        # the second is JSON, but its integer is longer than Python parses
        for text in ("{not json", '{"seed": ' + "9" * 5000 + "}"):
            bad.write_text(text)
            assert main(["synth-data", "--config", str(bad)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_deeply_nested_config_exits_2_before_writing(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)  # past the parser's recursion limit
        assert main(["synth-data", "--config", str(deep), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {deep}: maximum recursion depth")
        assert not (tmp_path / "run").exists()


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

    def test_package_root_imports_no_submodule_and_no_numpy(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cdpam.__file__)))
        code = ("import sys\n"
                "import cdpam\n"
                "print(*sorted(m for m in sys.modules if m == 'numpy' or 'cdpam' in m))\n")
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["cdpam"]

    @pytest.mark.parametrize("cap", ["abc", "0"])
    def test_invalid_cap_exits_2_before_numpy_loads_or_a_file_is_written(self, tmp_path, cap):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cdpam.__file__)))
        out = str(tmp_path / "run")
        code = ("import sys\n"
                "from cdpam.cli import main\n"
                f"code = main(['synth-data', '--out', {out!r}])\n"
                "assert 'numpy' not in sys.modules\n"
                "sys.exit(code)\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src, CDPAM_THREADS=cap))
        assert done.returncode == 2, done.stderr
        assert done.stderr == f"error: CDPAM_THREADS must be a positive integer, got {cap!r}\n"
        assert os.listdir(tmp_path) == []

    def test_empty_cap_is_unset(self, monkeypatch):
        monkeypatch.setenv("CDPAM_THREADS", "")
        _configure_threads()
