"""The write contract: every file a run writes replaces its target only when complete.

A write that raises leaves an existing target with its old bytes and no `<target>.tmp`
behind; a clean write replaces the target.
"""

import os

import numpy as np
import pytest

from cdpam.audio import replacing, write_json
from cdpam.cli import _write_manifest
from cdpam.datagen import CorpusEntry, write_jsonl
from cdpam.evaluate import EvalReport, write_reports_csv, write_reports_json
from cdpam.model import PerceptualModel, save_checkpoint, tiny_config
from cdpam.trainer import save_loss_log

OLD = b"old bytes\n"


def _old_target(tmp_path, name="target"):
    target = tmp_path / name
    target.write_bytes(OLD)
    return target


class TestReplacing:
    @pytest.mark.parametrize("binary, data, written", [
        (False, "a\nb\r\né\n", "a\nb\r\né\n".encode("utf-8")),  # no newline translation
        (True, b"\x00\xff", b"\x00\xff"),
    ])
    def test_clean_block_replaces_target(self, tmp_path, binary, data, written):
        target = _old_target(tmp_path)
        with replacing(target, binary=binary) as fh:
            fh.write(data)
            assert target.read_bytes() == OLD  # untouched until the block exits
        assert target.read_bytes() == written
        assert os.listdir(tmp_path) == ["target"]

    @pytest.mark.parametrize("binary", [False, True])
    def test_raising_block_keeps_old_bytes_and_removes_tmp(self, tmp_path, binary):
        target = _old_target(tmp_path)
        with pytest.raises(RuntimeError, match="mid-write"):
            with replacing(target, binary=binary) as fh:
                fh.write(b"partial" if binary else "partial")
                raise RuntimeError("mid-write")
        assert target.read_bytes() == OLD
        assert os.listdir(tmp_path) == ["target"]

    def test_new_file_gets_plain_open_permissions(self, tmp_path):
        with replacing(tmp_path / "replaced") as fh:
            fh.write("x")
        with open(tmp_path / "plain", "w") as fh:
            fh.write("x")
        assert (os.stat(tmp_path / "replaced").st_mode
                == os.stat(tmp_path / "plain").st_mode)

    def test_write_json_format(self, tmp_path):
        target = tmp_path / "doc.json"
        write_json({"b": [1, 2], "a": "é"}, target)
        assert target.read_bytes() == b'{\n  "a": "\\u00e9",\n  "b": [\n    1,\n    2\n  ]\n}\n'


def _jsonl(target, bad):
    write_jsonl([CorpusEntry("u0", 0, "u0.wav")] + ([object()] if bad else []), target)


def _loss_log(target, bad):
    rows = [{"epoch": 0, "stage": "jnd", "loss": 0.5, "wall_ms": 1.0}]
    save_loss_log(rows + ([{"epoch": 1, "stage": "jnd"}] if bad else []), target)


def _reports_json(target, bad):
    seed = np.int64(0) if bad else 0  # json cannot encode a numpy integer
    write_reports_json([EvalReport("two_afc", 0.5, 4, config={"seed": seed})], target)


def _reports_csv(target, bad):
    reports = [EvalReport("two_afc", 0.5, 4)] + ([EvalReport("mos_correlation", "x", 4)]
                                                   if bad else [])
    write_reports_csv(reports, target)


def _manifest(target, bad):
    _write_manifest({"seed": np.int64(0) if bad else 0}, str(target.parent), "synth_data")


def _checkpoint(target, bad):
    model = PerceptualModel.initialize(tiny_config(), seed=0)
    if bad:  # the last tensor written cannot be stored as float64: fails after the others
        model.state[sorted(model.state)[-1]] = np.array([object()], dtype=object)
    save_checkpoint(model, target)


WRITERS = {"write_jsonl": (_jsonl, "corpus.jsonl"), "save_loss_log": (_loss_log, "log.csv"),
           "write_reports_json": (_reports_json, "reports.json"),
           "write_reports_csv": (_reports_csv, "reports.csv"),
           "_write_manifest": (_manifest, "synth_data_manifest.json"),
           "save_checkpoint": (_checkpoint, "model.ckpt")}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writer_replaces_only_when_complete(tmp_path, writer):
    write, name = WRITERS[writer]
    target = _old_target(tmp_path, name)
    write(target, bad=False)
    complete = target.read_bytes()
    assert complete != OLD
    with pytest.raises((TypeError, ValueError, KeyError)):
        write(target, bad=True)
    assert target.read_bytes() == complete
    assert os.listdir(tmp_path) == [name]
