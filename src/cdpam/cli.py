"""Command-line pipeline: data synthesis, the three training stages,
evaluation, and pairwise distance queries.

Subcommands read a JSON config file (``--config``) merged over built-in
desk-scale defaults, with individual flags (``--seed``, ``--out``,
``--epochs``) winning over both; a key the defaults lack, or a value of
another type than its default, is an error.  Every run writes a manifest
echoing the fully resolved configuration and the BLAS thread settings, so a
run is reproducible from its manifest alone.  With ``--json`` a subcommand
prints one JSON line holding its outputs (paths, counts, final losses, metric
values) and nothing else.

Exit codes: 0 success, 1 internal error, 2 usage or input error.  Setting
``CDPAM_THREADS`` caps the BLAS worker pool (it must be decided before numpy
loads, so the cap is applied at CLI startup).
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys

DEFAULT_RUN_CONFIG = {
    "seed": 0,
    "out": "runs/desk",
    "model": "desk",
    "data": {
        "n_utterances": 128,
        "n_eval_utterances": 32,
        "n_speakers": 8,
        "n_jnd_pairs": 160,
        "n_triplets": 96,
        "families": ["noise", "reverb"],
        "jnd_threshold": 0.15,
        "jnd_sigma": 0.03,
        "eval": {
            "n_triplets": 200,
            "triplet_gap": 0.2,
            "mono_levels": 6,
            "mono_contents": 8,
            "common_area_pairs": 150,
            "retrieval_groups": 10,
            "retrieval_group_size": 20,
            "mos_conditions": 10,
            "mos_clips_per_cell": 3,
            "k": 5,
        },
    },
    "train": {
        "batch_size": 16,
        "epochs": {"pretrain": 20, "jnd": 50, "finetune": 30},
        "lr": {"pretrain": 2e-3, "jnd": 2e-3, "finetune": 2e-3},
        "tau": 0.5,
        "margin": 0.1,
        "augment": {"pretrain": False, "jnd": True, "finetune": True},
        "batches_per_mode": None,
    },
}

# the BLAS pool settings a run's manifest records: checkpoints are byte-identical
# only at a fixed thread count
THREAD_VARS = ("CDPAM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
# the training stages in run order, by config key: command, checkpoint written, record file
# read (pretraining reads the corpus alone); a stage loads the checkpoint of the one before it
TRAINING_STAGES = {"pretrain": ("pretrain", "pretrained.ckpt", None),
                   "jnd": ("train-jnd", "jnd.ckpt", "jnd.jsonl"),
                   "finetune": ("finetune", "finetuned.ckpt", "triplets.jsonl")}


def _configure_threads() -> None:
    cap = os.environ.get("CDPAM_THREADS")
    if not cap:
        return
    if "numpy" in sys.modules:
        return  # too late to cap the BLAS pool; library users set env themselves
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cap  # the cap wins over a pool size set for other programs


def _deep_merge(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _leaf_mismatch(item, default, dotted: str) -> str | None:
    """What the config leaf `dotted` must be when `item` does not fit its default."""
    def is_int(v) -> bool:
        return isinstance(v, int) and not isinstance(v, bool)

    if dotted == "data.families":
        from .perturb import FAMILIES

        ok = (isinstance(item, list) and bool(item) and all(f in FAMILIES for f in item)
              and len(set(item)) == len(item))
        want = f"a list of one or more distinct families from {', '.join(FAMILIES)}"
    elif dotted == "train.batches_per_mode":
        ok, want = item is None or is_int(item), "null or an integer"
    elif isinstance(default, bool):
        ok, want = isinstance(item, bool), "true or false"
    elif isinstance(default, int):
        ok, want = is_int(item), "an integer"
    elif isinstance(default, float):
        ok, want = isinstance(item, (int, float)) and not isinstance(item, bool), "a number"
        # json reads NaN, Infinity and integers too large for a float; NaN compares False
        if ok and not abs(item) <= sys.float_info.max:
            ok, want = False, "a finite number"
    else:
        ok, want = isinstance(item, str), "a string"
    return None if ok else want


def _check_config(value, defaults: dict, path: str = "") -> None:
    """Reject keys the defaults lack, a non-object where the defaults hold one, a leaf of
    the wrong type for its default, a non-finite number, a families list that is empty,
    repeats a family or names one outside perturb.FAMILIES, and a model object
    ModelConfig cannot be built from."""
    from .errors import ContractError

    if not isinstance(value, dict):
        where = f"config key {path[:-1]!r}" if path else "the config file"
        raise ContractError(f"{where} must be a JSON object, got {value!r}")
    for key, item in value.items():
        dotted = path + key
        if key not in defaults:
            raise ContractError(f"unknown config key {dotted!r}")
        if dotted == "model":  # a preset name or a full ModelConfig object
            if isinstance(item, dict):
                from .model import ModelConfig

                ModelConfig.from_dict(item)
            elif item not in ("desk", "default"):
                raise ContractError(f"config key 'model' must be 'desk', 'default' or an "
                                    f"object, got {item!r}")
        elif isinstance(defaults[key], dict):
            _check_config(item, defaults[key], dotted + ".")
        else:
            want = _leaf_mismatch(item, defaults[key], dotted)
            if want:
                raise ContractError(f"config key {dotted!r} must be {want}, got {item!r}")


def resolve_config(config_path=None, seed=None, out=None, epochs=None, stage=None) -> dict:
    cfg = copy.deepcopy(DEFAULT_RUN_CONFIG)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            override = json.load(fh)
        _check_config(override, DEFAULT_RUN_CONFIG)
        cfg = _deep_merge(cfg, override)
    if seed is not None:
        cfg["seed"] = seed
    from .errors import ContractError

    if cfg["seed"] < 0:
        raise ContractError(f"config key 'seed' must be a non-negative integer, got {cfg['seed']}")
    if cfg["data"]["eval"]["k"] < 1:
        raise ContractError(f"k must be >= 1, got {cfg['data']['eval']['k']} "
                            f"(config key 'data.eval.k')")
    if cfg["data"]["jnd_sigma"] < 0:
        raise ContractError(f"config key 'data.jnd_sigma' must be >= 0, got "
                            f"{cfg['data']['jnd_sigma']}")
    if out is not None:
        cfg["out"] = out
    if epochs is not None and stage is not None:
        cfg["train"]["epochs"][stage] = epochs
    for name in TRAINING_STAGES:  # every stage's values, before any command writes a file
        _train_config(cfg, name)
    return cfg


def _model_config(cfg: dict):
    from .model import ModelConfig, default_config, desk_config

    spec = cfg["model"]
    if spec == "desk":
        return desk_config()
    if spec == "default":
        return default_config()
    return ModelConfig.from_dict(spec)


def _train_config(cfg: dict, stage: str):
    from .trainer import TrainConfig

    t = cfg["train"]
    return TrainConfig(
        stage=stage,
        epochs=t["epochs"][stage],
        batch_size=t["batch_size"],
        lr=t["lr"][stage],
        tau=t["tau"],
        margin=t["margin"],
        seed=cfg["seed"],
        augment=t["augment"][stage],
        families=tuple(cfg["data"]["families"]),
        batches_per_mode=t["batches_per_mode"],
    )


def _write_manifest(cfg: dict, out_dir: str, command: str) -> None:
    path = os.path.join(out_dir, f"{command}_manifest.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        threads = {var: os.environ.get(var) for var in THREAD_VARS}
        json.dump({"command": command, "config": cfg, "threads": threads}, fh, sort_keys=True,
                  indent=2)
        fh.write("\n")
    os.replace(tmp, path)


# -- corpus persistence ------------------------------------------------------------


def _write_corpus(corpus, root: str, subdir: str) -> None:
    from .audio import write_wav
    from .datagen import CorpusEntry, write_jsonl

    os.makedirs(os.path.join(root, subdir), exist_ok=True)
    entries = []
    for utt in corpus:
        entry = CorpusEntry(utt.id, utt.speaker_id, os.path.join(subdir, f"{utt.id}.wav"))
        write_wav(utt.clean, os.path.join(root, entry.path))
        entries.append(entry)
    write_jsonl(entries, os.path.join(root, subdir + ".jsonl"))


def _read_corpus(root: str, subdir: str) -> list:
    from .audio import read_wav
    from .datagen import CorpusEntry, Utterance, read_jsonl

    return [Utterance(id=entry.id, clean=read_wav(os.path.join(root, entry.path)),
                      speaker_id=entry.speaker_id)
            for entry in read_jsonl(os.path.join(root, subdir + ".jsonl"), CorpusEntry)]


# -- subcommands ----------------------------------------------------------------------


def cmd_synth_data(cfg: dict, as_json: bool = False) -> dict:
    from . import datagen
    from .datagen import write_jsonl

    out = cfg["out"]
    model_cfg = _model_config(cfg)
    data, ev = cfg["data"], cfg["data"]["eval"]
    families = tuple(data["families"])
    seed = cfg["seed"]
    clip = {"sample_rate": model_cfg.sample_rate, "clip_samples": model_cfg.clip_samples}

    # every corpus and record set is built before the first write, so that a value the
    # builders reject leaves no partial run directory behind
    corpus = datagen.synth_corpus(data["n_utterances"], data["n_speakers"], seed=seed,
                                  id_prefix="utt", **clip)
    jnd = datagen.oracle_jnd(corpus, data["n_jnd_pairs"], threshold=data["jnd_threshold"],
                             noise_sigma=data["jnd_sigma"], seed=seed, families=families)
    triplets = datagen.oracle_triplets(corpus, data["n_triplets"], seed=seed, families=families)
    eval_corpus = datagen.synth_corpus(data["n_eval_utterances"], data["n_speakers"],
                                       seed=seed + 1, id_prefix="ev", **clip)
    eval_sets = {
        "triplets": datagen.oracle_triplets(
            eval_corpus, ev["n_triplets"], seed=seed + 2, families=families,
            min_magnitude_gap=ev["triplet_gap"]),
        "mono_items": datagen.build_mono_series(
            eval_corpus, families, ev["mono_levels"], ev["mono_contents"], seed=seed + 3),
        "grouped_pairs": datagen.build_common_area_sets(
            eval_corpus, ev["common_area_pairs"], seed=seed + 4, families=families),
        "retrieval_items": datagen.build_retrieval_set(
            eval_corpus, ev["retrieval_groups"], ev["retrieval_group_size"], seed=seed + 5,
            families=families),
        "mos_rows": datagen.build_mos_set(
            eval_corpus, ev["mos_conditions"], ev["mos_clips_per_cell"], seed=seed + 6,
            families=families),
    }

    _write_corpus(corpus, out, "corpus")  # creates `out`
    write_jsonl(jnd, os.path.join(out, "jnd.jsonl"))
    write_jsonl(triplets, os.path.join(out, "triplets.jsonl"))
    eval_dir = os.path.join(out, "eval")
    _write_corpus(eval_corpus, eval_dir, "corpus")
    for name, items in eval_sets.items():
        write_jsonl(items, os.path.join(eval_dir, datagen.EVAL_SETS[name][0]))
    _write_manifest(cfg, out, "synth_data")
    if not as_json:
        print(f"corpus, manifests and eval splits written under {out}")
    return {"out": out, "corpus": len(corpus), "jnd_pairs": len(jnd), "triplets": len(triplets),
            "eval": {"corpus": len(eval_corpus),
                     **{name: len(items) for name, items in eval_sets.items()}}}


def _run_stage(cfg: dict, stage: str, progress: bool) -> dict:
    """Train `stage` on the run directory's files; write its checkpoint, loss log and
    manifest, and return their paths, the epoch count and the final loss."""
    from . import trainer
    from .datagen import JudgmentRecord, read_jsonl
    from .model import load_checkpoint, save_checkpoint

    command, checkpoint_name, records_name = TRAINING_STAGES[stage]
    config = _train_config(cfg, stage)
    out = cfg["out"]
    corpus = _read_corpus(out, "corpus")
    callback = (lambda row: print(f"[{stage}] epoch {row['epoch']}: loss {row['loss']:.5f}",
                                  flush=True)) if progress else None
    if records_name is None:
        model, rows = trainer.pretrain_contrastive(corpus, config, _model_config(cfg),
                                                   progress=callback)
    else:
        records = read_jsonl(os.path.join(out, records_name), JudgmentRecord)
        previous = list(TRAINING_STAGES)[list(TRAINING_STAGES).index(stage) - 1]
        model = load_checkpoint(os.path.join(out, TRAINING_STAGES[previous][1]))
        train = trainer.train_jnd if stage == "jnd" else trainer.finetune_triplet
        model, rows = train(model, corpus, records, config, progress=callback)
    checkpoint = os.path.join(out, checkpoint_name)
    log = os.path.join(out, f"{stage}_log.csv")
    save_checkpoint(model, checkpoint)
    trainer.save_loss_log(rows, log)
    _write_manifest(cfg, out, command.replace("-", "_"))
    return {"checkpoint": checkpoint, "log": log, "epochs": len(rows),
            "final_loss": rows[-1]["loss"] if rows else None}


def cmd_pretrain(cfg: dict, progress: bool = True) -> dict:
    return _run_stage(cfg, "pretrain", progress)


def cmd_train_jnd(cfg: dict, progress: bool = True) -> dict:
    return _run_stage(cfg, "jnd", progress)


def cmd_finetune(cfg: dict, progress: bool = True) -> dict:
    return _run_stage(cfg, "finetune", progress)


def cmd_distance(ckpt_path: str, path_a: str, path_b: str, as_json: bool = False) -> dict:
    from .audio import read_wav
    from .model import load_checkpoint

    model = load_checkpoint(ckpt_path)
    d = model.distance(read_wav(path_a), read_wav(path_b))
    if not as_json:
        print(f"{d:.6f}")
    return {"distance": d}


def load_eval_datasets(eval_dir: str) -> tuple:
    from .datagen import EVAL_SETS, read_jsonl
    from .errors import DataError

    if not os.path.isdir(eval_dir):
        raise DataError(f"missing eval split directory {eval_dir}")
    corpus = _read_corpus(eval_dir, "corpus")
    datasets = {name: read_jsonl(os.path.join(eval_dir, filename), cls)
                for name, (filename, cls) in EVAL_SETS.items()}
    return corpus, datasets


def cmd_eval(cfg: dict, ckpt_path: str | None = None, metrics=None, as_json: bool = False) -> dict:
    from .evaluate import ALL_METRICS, run_full_eval, write_reports_csv, write_reports_json
    from .model import load_checkpoint

    out = cfg["out"]
    ckpt_path = ckpt_path or os.path.join(out, TRAINING_STAGES["finetune"][1])
    model = load_checkpoint(ckpt_path)
    eval_corpus, datasets = load_eval_datasets(os.path.join(out, "eval"))
    wanted = tuple(metrics) if metrics else ALL_METRICS
    echo = {"seed": cfg["seed"], "families": list(cfg["data"]["families"]),
            "stage": model.stage}
    reports = run_full_eval(model, eval_corpus, datasets, metrics=wanted,
                            k=cfg["data"]["eval"]["k"], config_echo=echo,
                            histogram_path=os.path.join(out, "common_area_hist.svg")
                            if "common_area" in wanted else None)
    write_reports_json(reports, os.path.join(out, "reports.json"))
    write_reports_csv(reports, os.path.join(out, "reports.csv"))
    _write_manifest(cfg, out, "eval")
    if not as_json:
        for report in reports:
            print(f"{report.metric}: {report.value:.4f} (n={report.n})")
    return {report.metric: report.value for report in reports}


def run_pipeline(cfg: dict, progress: bool = False, as_json: bool = False) -> dict:
    """synth-data + all three stages + eval, as one deterministic sequence.

    Returns each command's outputs under its command name.
    """
    return {"synth-data": cmd_synth_data(cfg, as_json=as_json),
            "pretrain": cmd_pretrain(cfg, progress=progress),
            "train-jnd": cmd_train_jnd(cfg, progress=progress),
            "finetune": cmd_finetune(cfg, progress=progress),
            "eval": cmd_eval(cfg, as_json=as_json)}


# -- argument parsing --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cdpam",
                                     description="perceptual audio metric pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file merged over defaults")
        p.add_argument("--seed", type=int, help="master RNG seed")
        p.add_argument("--out", help="run output directory")
        p.add_argument("--json", action="store_true", help="machine-readable stdout")

    p = sub.add_parser("synth-data", help="synthesize corpus, manifests and eval splits")
    common(p)

    for stage, (name, _, _) in TRAINING_STAGES.items():
        p = sub.add_parser(name, help=f"run the {stage} training stage")
        common(p)
        p.set_defaults(stage=stage)
        p.add_argument("--epochs", type=int, help="override epoch count for this stage")
        p.add_argument("--quiet", action="store_true", help="suppress per-epoch progress")

    p = sub.add_parser("distance", help="print the perceptual distance between two WAVs")
    p.add_argument("checkpoint")
    p.add_argument("wav_a")
    p.add_argument("wav_b")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("eval", help="run the evaluation suite against a checkpoint")
    common(p)
    p.add_argument("--checkpoint", help="checkpoint path (default: <out>/finetuned.ckpt)")
    p.add_argument("--metrics", help="comma-separated subset of metrics to run")

    p = sub.add_parser("pipeline", help="synth-data, all three stages, then eval")
    common(p)
    return parser


def main(argv=None) -> int:
    _configure_threads()
    parser = build_parser()
    args = parser.parse_args(argv)
    from .errors import CdpamError

    try:
        if args.command == "distance":
            outputs = cmd_distance(args.checkpoint, args.wav_a, args.wav_b, as_json=args.json)
        else:
            stage = getattr(args, "stage", None)
            cfg = resolve_config(args.config, args.seed, args.out, getattr(args, "epochs", None),
                                 stage)
            # --json keeps stdout to the one JSON line, so per-epoch progress is off
            progress = not (args.json or getattr(args, "quiet", False))
            if args.command == "synth-data":
                outputs = cmd_synth_data(cfg, as_json=args.json)
            elif stage:  # looked up per call, so that a wrapped cmd_* attribute is the one run
                run = {"pretrain": cmd_pretrain, "jnd": cmd_train_jnd, "finetune": cmd_finetune}
                outputs = run[stage](cfg, progress=progress)
            elif args.command == "eval":
                metrics = args.metrics.split(",") if args.metrics else None
                outputs = cmd_eval(cfg, ckpt_path=args.checkpoint, metrics=metrics,
                                   as_json=args.json)
            else:
                outputs = run_pipeline(cfg, progress=progress, as_json=args.json)
        if args.json:
            print(json.dumps(outputs, sort_keys=True))
    except (CdpamError, FileNotFoundError, NotADirectoryError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # internal failure
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
