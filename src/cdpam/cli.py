"""Command-line pipeline: data synthesis, the three training stages,
evaluation, and pairwise distance queries.

Subcommands read a JSON config file (``--config``) merged over built-in
desk-scale defaults, with the ``--seed`` and ``--out`` flags winning over
both; a key the defaults lack, or a value of another type than its default,
is an error.  Every run writes a manifest echoing the fully resolved
configuration and the BLAS thread settings, so a run is reproducible from
its manifest alone.  With ``--json`` a subcommand
prints one JSON line holding its outputs (paths, counts, final losses, metric
values) and nothing else.

Exit codes: 0 success, 1 internal error, 2 usage or input error.  Setting
``CDPAM_THREADS`` to a positive integer caps the BLAS worker pool before numpy
loads; any other non-empty value exits 2 before a file is written.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys

# errors loads no numpy: see _configure_threads
from .errors import CdpamError, ContractError, DataError, check_value

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
    },
}

# the BLAS pool settings a run's manifest records: checkpoints are byte-identical
# only at a fixed thread count
THREAD_VARS = ("CDPAM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
# the training stages in run order, by config key: command and record file read (pretraining
# reads the corpus alone).  A stage loads the checkpoint of the one before it, named after the
# tag that stage writes on its model (_checkpoint_path)
TRAINING_STAGES = {"pretrain": ("pretrain", None),
                   "jnd": ("train-jnd", "jnd.jsonl"),
                   "finetune": ("finetune", "triplets.jsonl")}


def _configure_threads() -> None:
    cap = os.environ.get("CDPAM_THREADS")
    if not cap:
        return
    if not (cap.isascii() and cap.isdigit() and int(cap) > 0):
        raise ContractError(f"CDPAM_THREADS must be a positive integer, got {cap!r}")
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


# the check_value kind of a config leaf, by the type of its default
_LEAF_KINDS = {bool: "bool", int: "int", float: "number", str: "str"}
# check_value's bounds for the leaves that have them, checked once the leaf has its default's
# type.  TrainConfig and the datagen functions hold the same train.* and data.* rules for
# library callers; checked here, a violation names its config key.  The data.eval.* minima
# are the least that every eval metric can score
_LEAF_BOUNDS = {
    "seed": {"lo": 0},
    "data.n_utterances": {"lo": 1}, "data.n_eval_utterances": {"lo": 1},
    "data.n_speakers": {"lo": 1},
    "data.n_jnd_pairs": {"lo": 1}, "data.n_triplets": {"lo": 1},
    "data.jnd_threshold": {"lo": 0, "hi": 1, "ends": "()"}, "data.jnd_sigma": {"lo": 0},
    "data.eval.n_triplets": {"lo": 1}, "data.eval.triplet_gap": {"lo": 0, "hi": 1, "ends": "[)"},
    "data.eval.mono_levels": {"lo": 3}, "data.eval.mono_contents": {"lo": 2},
    "data.eval.common_area_pairs": {"lo": 1}, "data.eval.retrieval_groups": {"lo": 2},
    "data.eval.retrieval_group_size": {"lo": 2}, "data.eval.mos_clips_per_cell": {"lo": 1},
    # two conditions make two (speaker, condition) cells at any speaker count
    "data.eval.mos_conditions": {"lo": 2}, "data.eval.k": {"lo": 1},
    "train.batch_size": {"lo": 1}, "train.tau": {"lo": 0, "ends": "(]"},
    **{f"train.epochs.{stage}": {"lo": 1} for stage in TRAINING_STAGES},
    **{f"train.lr.{stage}": {"lo": 0, "ends": "(]"} for stage in TRAINING_STAGES},
}


def _check_config(value, defaults: dict, path: str = "") -> None:
    """Reject keys the defaults lack, a non-object where the defaults hold one, a leaf
    check_value rejects as a value of its default's type or outside its bounds, a
    families list that is empty, repeats a family or names one outside perturb.FAMILIES,
    and a model object ModelConfig cannot be built from."""
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
        elif dotted == "data.families":
            from .perturb import FAMILIES

            if not (isinstance(item, list) and item and all(f in FAMILIES for f in item)
                    and len(set(item)) == len(item)):
                raise ContractError(f"config key 'data.families' must be a list of one or more "
                                    f"distinct families from {', '.join(FAMILIES)}, got {item!r}")
        else:
            where = f"config key {dotted!r}"
            kind = _LEAF_KINDS[type(defaults[key])]
            check_value(where, item, kind)
            if dotted in _LEAF_BOUNDS:
                check_value(where, item, kind, **_LEAF_BOUNDS[dotted])


def resolve_config(config_path=None, seed=None, out=None) -> dict:
    overrides = []
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                overrides.append(json.load(fh))
            # not UTF-8 JSON, an integer too long to parse or nesting past the recursion limit
            except (ValueError, RecursionError) as err:
                raise ContractError(f"{config_path}: {err}") from err
    # the flags win over the file, and pass the same checks
    flags = {key: value for key, value in (("seed", seed), ("out", out)) if value is not None}
    cfg = DEFAULT_RUN_CONFIG
    for override in overrides + [flags]:
        _check_config(override, DEFAULT_RUN_CONFIG)
        cfg = _deep_merge(cfg, override)
    for name in TRAINING_STAGES:  # every stage's values, before any command writes a file
        _train_config(cfg, name)
    data, ev = cfg["data"], cfg["data"]["eval"]
    pair_utterances = 2 * cfg["train"]["batch_size"]  # an acoustic pair is two utterances
    if data["n_utterances"] < pair_utterances:
        raise ContractError(f"config key 'data.n_utterances' must be at least 2 x "
                            f"'train.batch_size' = {pair_utterances}, got {data['n_utterances']}")
    if ev["retrieval_group_size"] > data["n_eval_utterances"]:  # one utterance per group item
        raise ContractError(f"config key 'data.eval.retrieval_group_size' must be at most "
                            f"'data.n_eval_utterances' = {data['n_eval_utterances']}, "
                            f"got {ev['retrieval_group_size']}")
    items = ev["retrieval_groups"] * ev["retrieval_group_size"]
    if items < ev["k"] + 1:  # P@K ranks each retrieval item's k nearest among the others
        raise ContractError(f"config keys 'data.eval.retrieval_groups' x 'retrieval_group_size' "
                            f"must be at least 'data.eval.k' + 1 = {ev['k'] + 1}, got {items}")
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
        epochs=t["epochs"][stage],
        batch_size=t["batch_size"],
        lr=t["lr"][stage],
        tau=t["tau"],
        margin=t["margin"],
        seed=cfg["seed"],
        augment=t["augment"][stage],
        families=tuple(cfg["data"]["families"]),
    )


def _write_manifest(cfg: dict, out_dir: str, command: str) -> None:
    from .audio import write_json

    threads = {var: os.environ.get(var) for var in THREAD_VARS}
    write_json({"command": command, "config": cfg, "threads": threads},
               os.path.join(out_dir, f"{command}_manifest.json"))


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
    from .evaluate import EVAL_SETS

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
    eval_sets = {  # each metric's eval set; a seed offset stays with its builder
        "two_afc": datagen.oracle_triplets(
            eval_corpus, ev["n_triplets"], seed=seed + 2, families=families,
            min_magnitude_gap=ev["triplet_gap"]),
        "common_area": datagen.build_common_area_sets(
            eval_corpus, ev["common_area_pairs"], seed=seed + 4, families=families),
        "monotonicity": datagen.build_mono_series(
            eval_corpus, families, ev["mono_levels"], ev["mono_contents"], seed=seed + 3),
        "precision_at_k": datagen.build_retrieval_set(
            eval_corpus, ev["retrieval_groups"], ev["retrieval_group_size"], seed=seed + 5,
            families=families),
        "mos_correlation": datagen.build_mos_set(
            eval_corpus, ev["mos_conditions"], ev["mos_clips_per_cell"], seed=seed + 6,
            families=families),
    }

    _write_corpus(corpus, out, "corpus")  # creates `out`
    for stage, records in (("jnd", jnd), ("finetune", triplets)):  # the file the stage reads
        write_jsonl(records, os.path.join(out, TRAINING_STAGES[stage][1]))
    eval_dir = os.path.join(out, "eval")
    _write_corpus(eval_corpus, eval_dir, "corpus")
    for metric, items in eval_sets.items():
        write_jsonl(items, os.path.join(eval_dir, EVAL_SETS[metric][0]))
    _write_manifest(cfg, out, "synth_data")
    if not as_json:
        print(f"corpus, manifests and eval splits written under {out}")
    return {"out": out, "corpus": len(corpus), "jnd_pairs": len(jnd), "triplets": len(triplets),
            "eval": {"corpus": len(eval_corpus),
                     **{metric: len(items) for metric, items in eval_sets.items()}}}


def _checkpoint_path(out: str, stage: str) -> str:
    """The checkpoint `stage` writes under `out`: the tag it gives its model, plus .ckpt.

    trainer, which holds the tags, loads numpy, so it is imported here, once a
    command has capped the BLAS pool (_configure_threads).
    """
    from .trainer import stage_tag

    return os.path.join(out, f"{stage_tag(stage)}.ckpt")


def _run_stage(cfg: dict, stage: str, progress: bool) -> dict:
    """Train `stage` on the run directory's files; write its checkpoint, loss log and
    manifest, and return their paths, the epoch count and the final loss."""
    from . import trainer
    from .datagen import JudgmentRecord, read_jsonl
    from .model import load_checkpoint, save_checkpoint

    command, records_name = TRAINING_STAGES[stage]
    config = _train_config(cfg, stage)
    out = cfg["out"]
    callback = (lambda row: print(f"[{stage}] epoch {row['epoch']}: loss {row['loss']:.5f}",
                                  flush=True)) if progress else None
    if records_name is None:
        # a temporary, held by no name here, so pretraining can free it once its batches exist
        model, rows = trainer.pretrain_contrastive(_read_corpus(out, "corpus"), config,
                                                   _model_config(cfg), progress=callback)
    else:
        records = read_jsonl(os.path.join(out, records_name), JudgmentRecord)
        previous = list(TRAINING_STAGES)[list(TRAINING_STAGES).index(stage) - 1]
        model = load_checkpoint(_checkpoint_path(out, previous))
        train = trainer.train_jnd if stage == "jnd" else trainer.finetune_triplet
        model, rows = train(model, _read_corpus(out, "corpus"), records, config,
                            progress=callback)
    checkpoint = _checkpoint_path(out, stage)
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
    waves = [read_wav(path_a), read_wav(path_b)]
    d = model.distance(*waves)
    if not as_json:
        print(f"{d:.6f}")
    # the model reads each clip resampled to its rate and padded or trimmed to
    # clip_samples, so a longer file's tail never reaches the distance
    return {"distance": d, "sample_rate": model.config.sample_rate,
            "samples_used": model.config.clip_samples,
            "inputs": [{"path": path, "samples": int(w.samples.size), "sample_rate": w.sample_rate}
                       for path, w in zip((path_a, path_b), waves)]}


def load_eval_datasets(eval_dir: str, metrics) -> tuple:
    """The eval corpus and the eval set of each of `metrics`; a name that evaluate.EVAL_SETS
    lacks reads nothing, and is left for run_full_eval to reject."""
    from .datagen import read_jsonl
    from .evaluate import EVAL_SETS

    if not os.path.isdir(eval_dir):
        raise DataError(f"missing eval split directory {eval_dir}")
    corpus = _read_corpus(eval_dir, "corpus")
    datasets = {metric: read_jsonl(os.path.join(eval_dir, filename), cls)
                for metric, (filename, cls) in EVAL_SETS.items() if metric in metrics}
    return corpus, datasets


def cmd_eval(cfg: dict, ckpt_path: str | None = None, metrics=None, as_json: bool = False) -> dict:
    from .evaluate import ALL_METRICS, run_full_eval, write_reports_csv, write_reports_json
    from .model import load_checkpoint

    out = cfg["out"]
    model = load_checkpoint(ckpt_path or _checkpoint_path(out, "finetune"))
    metrics = tuple(metrics) if metrics else ALL_METRICS
    eval_corpus, datasets = load_eval_datasets(os.path.join(out, "eval"), metrics)
    echo = {"seed": cfg["seed"], "families": list(cfg["data"]["families"]),
            "stage": model.stage}
    histogram = os.path.join(out, "common_area_hist.svg")
    reports = run_full_eval(model, eval_corpus, datasets, metrics=metrics,
                            k=cfg["data"]["eval"]["k"], config_echo=echo,
                            histogram_path=histogram)
    if "common_area" not in metrics and os.path.exists(histogram):
        os.remove(histogram)  # an earlier eval's, which the reports below would not describe
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

    for stage, (name, _) in TRAINING_STAGES.items():
        p = sub.add_parser(name, help=f"run the {stage} training stage")
        common(p)
        p.set_defaults(stage=stage)
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
    p.add_argument("--quiet", action="store_true", help="suppress per-epoch progress")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _configure_threads()
        if args.command == "distance":
            outputs = cmd_distance(args.checkpoint, args.wav_a, args.wav_b, as_json=args.json)
        else:
            stage = getattr(args, "stage", None)
            cfg = resolve_config(args.config, args.seed, args.out)
            # --json keeps stdout to the one JSON line, so per-epoch progress is off
            progress = not (args.json or getattr(args, "quiet", False))
            if args.command == "synth-data":
                outputs = cmd_synth_data(cfg, as_json=args.json)
            elif stage:  # looked up per call, so that a wrapped cmd_* attribute is the one run
                run = {"pretrain": cmd_pretrain, "jnd": cmd_train_jnd, "finetune": cmd_finetune}
                outputs = run[stage](cfg, progress=progress)
            elif args.command == "eval":
                metrics = None if args.metrics is None else args.metrics.split(",")
                outputs = cmd_eval(cfg, ckpt_path=args.checkpoint, metrics=metrics,
                                   as_json=args.json)
            else:
                outputs = run_pipeline(cfg, progress=progress, as_json=args.json)
        if args.json:
            print(json.dumps(outputs, sort_keys=True))
    except CdpamError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (FileNotFoundError, NotADirectoryError, IsADirectoryError, PermissionError) as err:
        # a path the user named cannot be opened as the file it should be
        print(f"error: {err.filename}: {err.strerror}" if err.filename else f"error: {err}",
              file=sys.stderr)
        return 2
    except Exception as err:  # internal failure
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
