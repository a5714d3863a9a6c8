"""Command-line interface.

Commands: gen-data, train, eval, predict, bench, export-graph, vqa-export.
Shared flags: --seed, --config <json>, --threads (no effect), --out <dir>. Exit codes:
0 success, 2 validation/config failure, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .annotations import dumps_canonical, load_annotation
from .backbone import CapacityError
from .baselines import DEPTHMAP_HEURISTICS
from .bench import report_text, run_bench, save_report
from .dataset import VAL_SEED_OFFSET, load_dataset, load_sample, write_dataset
from .evaluation import evaluate, heuristic_predictor, model_predictor
from .head import NothingToOrder
from .layers import ConfigError, config_from_dict
from .matching import InputError
from .metrics import report_json, report_table
from .orders import DataError, StructuralError, matrix_to_pairs, to_dot
from .oten import FormatError
from .synth import SceneConfig
from .training import HolisticModel, ModelConfig, TrainConfig, save_curves, train
from .vqa import vqa_export, write_jsonl

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DATA = 3

BASELINES = ("yaxis", "area") + tuple(f"depthmap-{h}" for h in DEPTHMAP_HEURISTICS)


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from exc


def scene_config(cfg: dict) -> SceneConfig:
    return config_from_dict(SceneConfig, cfg.get("scene", {}), "scene")


def model_config(cfg: dict) -> ModelConfig:
    return config_from_dict(ModelConfig, cfg.get("model", {}), "model")


def train_config(cfg: dict, seed: int | None) -> TrainConfig:
    tc = config_from_dict(TrainConfig, cfg.get("train", {}), "train")
    if seed is not None:
        tc.seed = seed
    return tc


def _add_common(p: argparse.ArgumentParser, out_required: bool = False) -> None:
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--config", type=str, default=None, help="JSON config file")
    p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
    p.add_argument("--out", type=str, required=out_required, help="output directory")


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    scfg = scene_config(cfg)
    data = cfg.get("data", {})
    train_count = int(data.get("train_count", 2000))
    val_count = int(data.get("val_count", 200))
    out = Path(args.out)
    write_dataset(out / "train", train_count, scfg, args.seed)
    write_dataset(out / "val", val_count, scfg, args.seed + VAL_SEED_OFFSET)
    print(f"wrote {train_count} train / {val_count} val scenes under {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    mc = model_config(cfg)
    tc = train_config(cfg, args.seed)
    data_dir = Path(args.data)
    train_samples = load_dataset(data_dir / "train")
    val_dir = data_dir / "val"
    val_samples = load_dataset(val_dir) if val_dir.exists() else None
    model = HolisticModel(np.random.default_rng(tc.seed), mc)
    result = train(model, train_samples, tc, val_samples=val_samples, log=print)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model.load_state_arrays(result.best_state)
    model.save(out / "checkpoint")
    save_curves(out / "curves.json", result)
    print(f"checkpoint (best step {result.best_step}) saved under {out / 'checkpoint'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    if (args.checkpoint is None) == (args.baseline is None):
        raise ConfigError("pass exactly one of --checkpoint or --baseline")
    if args.baseline is not None:
        if args.baseline not in BASELINES:
            raise ConfigError(f"--baseline must be one of {BASELINES}")
        predictor = heuristic_predictor(args.baseline, tau=args.tau)
        name = args.baseline
    else:
        model = HolisticModel.load(args.checkpoint)
        predictor = model_predictor(model, decoupled=True, coherence=args.coherence)
        name = "holistic"
    samples = load_dataset(args.data)
    report = evaluate(samples, predictor, aggregate=args.aggregate)
    payload = report.to_payload()
    payload["predictor"] = name
    text = report_table(report.metrics)
    print(text, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.json").write_text(report_json(report.metrics, {k: v for k, v in payload.items() if k != "metrics"}), encoding="utf-8")
        (out / "metrics.txt").write_text(text, encoding="utf-8")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = HolisticModel.load(args.checkpoint)
    sample_path = Path(args.data) / f"scene_{args.index:05d}.json"
    sample = load_sample(sample_path)
    try:
        pred = model.predict(sample, decoupled=False, coherence=not args.raw)
    except NothingToOrder as exc:
        print(f"nothing to order: {exc}")
        if args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            (Path(args.out) / "prediction.json").write_text(
                dumps_canonical({"version": 1, "no_order": True, "detected": exc.count}), encoding="utf-8"
            )
        return EXIT_OK
    payload = {"version": 1, "image": sample_path.stem + ".ppm", "predictions": {}}
    labels = None
    if pred.occlusion is not None:
        payload["predictions"]["occlusion"] = [
            {"i": i, "j": j} for i, j, _, _ in matrix_to_pairs(pred.occlusion)
        ]
    if pred.depth is not None:
        payload["predictions"]["depth"] = [
            {"i": i, "j": j, "rel": rel, "count": count} for i, j, rel, count in matrix_to_pairs(pred.depth)
        ]
    text = dumps_canonical(payload)
    print(text, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "prediction.json").write_text(text, encoding="utf-8")
        (out / "graph.dot").write_text(to_dot(pred.occlusion, pred.depth, labels), encoding="utf-8")
    return EXIT_OK


def cmd_bench(args) -> int:
    n_list = tuple(int(x) for x in args.n_list.split(","))
    rows = run_bench(n_list=n_list, repeats=args.repeats, seed=args.seed)
    print(report_text(rows), end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        save_report(out / "bench.json", rows)
    return EXIT_OK


def cmd_export_graph(args) -> int:
    ann = load_annotation(args.annotation)
    labels = [f"{inst.category}{inst.id}" for inst in sorted(ann.instances, key=lambda m: m.id)]
    dot = to_dot(ann.occlusion, ann.depth, labels)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "graph.dot").write_text(dot, encoding="utf-8")
    print(dot, end="")
    return EXIT_OK


def cmd_vqa_export(args) -> int:
    records = []
    paths = sorted(Path(args.data).glob("scene_*.json"))
    if not paths:
        raise DataError(f"no scene_*.json files under {args.data}")
    for path in paths:
        records.extend(vqa_export(load_annotation(path)))
    out_file = Path(args.out_file)
    out_file.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(out_file, records)
    print(f"wrote {len(records)} VQA records to {out_file}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sceneorder", description="holistic instance order prediction harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset (train/ and val/)")
    _add_common(p, out_required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a generated dataset")
    _add_common(p, out_required=True)
    p.add_argument("--data", required=True, help="dataset root with train/ (and optionally val/)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="decoupled evaluation of a checkpoint or baseline")
    _add_common(p)
    p.add_argument("--data", required=True, help="directory of scene_*.json samples")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--baseline", default=None, help=f"one of {', '.join(BASELINES)}")
    p.add_argument("--aggregate", choices=("macro", "micro"), default="macro")
    p.add_argument("--coherence", action="store_true", help="resolve depth conflicts before scoring")
    p.add_argument("--tau", type=float, default=0.0, help="overlap threshold for depth-map heuristics")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="threshold-based inference on one stored scene")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--raw", action="store_true", help="skip the depth coherence post-processor")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("bench", help="inference-cost benchmark (holistic vs pairwise)")
    _add_common(p)
    p.add_argument("--n-list", default="2,5,10,15,20")
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("export-graph", help="render an annotation as Graphviz DOT")
    _add_common(p)
    p.add_argument("--annotation", required=True)
    p.set_defaults(fn=cmd_export_graph)

    p = sub.add_parser("vqa-export", help="convert annotations to VQA JSONL")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out-file", required=True)
    p.set_defaults(fn=cmd_vqa_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, StructuralError, InputError, CapacityError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DataError, FormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
