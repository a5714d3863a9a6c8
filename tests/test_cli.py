from __future__ import annotations

import json
import shutil
import struct
from pathlib import Path

import pytest

from sceneorder.cli import main

TINY_CONFIG = {
    "scene": {"n_min": 2, "n_max": 3, "size": 32},
    "data": {"train_count": 6, "val_count": 3},
    "model": {
        "num_queries": 4,
        "channels": 24,
        "image_size": 32,
        "head": {
            "channels": 24,
            "heads": 2,
            "d_ffn": 32,
            "decoder_layers": 1,
            "aux_loss": False,
            "task_mlp_hidden": 8,
        },
    },
    "train": {"iterations": 8, "batch_size": 2, "eval_every": 4, "log_every": 4},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    data = root / "data"
    assert main(["gen-data", "--out", str(data), "--config", str(config), "--seed", "1"]) == 0
    run = root / "run"
    assert main(["train", "--data", str(data), "--out", str(run), "--config", str(config), "--seed", "1"]) == 0
    return {"root": root, "config": config, "data": data, "run": run}


def test_gen_data_layout(workspace):
    data = workspace["data"]
    assert len(list((data / "train").glob("scene_*.json"))) == 6
    assert len(list((data / "val").glob("scene_*.ppm"))) == 3
    assert list((data / "val").glob("scene_*_depth.pgm"))
    assert list((data / "val").glob("scene_*_mask_0.pgm"))


def test_train_outputs(workspace):
    run = workspace["run"]
    assert (run / "checkpoint" / "manifest.json").exists()
    curves = json.loads((run / "curves.json").read_text())
    assert curves["loss_curve"]


def test_eval_checkpoint_and_baseline(workspace, tmp_path):
    out = tmp_path / "eval"
    code = main(
        [
            "eval",
            "--checkpoint",
            str(workspace["run"] / "checkpoint"),
            "--data",
            str(workspace["data"] / "val"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert "occlusion_recall" in metrics["metrics"]
    assert "whdr_all" in metrics["metrics"]
    assert (out / "metrics.txt").read_text().startswith("metric")
    assert main(["eval", "--baseline", "yaxis", "--data", str(workspace["data"] / "val")]) == 0
    assert main(["eval", "--baseline", "depthmap-median", "--data", str(workspace["data"] / "val")]) == 0


def test_eval_rejects_both_model_and_baseline(workspace):
    code = main(
        [
            "eval",
            "--checkpoint",
            "x",
            "--baseline",
            "yaxis",
            "--data",
            str(workspace["data"] / "val"),
        ]
    )
    assert code == 2


def test_eval_missing_data_is_data_error(workspace, tmp_path):
    code = main(["eval", "--baseline", "yaxis", "--data", str(tmp_path / "nope")])
    assert code == 3


def test_predict_writes_prediction_and_graph(workspace, tmp_path):
    out = tmp_path / "pred"
    code = main(
        [
            "predict",
            "--checkpoint",
            str(workspace["run"] / "checkpoint"),
            "--data",
            str(workspace["data"] / "val"),
            "--index",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "prediction.json").read_text())
    assert "predictions" in payload or payload.get("no_order")
    if "predictions" in payload:
        assert (out / "graph.dot").read_text().startswith("digraph")


def test_export_graph(workspace, tmp_path):
    ann = sorted((workspace["data"] / "val").glob("scene_*.json"))[0]
    out = tmp_path / "graph"
    assert main(["export-graph", "--annotation", str(ann), "--out", str(out)]) == 0
    assert (out / "graph.dot").read_text().startswith("digraph")


def test_vqa_export(workspace, tmp_path):
    out_file = tmp_path / "vqa.jsonl"
    code = main(["vqa-export", "--data", str(workspace["data"] / "val"), "--out-file", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert all(r["answer"] in ("yes", "no") for r in records)
    # count: sum over scenes of 2n(n-1)
    total = 0
    from sceneorder.annotations import load_annotation

    for path in sorted((workspace["data"] / "val").glob("scene_*.json")):
        n = len(load_annotation(path).instances)
        total += 2 * n * (n - 1)
    assert len(records) == total


def test_bench_cli(tmp_path):
    out = tmp_path / "bench"
    assert main(["bench", "--n-list", "2,3", "--repeats", "1", "--out", str(out)]) == 0
    payload = json.loads((out / "bench.json").read_text())
    assert payload["claims"]["holistic_forwards_always_one"]


def test_bad_config_is_data_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["gen-data", "--out", str(tmp_path / "d"), "--config", str(bad)]) == 3


def test_invalid_scene_config_is_validation_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scene": {"n_min": 1, "n_max": 3}}))
    assert main(["gen-data", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 2


def test_more_instances_than_queries_is_validation_error(workspace, tmp_path, capsys):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg["model"]["num_queries"] = 1  # every scene has at least n_min = 2 instances
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["train", "--data", str(workspace["data"]), "--out", str(tmp_path / "run"), "--config", str(path)])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("validation error:") and "exceed 1 queries" in err and "\n" not in err


@pytest.mark.parametrize(
    "section, key",
    [("scene", "nmin"), ("model", "backbonee"), ("model.head", "layers"), ("train", "iters")],
)
def test_unknown_config_key_is_validation_error(tmp_path, capsys, section, key):
    cfg = {key: 1}
    for name in reversed(section.split(".")):
        cfg = {name: cfg}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    command = ["gen-data"] if section == "scene" else ["train", "--data", str(tmp_path / "data")]
    assert main([*command, "--out", str(tmp_path / "out"), "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{section}: unknown key {key!r}" in err


def _damage(path: Path, target: str, how: str) -> None:
    blob = path.read_bytes()
    if how == "truncate":
        blob = blob[: len(blob) // 2]
    elif how == "six bytes":
        blob = blob[:6]
    elif target in ("annotation", "manifest"):  # drop a required top-level key
        obj = json.loads(blob)
        del obj["image" if target == "annotation" else "tensors"]
        blob = json.dumps(obj).encode()
    elif target == "oten":  # a rank whose dims run past the end of the file
        blob = blob[:8] + struct.pack("<I", 200) + blob[12:]
    else:  # PPM/PGM: halve the width
        magic, dims, rest = blob.split(b"\n", 2)
        width, height = dims.split()
        blob = b"\n".join([magic, b"%d %s" % (int(width) // 2, height), rest])
    path.write_bytes(blob)


@pytest.mark.parametrize(
    "target, how",
    [
        ("annotation", "truncate"),
        ("annotation", "mutate"),
        ("ppm", "truncate"),
        ("ppm", "mutate"),
        ("pgm16", "truncate"),
        ("pgm16", "mutate"),
        ("oten", "truncate"),
        ("oten", "mutate"),
        ("oten", "six bytes"),
        ("manifest", "truncate"),
        ("manifest", "mutate"),
    ],
)
def test_malformed_data_file_exits_with_one_line(workspace, tmp_path, capsys, target, how):
    data, ckpt = tmp_path / "val", tmp_path / "checkpoint"
    shutil.copytree(workspace["data"] / "val", data)
    shutil.copytree(workspace["run"] / "checkpoint", ckpt)
    path = {
        "annotation": data / "scene_00000.json",
        "ppm": data / "scene_00000.ppm",
        "pgm16": data / "scene_00000_depth.pgm",
        "oten": max(ckpt.glob("*.oten"), key=lambda p: p.stat().st_size),
        "manifest": ckpt / "manifest.json",
    }[target]
    _damage(path, target, how)
    capsys.readouterr()
    if target == "annotation":
        code = main(["export-graph", "--annotation", str(path)])
    else:
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data)])
    err = capsys.readouterr().err
    assert code in (2, 3)
    assert err.count("\n") == 1 and err.startswith(("data error:", "validation error:")), err
