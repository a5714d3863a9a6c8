"""Model bundle (backbone + order head) and the training loop.

The desk-scale default recipe mirrors the reference schedule's shape
(two x0.1 learning-rate drops at 2/3 and 11/12 of the run) at a scale
where a freshly initialized head actually trains; the verbatim
large-scale recipe ships as configs/paper_scale.json.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .backbone import BackboneOutput, TinyBackbone, backbone_losses, compute_masks, oracle_backbone, quarter_masks
from .head import HeadConfig, OrderHead
from .layers import ConfigError, Module, config_from_dict
from .losses import order_losses
from .matching import Assignment, match_segments
from .oten import load_checkpoint, save_checkpoint
from .orders import DepthMatrix, OcclusionMatrix
from .optim import AdamW, StepSchedule
from .synth import SceneSample


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class ModelConfig:
    backbone: str = "oracle"  # "oracle" | "tiny"
    num_queries: int = 16
    channels: int = 64
    image_size: int = 64
    adapters: str | None = None  # None | "ffn_only" | "attn_and_ffn"
    adapter_dim: int = 64
    head: HeadConfig = field(default_factory=HeadConfig)

    def validate(self) -> None:
        if self.backbone not in ("oracle", "tiny"):
            raise ConfigError(f"unknown backbone {self.backbone!r}")
        if self.adapters is not None and self.backbone != "tiny":
            raise ConfigError("adapters require the learned backbone")
        self.head.validate()

    def to_dict(self) -> dict:
        d = asdict(self)
        d["head"]["tasks"] = list(self.head.tasks)
        return d


@dataclass
class TrainConfig:
    iterations: int = 4500
    base_lr: float = 1e-3
    decay_fractions: tuple = (2.0 / 3.0, 11.0 / 12.0)
    decay_factor: float = 0.1
    batch_size: int = 8
    lam_o: float = 5.0
    lam_d: float = 5.0
    weight_decay: float = 1e-4
    seed: int = 0
    eval_every: int = 500
    log_every: int = 50


@dataclass
class Prediction:
    masks: np.ndarray | None
    confidences: np.ndarray | None
    occlusion: OcclusionMatrix | None
    depth: DepthMatrix | None
    gt_aligned: bool = False


def _oracle_assignment(masks: np.ndarray, gt_q: np.ndarray) -> Assignment:
    """Query i to ground truth i, which is how the oracle backbone builds
    its queries; checks that the masks reproduce the ground truth."""
    n = gt_q.shape[0]
    if not (np.array_equal(masks[:n], gt_q) and not masks[n:].any()):
        raise RuntimeError("oracle backbone masks do not reproduce the ground-truth quarter masks")
    empty = int((gt_q.reshape(n, -1).sum(axis=1) == 0).sum())  # 1 - IoU is 1 for an empty mask
    return Assignment(tuple((i, i) for i in range(n)), float(empty))


class HolisticModel(Module):
    """Backbone + order head with a single-forward-per-image predict path.

    Parameters and checkpoint arrays are named ``head.*`` and
    ``backbone.*`` after the attributes that hold them.
    """

    def __init__(self, rng: np.random.Generator, config: ModelConfig):
        config.validate()
        self.config = config
        self.head = OrderHead(rng, config.head)
        self.backbone = None
        if config.backbone == "tiny":
            self.backbone = TinyBackbone(
                rng,
                image_size=config.image_size,
                channels=config.channels,
                heads=config.head.heads,
                num_queries=config.num_queries,
            )
            if config.adapters is not None:
                self.backbone.freeze()
                self.backbone.enable_adapters(rng, config.adapters, config.adapter_dim)

    # -- checkpoints --

    def save(self, directory) -> None:
        save_checkpoint(directory, self.state_arrays(), self.config.to_dict())

    @staticmethod
    def load(directory, rng=None) -> "HolisticModel":
        arrays, config = load_checkpoint(directory)
        model = HolisticModel(rng or np.random.default_rng(0), config_from_dict(ModelConfig, config, "model"))
        model.load_state_arrays(arrays)
        return model

    # -- forward paths --

    def backbone_output(self, sample: SceneSample) -> BackboneOutput:
        if self.backbone is not None:
            return self.backbone.forward(sample.image)
        return oracle_backbone(sample, self.config.channels, self.config.num_queries)

    def training_loss(self, sample: SceneSample):
        """Order loss plus, with the tiny backbone, the backbone loss.

        The auxiliary decoder layers' terms are included only while a tape
        records; under ``no_grad`` the order loss is the final layer's.
        """
        bb = self.backbone_output(sample)
        masks = compute_masks(bb.Q, bb.P)
        gt_q = quarter_masks(sample)
        if self.config.backbone == "oracle":
            assignment = _oracle_assignment(masks, gt_q)
        else:
            assignment = match_segments(list(masks), bb.confidences, list(gt_q))
        out = self.head.forward(bb, masks, assignment=assignment)
        tasks = self.config.head.tasks
        loss = order_losses(
            out,
            sample.gt_occlusion if "occlusion" in tasks else None,
            sample.gt_depth if "depth" in tasks else None,
        )
        if self.config.backbone == "tiny":
            loss = loss + backbone_losses(bb, gt_q, assignment)
        return loss

    def predict(self, sample: SceneSample, decoupled: bool = True, coherence: bool = False) -> Prediction:
        """Holistic inference.

        decoupled=True matches every query to ground truth (evaluation
        protocol); decoupled=False keeps queries above the confidence
        threshold (deployment inference).
        """
        from .autograd import no_grad

        with no_grad():
            bb = self.backbone_output(sample)
            masks = compute_masks(bb.Q, bb.P)
            assignment = None
            if decoupled:
                assignment = match_segments(list(masks), bb.confidences, list(quarter_masks(sample)))
            out = self.head.forward(bb, masks, assignment=assignment)
        ids = out.selected_ids
        tasks = self.config.head.tasks
        return Prediction(
            masks=masks[ids],
            confidences=bb.confidences[ids],
            occlusion=out.occlusion_matrix() if "occlusion" in tasks else None,
            depth=out.depth_matrix(coherence=coherence) if "depth" in tasks else None,
            gt_aligned=decoupled,
        )


@dataclass
class TrainResult:
    loss_curve: list  # (step, train_loss)
    val_curve: list  # (step, val_loss)
    best_step: int
    best_val: float
    best_state: dict


def _mean_val_loss(model: HolisticModel, samples, limit: int = 32) -> float:
    losses = []
    for sample in samples[:limit]:
        losses.append(model.training_loss(sample).item())
    return float(np.mean(losses)) if losses else float("nan")


def train(model: HolisticModel, train_samples, config: TrainConfig, val_samples=None, log=None) -> TrainResult:
    """AdamW over shuffled batches with the stepped lr schedule.

    Deterministic given the seed in single-threaded mode; aborts with a
    diagnostic on non-finite loss. iterations=0 returns the initial state.
    """
    if not train_samples:
        raise ConfigError("empty training set")
    rng = np.random.default_rng(config.seed)
    params = model.params()
    opt = AdamW(params, lr=config.base_lr, weight_decay=config.weight_decay)
    schedule = StepSchedule(config.base_lr, config.iterations, config.decay_fractions, config.decay_factor)
    loss_curve: list = []
    val_curve: list = []
    best_state = {k: v.copy() for k, v in model.state_arrays().items()}
    best_val = float("inf")
    best_step = 0

    order = rng.permutation(len(train_samples))
    cursor = 0
    for step in range(config.iterations):
        opt.lr = schedule.lr_at(step)
        model.zero_grad()
        batch_loss = 0.0
        for _ in range(config.batch_size):
            if cursor == len(order):
                order = rng.permutation(len(train_samples))
                cursor = 0
            idx = int(order[cursor])
            cursor += 1
            loss = model.training_loss(train_samples[idx]) * (1.0 / config.batch_size)
            if not np.isfinite(loss.data).all():
                raise TrainingDiverged(f"non-finite loss at step {step} (sample {idx})")
            loss.backward()
            batch_loss += loss.item()
        opt.step()
        if step % config.log_every == 0 or step == config.iterations - 1:
            loss_curve.append((step, batch_loss))
            if log:
                log(f"step {step:6d}  lr {opt.lr:.2e}  loss {batch_loss:.4f}")
        if val_samples and ((step + 1) % config.eval_every == 0 or step == config.iterations - 1):
            val_loss = _mean_val_loss(model, val_samples)
            val_curve.append((step, val_loss))
            if val_loss < best_val:
                best_val = val_loss
                best_step = step
                best_state = {k: v.copy() for k, v in model.state_arrays().items()}
            if log:
                log(f"step {step:6d}  val loss {val_loss:.4f}")

    if not val_samples:
        best_state = {k: v.copy() for k, v in model.state_arrays().items()}
        best_step = config.iterations
    return TrainResult(loss_curve, val_curve, best_step, best_val, best_state)


def save_curves(path, result: TrainResult) -> None:
    payload = {
        "loss_curve": [[int(s), float(v)] for s, v in result.loss_curve],
        "val_curve": [[int(s), float(v)] for s, v in result.val_curve],
        "best_step": int(result.best_step),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")
