"""Decoupled evaluation: match predicted segments to ground truth with the
Hungarian assignment, reindex the predicted order matrices into ground-truth
space, then score orders.

Matching quality and order quality are thereby separated: every ground-truth
instance that has a matching prediction is scored on its pairs, and pairs of
unmatched ground-truth instances count as errors (no positive occlusion
prediction; no depth relation, which disagrees with every annotated one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import quarter_masks
from .head import NothingToOrder
from .matching import match_segments
from .metrics import MetricAccumulator, occlusion_prf, whdr_sums
from .orders import DepthMatrix, OcclusionMatrix, StructuralError
from .synth import SceneSample

@dataclass
class EvalReport:
    metrics: dict
    skipped_small: int
    failed_predictions: int
    samples: int

    def to_payload(self) -> dict:
        return {
            "metrics": self.metrics,
            "samples": self.samples,
            "skipped_small": self.skipped_small,
            "failed_predictions": self.failed_predictions,
        }


def align_to_gt(pred_occ, pred_depth, pairs, n_gt: int):
    """Reindex prediction matrices into ground-truth instance space.

    ``pairs`` maps prediction index -> gt index. Unmatched gt rows/columns
    keep 0, so an unmatched instance's pairs carry no occlusion and no
    depth relation.
    """
    p = np.array([a for a, _ in pairs], dtype=np.int64)
    g = np.array([b for _, b in pairs], dtype=np.int64)
    occ = depth = None
    if pred_occ is not None:
        occ = OcclusionMatrix.empty(n_gt)
        occ.entries[np.ix_(g, g)] = pred_occ.entries[np.ix_(p, p)]
    if pred_depth is not None:
        depth = DepthMatrix.empty(n_gt)
        depth.entries[np.ix_(g, g)] = pred_depth.entries[np.ix_(p, p)]
    return occ, depth


def evaluate(dataset, predictor, aggregate: str = "macro") -> EvalReport:
    """Score a predictor over a dataset.

    ``predictor(sample)`` returns a training.Prediction; gt_aligned
    predictions (heuristics, decoupled model output) are scored directly,
    otherwise segments are Hungarian-matched first. Samples with fewer
    than two instances are skipped and counted.
    """
    acc = MetricAccumulator(aggregate)
    skipped_small = 0
    failed = 0
    scored = 0
    for sample in dataset:
        if sample.n < 2:
            skipped_small += 1
            continue
        try:
            pred = predictor(sample)
        except NothingToOrder:
            failed += 1
            continue
        if pred.gt_aligned:
            occ, depth = pred.occlusion, pred.depth
            if occ is not None and occ.n != sample.n:
                raise StructuralError("gt-aligned prediction has wrong dimension")
        else:
            assignment = match_segments(list(pred.masks), pred.confidences, list(quarter_masks(sample)))
            occ, depth = align_to_gt(pred.occlusion, pred.depth, assignment.pairs, sample.n)
        scored += 1
        if occ is not None:
            prf = occlusion_prf(occ, sample.gt_occlusion)
            g_pos = float((sample.gt_occlusion.entries == 1).sum())
            p_pos = float((occ.entries == 1).sum())
            acc.add("occlusion_recall", prf.recall, weight=g_pos)
            acc.add("occlusion_precision", prf.precision, weight=p_pos)
            acc.add("occlusion_f1", prf.f1)
        if depth is not None:
            for key, (num, den) in whdr_sums(depth, sample.gt_depth).items():
                acc.add(f"whdr_{key}", num / den if den > 0 else None, weight=den)
    metrics = acc.result()
    if aggregate == "micro" and "occlusion_recall" in metrics and "occlusion_precision" in metrics:
        r = metrics["occlusion_recall"]["value"]
        p = metrics["occlusion_precision"]["value"]
        if (p + r) > 0 and "occlusion_f1" in metrics:
            metrics["occlusion_f1"]["value"] = 2 * p * r / (p + r)
    return EvalReport(metrics, skipped_small, failed, scored)


# ---- ready-made predictors -----------------------------------------------------


def heuristic_predictor(kind: str, tau: float = 0.0):
    """Predictors for the non-parametric baselines; outputs live in
    ground-truth index space, so no matching step applies."""
    from .baselines import area_order, depth_from_depthmap, yaxis_depth, yaxis_occlusion
    from .training import Prediction

    def run(sample: SceneSample) -> Prediction:
        masks = list(sample.masks)
        if kind == "yaxis":
            occ, depth = yaxis_occlusion(masks), yaxis_depth(masks)
        elif kind == "area":
            occ, depth = area_order(masks, "occlusion"), area_order(masks, "depth")
        elif kind.startswith("depthmap-"):
            occ, depth = None, depth_from_depthmap(sample.depth_map, masks, kind.split("-", 1)[1], tau)
        else:
            raise StructuralError(f"unknown heuristic {kind!r}")
        return Prediction(masks=None, confidences=None, occlusion=occ, depth=depth, gt_aligned=True)

    return run


def model_predictor(model, decoupled: bool = True, coherence: bool = False):
    def run(sample: SceneSample):
        return model.predict(sample, decoupled=decoupled, coherence=coherence)

    return run


def pairwise_predictor(net):
    from .baselines import pairwise_infer_matrices
    from .training import Prediction

    def run(sample: SceneSample):
        occ, depth = pairwise_infer_matrices(net, sample.image, sample.masks)
        return Prediction(masks=None, confidences=None, occlusion=occ, depth=depth, gt_aligned=True)

    return run
