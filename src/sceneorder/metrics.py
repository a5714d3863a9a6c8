"""Order-prediction metrics: pairwise precision/recall/F1 and WHDR.

Occlusion metrics compare every off-diagonal entry of the binary order
matrices. WHDR (weighted human disagreement rate) compares unordered-pair
depth relations, as ``orders.decode_depth`` reads them off both
matrices, weighted by the annotation weights w = 2/count, split into the
{distinct, overlap, all} ground-truth strata.

Per-sample values are macro-averaged over the samples where they are
defined; micro pooling is available as an option.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .orders import NONE, OVERLAP, DepthMatrix, OcclusionMatrix, StructuralError, decode_depth, pair_indices


@dataclass(frozen=True)
class PrfResult:
    recall: float | None
    precision: float | None
    f1: float | None


def occlusion_prf(pred: OcclusionMatrix, gt: OcclusionMatrix) -> PrfResult:
    if pred.entries.shape != gt.entries.shape:
        raise StructuralError(f"size mismatch: {pred.entries.shape} vs {gt.entries.shape}")
    off = ~np.eye(gt.n, dtype=bool)
    p = pred.entries[off] == 1
    g = gt.entries[off] == 1
    tp = int((p & g).sum())
    recall = tp / g.sum() if g.sum() else None
    precision = tp / p.sum() if p.sum() else None
    if recall is None or precision is None or (precision + recall) == 0:
        f1 = None
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return PrfResult(recall, precision, f1)


def _running_sum(values: np.ndarray) -> float:
    """Sum in pair order, one addition after another, as a loop would."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def whdr_sums(pred: DepthMatrix, gt: DepthMatrix) -> dict[str, tuple[float, float]]:
    """Weighted (disagreement, total) sums per category, keyed on the GT relation."""
    if pred.entries.shape != gt.entries.shape:
        raise StructuralError(f"size mismatch: {pred.entries.shape} vs {gt.entries.shape}")
    g, p = decode_depth(gt), decode_depth(pred)
    w = np.ones(g.size) if gt.pair_weights is None else gt.pair_weights[pair_indices(gt.n)]
    wrong = p != g
    categories = {"distinct": (g != NONE) & (g != OVERLAP), "overlap": g == OVERLAP, "all": g != NONE}
    return {k: (_running_sum(w[sel & wrong]), _running_sum(w[sel])) for k, sel in categories.items()}


def whdr(pred: DepthMatrix, gt: DepthMatrix) -> dict[str, float | None]:
    """WHDR per {distinct, overlap, all} category, keyed on the GT relation.

    Pairs without a ground-truth relation belong to no category. A missing
    predicted relation disagrees with every annotated one.
    """
    return {k: (num / den if den > 0 else None) for k, (num, den) in whdr_sums(pred, gt).items()}


# ---- aggregation -------------------------------------------------------------


class MetricAccumulator:
    """Collects per-sample metric values; macro by default, micro optional."""

    def __init__(self, aggregate: str = "macro"):
        if aggregate not in ("macro", "micro"):
            raise StructuralError(f"unknown aggregation {aggregate!r}")
        self.aggregate = aggregate
        self._values: dict[str, list[float]] = {}
        self._micro: dict[str, list[float]] = {}
        self.skipped = 0

    def add(self, name: str, value: float | None, weight: float = 1.0) -> None:
        if value is None:
            return
        self._values.setdefault(name, []).append(float(value))
        self._micro.setdefault(name, [0.0, 0.0])
        self._micro[name][0] += float(value) * weight
        self._micro[name][1] += weight

    def result(self) -> dict[str, dict[str, float]]:
        out = {}
        for name, values in sorted(self._values.items()):
            if self.aggregate == "macro":
                agg = float(np.mean(values))
            else:
                num, den = self._micro[name]
                agg = num / den if den else float("nan")
            out[name] = {"value": agg, "samples": len(values)}
        return out


def report_json(result: dict, extra: dict | None = None) -> str:
    payload = {"metrics": result}
    if extra:
        payload.update(extra)
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def report_table(result: dict) -> str:
    if not result:
        return "(no metrics)\n"
    name_w = max(len(k) for k in result) + 2
    lines = [f"{'metric'.ljust(name_w)}{'value':>10}  {'samples':>8}"]
    for name, entry in result.items():
        lines.append(f"{name.ljust(name_w)}{entry['value']:>10.4f}  {entry['samples']:>8d}")
    return "\n".join(lines) + "\n"
