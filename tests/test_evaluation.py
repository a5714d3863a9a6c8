from __future__ import annotations

import numpy as np
import pytest

from sceneorder.backbone import quarter_masks
from sceneorder.dataset import sample_from_seed
from sceneorder.evaluation import align_to_gt, evaluate, heuristic_predictor, model_predictor
from sceneorder.head import HeadConfig
from sceneorder.orders import DepthMatrix, OcclusionMatrix
from sceneorder.synth import SceneConfig
from sceneorder.training import HolisticModel, ModelConfig, Prediction

SCENE = SceneConfig(size=32, n_min=2, n_max=4)
MODEL = ModelConfig(
    num_queries=4,
    channels=24,
    image_size=32,
    head=HeadConfig(channels=24, heads=2, d_ffn=32, decoder_layers=1, aux_loss=False, task_mlp_hidden=8),
)


def samples_for(count, offset=0):
    return [sample_from_seed(offset + s, SCENE) for s in range(count)]


def oracle_predictor(sample):
    return Prediction(
        masks=None,
        confidences=None,
        occlusion=sample.gt_occlusion.copy(),
        depth=sample.gt_depth.copy(),
        gt_aligned=True,
    )


def test_ground_truth_predictor_is_perfect():
    report = evaluate(samples_for(10), oracle_predictor)
    m = report.metrics
    assert m["occlusion_f1"]["value"] == pytest.approx(1.0)
    assert m["whdr_all"]["value"] == pytest.approx(0.0)
    assert report.samples == 10


def test_all_zero_occlusion_gets_zero_recall():
    def zeros(sample):
        return Prediction(None, None, OcclusionMatrix.empty(sample.n), None, gt_aligned=True)

    report = evaluate(samples_for(10), zeros)
    assert report.metrics["occlusion_recall"]["value"] == 0.0
    assert "occlusion_precision" not in report.metrics  # skipped everywhere


def test_instance_storage_order_invariance():
    samples = samples_for(6)

    def permuted_view(sample, perm):
        import copy

        out = copy.deepcopy(sample)
        out.masks = out.masks[perm]
        out.categories = [sample.categories[i] for i in perm]
        ix = np.ix_(perm, perm)
        out.gt_occlusion.entries = out.gt_occlusion.entries[ix]
        out.gt_depth.entries = out.gt_depth.entries[ix]
        out.gt_depth.pair_weights = out.gt_depth.pair_weights[ix]
        return out

    rng = np.random.default_rng(0)
    permuted = [permuted_view(s, rng.permutation(s.n)) for s in samples]
    r1 = evaluate(samples, heuristic_predictor("yaxis"))
    r2 = evaluate(permuted, heuristic_predictor("yaxis"))
    for key in r1.metrics:
        assert r1.metrics[key]["value"] == pytest.approx(r2.metrics[key]["value"])


def test_model_predictor_runs_decoupled():
    model = HolisticModel(np.random.default_rng(0), MODEL)
    report = evaluate(samples_for(5), model_predictor(model))
    assert report.samples == 5
    assert "whdr_all" in report.metrics


def test_align_to_gt_unmatched_rows_count_as_errors():
    # 2 predictions for a 3-instance scene: the unmatched instance's pairs
    # must read as misses/disagreements
    pred_occ = OcclusionMatrix.empty(2)
    pred_occ.entries[0, 1] = 1
    pred_depth = DepthMatrix.empty(2)
    pred_depth.entries[0, 1] = 1
    occ, depth = align_to_gt(pred_occ, pred_depth, ((0, 0), (1, 1)), 3)
    assert occ.entries[0, 1] == 1
    assert occ.entries[0, 2] == 0 and occ.entries[2, 1] == 0
    from sceneorder.orders import I_FRONT, NONE, decode_depth

    assert decode_depth(depth).tolist() == [I_FRONT, NONE, NONE]  # pairs (0,1), (0,2), (1,2)


def test_depthmap_heuristic_predictor():
    report = evaluate(samples_for(8), heuristic_predictor("depthmap-median"))
    assert "whdr_all" in report.metrics
    assert "occlusion_f1" not in report.metrics


def test_micro_aggregation_differs_but_bounded():
    samples = samples_for(12)
    macro = evaluate(samples, heuristic_predictor("area")).metrics
    micro = evaluate(samples, heuristic_predictor("area"), aggregate="micro").metrics
    for key in micro:
        assert 0.0 <= micro[key]["value"] <= 1.0
    assert set(macro) == set(micro)
