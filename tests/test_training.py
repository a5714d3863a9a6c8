from __future__ import annotations

import numpy as np
import pytest

from sceneorder.dataset import sample_from_seed
from sceneorder.head import HeadConfig
from sceneorder.layers import ConfigError
from sceneorder.synth import SceneConfig
from sceneorder.training import (
    HolisticModel,
    ModelConfig,
    TrainConfig,
    TrainingDiverged,
    train,
)

SMALL_MODEL = ModelConfig(
    num_queries=4,
    channels=24,
    image_size=32,
    head=HeadConfig(channels=24, heads=2, d_ffn=32, decoder_layers=1, aux_loss=False, task_mlp_hidden=8),
)
SMALL_SCENE = SceneConfig(size=32, n_min=2, n_max=3)


def small_samples(count, offset=0):
    return [sample_from_seed(offset + s, SMALL_SCENE) for s in range(count)]


def test_zero_iterations_keeps_init():
    model = HolisticModel(np.random.default_rng(0), SMALL_MODEL)
    before = {k: v.copy() for k, v in model.state_arrays().items()}
    result = train(model, small_samples(4), TrainConfig(iterations=0, batch_size=2))
    for k, v in model.state_arrays().items():
        np.testing.assert_array_equal(v, before[k])
    assert result.best_state.keys() == before.keys()


def test_loss_decreases_on_smoke_run():
    model = HolisticModel(np.random.default_rng(0), SMALL_MODEL)
    samples = small_samples(16)
    result = train(model, samples, TrainConfig(iterations=200, batch_size=4, log_every=10, eval_every=10**9))
    first = np.mean([v for _, v in result.loss_curve[:3]])
    last = np.mean([v for _, v in result.loss_curve[-3:]])
    assert last < first


def test_lr_schedule_drops_at_two_thirds():
    tc = TrainConfig(iterations=300)
    from sceneorder.optim import StepSchedule

    sched = StepSchedule(tc.base_lr, tc.iterations, tc.decay_fractions, tc.decay_factor)
    assert sched.lr_at(199) == tc.base_lr
    assert sched.lr_at(200) == pytest.approx(tc.base_lr * 0.1)
    assert sched.lr_at(275) == pytest.approx(tc.base_lr * 0.01)


def test_training_deterministic_given_seed():
    samples = small_samples(8)
    states = []
    for _ in range(2):
        model = HolisticModel(np.random.default_rng(7), SMALL_MODEL)
        train(model, samples, TrainConfig(iterations=20, batch_size=2, seed=3, eval_every=10**9))
        states.append(model.state_arrays())
    for k in states[0]:
        np.testing.assert_array_equal(states[0][k], states[1][k])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf params produce NaNs by design here
def test_divergence_aborts_with_diagnostic():
    model = HolisticModel(np.random.default_rng(0), SMALL_MODEL)
    for p in model.params():
        p.data *= np.inf
    with pytest.raises(TrainingDiverged):
        train(model, small_samples(2), TrainConfig(iterations=2, batch_size=1))


def test_best_checkpoint_tracks_validation():
    model = HolisticModel(np.random.default_rng(0), SMALL_MODEL)
    result = train(
        model,
        small_samples(8),
        TrainConfig(iterations=40, batch_size=2, eval_every=10),
        val_samples=small_samples(4, offset=100),
    )
    assert result.val_curve
    assert result.best_val == min(v for _, v in result.val_curve)


def test_checkpoint_roundtrip(tmp_path):
    model = HolisticModel(np.random.default_rng(1), SMALL_MODEL)
    model.save(tmp_path / "ckpt")
    back = HolisticModel.load(tmp_path / "ckpt")
    assert back.config.to_dict() == SMALL_MODEL.to_dict()
    sample = small_samples(1)[0]
    a = model.predict(sample)
    b = back.predict(sample)
    # float32 checkpoint quantization: predictions agree on this sample
    np.testing.assert_array_equal(a.occlusion.entries, b.occlusion.entries)


def test_empty_training_set_rejected():
    model = HolisticModel(np.random.default_rng(0), SMALL_MODEL)
    with pytest.raises(ConfigError):
        train(model, [], TrainConfig(iterations=1))


def test_adapters_require_tiny_backbone():
    with pytest.raises(ConfigError):
        ModelConfig(backbone="oracle", adapters="ffn_only").validate()


def test_tiny_backbone_model_trains_one_step():
    mc = ModelConfig(
        backbone="tiny",
        num_queries=6,
        channels=24,
        image_size=32,
        head=HeadConfig(channels=24, heads=2, d_ffn=32, decoder_layers=1, aux_loss=False, task_mlp_hidden=8),
    )
    model = HolisticModel(np.random.default_rng(0), mc)
    result = train(model, small_samples(2), TrainConfig(iterations=2, batch_size=1, eval_every=10**9))
    assert len(result.loss_curve) >= 1


def test_training_on_three_then_six_instances():
    # One model, two training lists of different instance counts.
    head = HeadConfig(channels=32, heads=2, d_ffn=32, decoder_layers=1, aux_loss=False, task_mlp_hidden=8)
    model = HolisticModel(np.random.default_rng(0), ModelConfig(num_queries=8, channels=32, head=head))
    for n in (3, 6):
        samples = [sample_from_seed(s, SceneConfig(n_min=n, n_max=n)) for s in range(2)]
        result = train(model, samples, TrainConfig(iterations=1, batch_size=2, eval_every=10**9))
        assert np.isfinite(result.loss_curve[-1][1])


def test_oracle_assignment_is_identity_and_checked():
    from sceneorder.backbone import compute_masks, oracle_backbone, quarter_masks
    from sceneorder.training import _oracle_assignment

    sample = small_samples(1)[0]
    bb = oracle_backbone(sample, SMALL_MODEL.channels, SMALL_MODEL.num_queries)
    masks, gt = compute_masks(bb.Q, bb.P), quarter_masks(sample)
    assert _oracle_assignment(masks, gt).pairs == tuple((i, i) for i in range(sample.n))
    masks[0, 0, 0] ^= 1
    with pytest.raises(RuntimeError):
        _oracle_assignment(masks, gt)


def test_rgb_path_matches_once_with_unchanged_loss(monkeypatch):
    from sceneorder import backbone, training
    from sceneorder.autograd import no_grad
    from sceneorder.matching import match_segments

    mc = ModelConfig(
        backbone="tiny",
        num_queries=6,
        channels=24,
        image_size=32,
        head=HeadConfig(channels=24, heads=2, d_ffn=32, decoder_layers=1, aux_loss=False, task_mlp_hidden=8),
    )
    model = HolisticModel(np.random.default_rng(0), mc)
    sample = small_samples(1)[0]
    assignments = []

    def counted(*args):
        assignments.append(match_segments(*args))
        return assignments[-1]

    monkeypatch.setattr(training, "match_segments", counted)
    monkeypatch.setattr(backbone, "match_segments", counted)
    loss = model.training_loss(sample)
    assert len(assignments) == 1
    # training_loss matched the same assignment as matching the masks
    # Q.P >= 0 directly, so its backbone loss is unchanged.
    with no_grad():
        bb = model.backbone_output(sample)
    gt = backbone.quarter_masks(sample)
    c, h, w = bb.P.shape
    binary = (bb.Q.data @ bb.P.data.reshape(c, h * w) >= 0.0).astype(np.uint8)
    direct = match_segments(list(binary.reshape(-1, h, w)), bb.confidences, list(gt))
    assert assignments == [direct]
    assert np.isfinite(loss.item())
