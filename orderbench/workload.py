"""The three workloads and the phases each run goes through.

A run first makes its inputs: per instance count, a block of scene seeds
(fixed for the training set, derived from --seed for the validation set),
generated in memory and checked against this benchmark's own painter. It
then sets up (write the dataset with the library, load it back, build the
model) and trains for a fixed number of steps. Measurement cycles, each
one decoupled evaluation round, one threshold-mode prediction round and
one pairwise-baseline round over the validation scenes, run until their
share of --seconds is spent. The host's speed drifts over tens of seconds,
so the work is spread over the run: between training steps the set-up is
repeated four more times and, with the oracle backbone, the cycles run
too; with the learned backbone they follow training. Every metric is a
median over reps, steps, rounds or calls.

In a traced run the wrappers are installed for every other training step
and every other cycle, starting with an untraced one, so the run measures
its own overhead against the untraced steps and cycles.
"""

from __future__ import annotations

import copy
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sceneorder import autograd, backbone, baselines, cli, dataset, evaluation, head, matching, optim, synth, training
from sceneorder.layers import ConfigError
from sceneorder.orders import validate_depth, validate_occlusion

import checks
from spans import Tracer

perf_counter = time.perf_counter

# The training set, its shuffle and the network's initialisation are fixed
# parts of a workload, so every run trains the same model; --seed picks the
# validation scenes that evaluation, prediction and the pairwise baseline
# run on. (With a seeded training set the tiny backbone's masks after a few
# steps, and with them the cost of every later phase, vary several-fold.)
MODEL_SEED = 0
DESK_MIX = {3: 6, 4: 6, 5: 12, 6: 8}  # 32 scenes; the median scene has n = 5
CROWDED_MIX = {n: 3 if n == 16 else 2 for n in range(12, 21)}  # 19 scenes; the median has n = 16
MEASURE_SHARE = 0.65  # share of --seconds spent on evaluation, prediction and pairwise cycles


@dataclass
class Workload:
    name: str
    mix: dict  # instance count -> validation scenes; the train set holds train_factor times as many
    train_factor: int
    steps: int  # training steps, even so that a traced run splits them evenly
    scene: dict = field(default_factory=dict)  # overrides of the desk config's "scene"
    model: dict = field(default_factory=dict)  # overrides of its "model"
    head: dict = field(default_factory=dict)  # overrides of its "model.head"
    setup_reps: int = 5
    pairwise_every: int = 1  # cycles per pairwise round; odd, so a traced run traces some

    @property
    def oracle(self) -> bool:
        return self.model.get("backbone", "oracle") == "oracle"

    def quick(self) -> "Workload":
        """Every phase at tiny size, for the benchmark's own tests."""
        ns = sorted(self.mix)
        return Workload(self.name, {ns[0]: 1, ns[-1]: 1}, 1, 2, self.scene, self.model, self.head,
                        setup_reps=1, pairwise_every=self.pairwise_every)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-oracle", DESK_MIX, 2, 40),
        Workload("crowded-oracle", CROWDED_MIX, 1, 20, scene={"allow_large": True}, model={"num_queries": 24},
                 pairwise_every=3),
        Workload("desk-rgb", DESK_MIX, 2, 16, model={"backbone": "tiny"}, head={"conf_threshold": 0.0}),
    )
}

# Per-call self time of a named layer, taken in the phase where it does the
# work its end-to-end metric depends on.
HOME_PHASE = {
    "synth.generate": "setup",
    "synth.render": "setup",
    "dataset.write": "setup",
    "dataset.load": "setup",
    "backbone.forward": "train",
    "backbone.loss": "train",
    "backbone.compute_masks": "predict",
    "matching.match": "eval",
    "head.descriptor_encoder": "train",
    "head.interaction_decoder": "predict",
    "head.order_heads": "predict",
    "head.depth_decode": "predict",
    "losses.order_loss": "train",
    "autograd.backward": "train",
    "optim.step": "train",
    "baselines.pairwise_forward": "pairwise",
}
_MODEL = ["backbone.forward", "backbone.compute_masks"]
_HEAD = ["head.descriptor_encoder", "head.interaction_decoder", "head.order_heads"]
# Self time per sample of every layer a phase runs; training.train is the
# loop itself, training.training_loss and training.predict the model's glue.
PHASE_LAYERS = {
    "train": ["training.train", "training.training_loss", *_MODEL, "backbone.loss", "matching.match", *_HEAD,
              "losses.order_loss", "autograd.backward", "optim.step"],
    "eval": ["training.predict", *_MODEL, "matching.match", *_HEAD, "head.depth_decode"],
    "predict": ["training.predict", *_MODEL, *_HEAD, "head.depth_decode"],
}
OVERHEAD_PHASES = ("train", "eval", "predict", "pairwise")
COUNTS = ["synth.attempts_per_scene", "synth.unplaceable_seeds", "matching.calls_per_train_sample",
          "matching.solves_per_match", "autograd.tape_nodes_per_sample", "autograd.peak_live_mib"]


def per_layer_names() -> list[str]:
    names = [f"{layer}_ms" for layer in HOME_PHASE] + ["evaluation.score_ms"] + COUNTS
    names += [f"{phase}.{layer}_ms" for phase, layers in PHASE_LAYERS.items() for layer in layers]
    names += ["trace.overhead_pct"] + [f"trace.overhead_{phase}_pct" for phase in OVERHEAD_PHASES]
    return names


def _tape_nodes(t) -> int:
    seen = {id(t)}
    stack = [t]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def make_tracer() -> Tracer:
    tr = Tracer()
    spans = [
        (dataset, "write_dataset", "dataset.write_dataset"),
        (dataset, "load_dataset", "dataset.load_dataset"),
        (dataset, "generate_scene", "synth.generate"),
        (dataset, "render", "synth.render"),
        (dataset, "_write_sample", "dataset.write"),
        (dataset, "load_sample", "dataset.load"),
        (training, "oracle_backbone", "backbone.forward"),
        (backbone.TinyBackbone, "forward", "backbone.forward"),
        (training, "backbone_losses", "backbone.loss"),
        (training, "compute_masks", "backbone.compute_masks"),
        (training, "match_segments", "matching.match"),
        (backbone, "match_segments", "matching.match"),
        (evaluation, "match_segments", "matching.match"),
        (head, "descriptor_encoder", "head.descriptor_encoder"),
        (head.OrderHead, "interaction_decoder", "head.interaction_decoder"),
        (head.OrderHead, "order_heads", "head.order_heads"),
        (head.HeadOutput, "depth_matrix", "head.depth_decode"),
        (training, "order_losses", "losses.order_loss"),
        (optim.AdamW, "step", "optim.step"),
        (evaluation, "evaluate", "evaluation.evaluate"),
        (training.HolisticModel, "predict", "training.predict"),
        (training.HolisticModel, "training_loss", "training.training_loss"),
        (baselines, "pairwise_infer_matrices", "baselines.pairwise_infer_matrices"),
        (baselines.PairwiseNet, "forward", "baselines.pairwise_forward"),
    ]
    for owner, attr, name in spans:
        tr.add(owner, attr, tr.span_wrapper(name, tr.original(owner, attr)))
    tr.add(synth, "_attempt_scene", tr.count_wrapper("synth.attempt", synth._attempt_scene))
    tr.add(matching, "_solve", tr.count_wrapper("matching.solve", matching._solve))

    timed_backward = tr.span_wrapper("autograd.backward", tr.original(autograd.Tensor, "backward"))

    def counted_backward(self):
        tr.count("autograd.tape_nodes", _tape_nodes(self))
        return timed_backward(self)

    tr.add(autograd.Tensor, "backward", counted_backward)
    return tr


class Run:
    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool, root: Path, import_s: float):
        self.wl, self.seed, self.seconds, self.trace = wl, seed, seconds, trace
        self.root = root
        self.import_s = import_s
        self.failures: list[str] = []
        self.ops = {k: [0, 0] for k in ("scenes_generated", "train_steps", "scenes_evaluated",
                                        "predict_calls", "pairwise_calls")}
        self.tracer = make_tracer() if trace else None
        self.samples = {"setup": 0, "train": 0, "eval": 0, "predict": 0}
        self.unit_times = {p: [] for p in OVERHEAD_PHASES}  # (traced, seconds) per step or round, in order
        self.peak_live = 0
        self.unplaceable = 0
        self.rep_times, self.gen_rates = [], []
        self.eval_rates, self.predict_ms, self.pairwise_ms = [], [], []
        self.cycles, self.measure_s = 0, 0.0
        cfg = cli.load_config(str(root / "configs" / "desk.json"))
        cfg["scene"].update(wl.scene)
        cfg["model"].update(wl.model)
        cfg["model"]["head"].update(wl.head)
        cfg["train"].update({"iterations": wl.steps, "log_every": 1})
        self.cfg = cfg
        self.model_cfg = cli.model_config(copy.deepcopy(cfg))
        self.train_cfg = cli.train_config(cfg, MODEL_SEED)
        self.workdir = root / ".orderbench" / f"{wl.name}-s{seed}-p{os.getpid()}"

    # ---- helpers ----------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"CHECK FAILED: {message}", file=sys.stderr)

    def op_error(self, kind: str, count: int, exc: Exception) -> None:
        self.ops[kind][1] += count
        print(f"{kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def tracing(self, on: bool) -> None:
        if self.tracer is None or on == self.tracer.installed:
            return
        if on:
            self.tracer.install()
        else:
            self.tracer.uninstall()

    def phase(self, name: str) -> None:
        if self.tracer:
            self.tracer.phase = name

    def scene_config(self, n: int):
        return cli.scene_config({"scene": {**self.cfg["scene"], "n_min": n, "n_max": n}})

    # ---- inputs and setup --------------------------------------------------

    def make_inputs(self) -> None:
        """Per stratum the first block of consecutive seeds, from a base seed
        (fixed for training scenes, derived from --seed for validation
        scenes), on which the generator can place every instance.

        Dense canvases make generate_scene give up on some seeds; those are
        skipped, counted and reported. Every scene is checked against this
        benchmark's own painter.
        """
        self.strata, self.generated = [], []
        for split, factor, base in (("train", self.wl.train_factor, MODEL_SEED),
                                    ("val", 1, self.seed * 100_000 + dataset.VAL_SEED_OFFSET)):
            for n, count in self.wl.mix.items():
                cfg, first, block = self.scene_config(n), base + n * 1_000, []
                while len(block) < count * factor:
                    try:
                        block.append(dataset.sample_from_seed(first + len(block), cfg))
                    except ConfigError as exc:
                        print(f"seed {first + len(block)} skipped: {exc}", file=sys.stderr)
                        self.unplaceable += 1
                        if self.unplaceable > 100:
                            raise
                        first, block = first + len(block) + 1, []
                self.strata.append((split, n, count * factor, first))
                for k, sample in enumerate(block):
                    for msg in checks.check_generated(f"seed {first + k}", sample):
                        self.fail(msg)
                self.generated += block

    def setup_rep(self) -> None:
        """Write every stratum, load it back and build the model, timed.

        The first rep's data and model are the ones the run trains and
        measures; later reps repeat the same work while training runs.
        """
        self.phase("setup")
        rep = len(self.rep_times)
        base = self.workdir / f"rep{rep}"
        self.tracing(self.trace)
        t0 = perf_counter()
        gen_s = 0.0
        for split, n, count, first in self.strata:
            t = perf_counter()
            dataset.write_dataset(base / split / f"n{n:02d}", count, self.scene_config(n), first)
            gen_s += perf_counter() - t
        loaded = {"train": [], "val": []}
        for split, n, _, _ in self.strata:
            loaded[split] += dataset.load_dataset(base / split / f"n{n:02d}")
        model = training.HolisticModel(np.random.default_rng(MODEL_SEED), self.model_cfg)
        self.rep_times.append(perf_counter() - t0)
        self.tracing(False)
        total = len(self.generated)
        self.gen_rates.append(total / gen_s)
        self.ops["scenes_generated"][0] += total
        self.samples["setup"] += total
        shutil.rmtree(base)
        for k, (got, want) in enumerate(zip(loaded["train"] + loaded["val"], self.generated)):
            for msg in checks.check_loaded(f"rep {rep} scene {k}", got, want):
                self.fail(msg)
        if rep == 0:
            self.train_set, self.val_set, self.model = loaded["train"], loaded["val"], model

    def keep_pace(self, progress: float) -> None:
        """Run the work due at this share of training, so that it is timed
        across the same stretch of the run as training: set-up reps 1.. at
        even shares and, with the oracle backbone, measurement cycles until
        their time reaches this share of their budget. The tiny backbone's
        masks, and with them the cost of evaluating and predicting, change
        as it trains, so its cycles wait for the trained model."""
        reps = self.wl.setup_reps
        while len(self.rep_times) < reps and progress * (reps - 1) >= len(self.rep_times):
            self.setup_rep()
        while self.wl.oracle and self.measure_s < progress * MEASURE_SHARE * self.seconds:
            self.cycle()

    # ---- training ---------------------------------------------------------

    def train(self) -> None:
        steps, batch = self.wl.steps, self.train_cfg.batch_size
        state = {"step": 0, "last": perf_counter(), "root": None}

        def on_step(_line: str) -> None:
            now = perf_counter()
            traced = state["root"] is not None
            self.unit_times["train"].append((traced, now - state["last"]))
            if traced:
                self.tracer.close(state["root"])
                state["root"] = None
                self.peak_live = max(self.peak_live, autograd.peak_bytes())
                autograd.enable_alloc_tracking(False)
                self.tracing(False)
                self.samples["train"] += batch
            state["step"] += 1
            self.keep_pace(state["step"] / steps)
            self.phase("train")
            if self.trace and not traced and state["step"] < steps:
                self.tracing(True)
                autograd.enable_alloc_tracking(True)
                state["root"] = self.tracer.open("training.train")
            state["last"] = perf_counter()

        self.phase("train")
        self.ops["train_steps"][0] += steps
        try:
            result = training.train(self.model, self.train_set, self.train_cfg, log=on_step)
        except Exception as exc:  # the run goes on and reports the failed steps
            if state["root"] is not None:
                self.tracer.close(state["root"])
            self.tracing(False)
            autograd.enable_alloc_tracking(False)
            self.op_error("train_steps", steps - state["step"], exc)
            return
        curve = result.loss_curve
        if [s for s, _ in curve] != list(range(steps)):
            self.fail("training did not log every step")
        if not all(math.isfinite(v) for _, v in curve):
            self.fail("non-finite training loss")
        if self.wl.oracle and steps >= 10 and not checks.loss_falls(curve):
            self.fail(f"training loss did not fall: {[round(v, 3) for _, v in curve]}")

    # ---- evaluation, prediction, pairwise ----------------------------------

    def cycle(self) -> None:
        """One evaluation round, one prediction round and, every
        pairwise_every cycles, one pairwise round; a traced run traces
        every other cycle."""
        traced = self.trace and self.cycles % 2 == 1
        t0 = perf_counter()
        rounds = [self.eval_round, self.predict_round]
        if self.cycles % self.wl.pairwise_every == 0:
            rounds.append(self.pairwise_round)
        for round_fn in rounds:
            self.tracing(traced)
            round_fn(traced)
            self.tracing(False)
        self.cycles += 1
        self.measure_s += perf_counter() - t0

    def check_model_outputs(self) -> None:
        """Backbone masks and matching of every validation scene."""
        for k, sample in enumerate(self.val_set):
            with autograd.no_grad():
                bb = self.model.backbone_output(sample)
            masks = backbone.compute_masks(bb.Q, bb.P)
            gt = backbone.quarter_masks(sample)
            assignment = matching.match_segments(list(masks), bb.confidences, list(gt))
            for msg in checks.check_matching(f"val {k}", assignment, masks, gt):
                self.fail(msg)
            if self.wl.oracle:
                if not (np.array_equal(masks[: sample.n], gt) and not masks[sample.n:].any()):
                    self.fail(f"val {k}: compute_masks does not reproduce the quarter masks")
                if assignment.pairs != tuple((i, i) for i in range(sample.n)):
                    self.fail(f"val {k}: decoupled assignment {assignment.pairs} is not the identity")

    def eval_round(self, traced: bool) -> None:
        self.phase("eval")
        preds = []

        def predictor(sample):
            pred = self.inner(sample)
            preds.append(pred)
            return pred

        self.ops["scenes_evaluated"][0] += len(self.val_set)
        t0 = perf_counter()
        try:
            report = evaluation.evaluate(self.val_set, predictor)
        except Exception as exc:  # the run goes on and reports the failed scenes
            self.op_error("scenes_evaluated", len(self.val_set), exc)
            return
        dt = perf_counter() - t0
        self.unit_times["eval"].append((traced, dt))
        if not traced:
            self.eval_rates.append(len(self.val_set) / dt)
        self.samples["eval"] += len(self.val_set) if traced else 0
        for msg in checks.check_eval("eval", report, preds, self.val_set):
            self.fail(msg)
        for k, (pred, sample) in enumerate(zip(preds, self.val_set)):
            if validate_occlusion(pred.occlusion):
                self.fail(f"eval {k}: invalid occlusion matrix")
            if self.wl.oracle and not np.array_equal(pred.masks, backbone.quarter_masks(sample)):
                self.fail(f"eval {k}: decoupled prediction is not aligned to ground truth")

    def predict_round(self, traced: bool) -> None:
        self.phase("predict")
        total = 0.0
        for k, sample in enumerate(self.val_set):
            self.ops["predict_calls"][0] += 1
            before = self.model.head.forward_count
            t0 = perf_counter()
            try:
                pred = self.model.predict(sample, decoupled=False, coherence=True)
            except Exception as exc:  # the run goes on and reports the failed call
                self.op_error("predict_calls", 1, exc)
                continue
            dt = perf_counter() - t0
            total += dt
            if not traced:
                self.predict_ms.append(1000.0 * dt)
            if self.model.head.forward_count != before + 1:
                self.fail(f"predict {k}: {self.model.head.forward_count - before} head forwards")
            if validate_occlusion(pred.occlusion) or validate_depth(pred.depth):
                self.fail(f"predict {k}: invalid order matrix")
            if self.wl.oracle and not np.array_equal(pred.masks, backbone.quarter_masks(sample)):
                self.fail(f"predict {k}: selected queries are not the instances")
        self.unit_times["predict"].append((traced, total))
        self.samples["predict"] += len(self.val_set) if traced else 0

    def pairwise_round(self, traced: bool) -> None:
        self.phase("pairwise")
        total = 0.0
        for k, sample in enumerate(self.val_set):
            self.ops["pairwise_calls"][0] += 1
            before = self.net.forward_count
            t0 = perf_counter()
            try:
                occ, depth = baselines.pairwise_infer_matrices(self.net, sample.image, sample.masks)
            except Exception as exc:  # the run goes on and reports the failed call
                self.op_error("pairwise_calls", 1, exc)
                continue
            dt = perf_counter() - t0
            total += dt
            if not traced:
                self.pairwise_ms.append(1000.0 * dt)
            if self.net.forward_count - before != sample.n * (sample.n - 1) // 2:
                self.fail(f"pairwise {k}: {self.net.forward_count - before} forwards for n = {sample.n}")
            if validate_occlusion(occ) or validate_depth(depth):
                self.fail(f"pairwise {k}: invalid order matrix")
        self.unit_times["pairwise"].append((traced, total))

    def execute(self) -> None:
        try:
            self.make_inputs()
            self.setup_rep()
            self.inner = evaluation.model_predictor(self.model, decoupled=True, coherence=False)
            self.net = baselines.PairwiseNet(np.random.default_rng(MODEL_SEED), image_size=self.cfg["scene"]["size"])
            self.train()
            self.keep_pace(1.0)
            self.check_model_outputs()
            while (self.measure_s < MEASURE_SHARE * self.seconds or self.cycles < 2 * self.wl.pairwise_every
                   or (self.trace and self.cycles % 2)):
                self.cycle()
        finally:
            self.tracing(False)
            shutil.rmtree(self.workdir, ignore_errors=True)

    # ---- results ----------------------------------------------------------

    def end_to_end(self) -> dict:
        steps = [dt for traced, dt in self.unit_times["train"] if not traced]
        return {
            "setup_s": (self.import_s + statistics.median(self.rep_times), "s"),
            "gen_scenes_per_s": (statistics.median(self.gen_rates), "scenes/s"),
            "train_samples_per_s": (self.train_cfg.batch_size / statistics.median(steps), "samples/s"),
            "eval_scenes_per_s": (statistics.median(self.eval_rates), "scenes/s"),
            "predict_ms_p50": (statistics.median(self.predict_ms), "ms"),
            "pairwise_ms_p50": (statistics.median(self.pairwise_ms), "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }

    def per_layer(self) -> dict:
        selfs = self.tracer.self_times()
        counts = self.tracer.counts

        def self_ms(phase: str, layer: str, per: int | None = None) -> float:
            total, calls = selfs.get((phase, layer), (0.0, 0))
            denom = calls if per is None else per
            return 1000.0 * total / denom if denom else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {f"{layer}_ms": (self_ms(phase, layer), "ms") for layer, phase in HOME_PHASE.items()}
        out["evaluation.score_ms"] = (self_ms("eval", "evaluation.evaluate", self.samples["eval"]), "ms/scene")
        out["synth.attempts_per_scene"] = (ratio(counts.get(("setup", "synth.attempt"), 0), self.samples["setup"]),
                                           "count")
        out["synth.unplaceable_seeds"] = (float(self.unplaceable), "count")
        train_matches = selfs.get(("train", "matching.match"), (0.0, 0))[1]
        eval_matches = selfs.get(("eval", "matching.match"), (0.0, 0))[1]
        out["matching.calls_per_train_sample"] = (ratio(train_matches, self.samples["train"]), "count")
        out["matching.solves_per_match"] = (ratio(counts.get(("eval", "matching.solve"), 0), eval_matches), "count")
        out["autograd.tape_nodes_per_sample"] = (
            ratio(counts.get(("train", "autograd.tape_nodes"), 0), self.samples["train"]), "count")
        out["autograd.peak_live_mib"] = (self.peak_live / 2**20, "MiB")
        for phase, layers in PHASE_LAYERS.items():
            unit = "ms/sample" if phase == "train" else "ms/scene"
            for layer in layers:
                out[f"{phase}.{layer}_ms"] = (self_ms(phase, layer, self.samples[phase]), unit)
        # Each traced step or round against the mean of its untraced
        # neighbours, so a cost that drifts along training cancels; overall,
        # the time the untraced units would have taken traced against the
        # time they took.
        untraced = as_traced = 0.0
        for phase, units in self.unit_times.items():
            ratios = []
            for i, (traced, dt) in enumerate(units):
                near = [units[j][1] for j in (i - 1, i + 1) if 0 <= j < len(units) and not units[j][0]]
                if traced and near:
                    ratios.append(dt / statistics.fmean(near))
            slowdown = statistics.median(ratios) if ratios else 1.0
            out[f"trace.overhead_{phase}_pct"] = (100.0 * (slowdown - 1.0), "%")
            spent = sum(dt for traced, dt in units if not traced)
            untraced += spent
            as_traced += spent * slowdown
        out["trace.overhead_pct"] = (100.0 * ratio(as_traced - untraced, untraced), "%")
        return {name: out[name] for name in per_layer_names()}

    def write_trace(self) -> Path:
        path = self.root / ".orderbench" / f"trace-{self.wl.name}-s{self.seed}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        self.tracer.write(path)
        return path
