"""Holistic instance order prediction: full occlusion and depth order
matrices from one forward pass, plus baselines, metrics, and a synthetic
scene harness."""

import ctypes

from .autograd import Tensor
from .head import HeadConfig, OrderHead
from .matching import Assignment, hungarian, match_segments
from .metrics import occlusion_prf, whdr
from .orders import DepthMatrix, OcclusionMatrix, validate_depth, validate_occlusion
from .synth import SceneConfig, generate_scene, render
from .training import HolisticModel, ModelConfig, TrainConfig, train

# glibc serves each block above its mmap threshold with a fresh mapping,
# faulted in page by page on every call, and raises the threshold only
# after such a block is freed. Pin it (and the trim threshold) above the
# largest per-call temporaries so numpy's scratch arrays reuse the heap.
# Skipped where the C library has no mallopt.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):
    _mallopt = None
if _mallopt is not None:
    _mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _mallopt.restype = ctypes.c_int
    _mallopt(_M_MMAP_THRESHOLD, 16 << 20)
    _mallopt(_M_TRIM_THRESHOLD, 32 << 20)

__all__ = [
    "Tensor",
    "HeadConfig",
    "OrderHead",
    "Assignment",
    "hungarian",
    "match_segments",
    "occlusion_prf",
    "whdr",
    "DepthMatrix",
    "OcclusionMatrix",
    "validate_depth",
    "validate_occlusion",
    "SceneConfig",
    "generate_scene",
    "render",
    "HolisticModel",
    "ModelConfig",
    "TrainConfig",
    "train",
]

__version__ = "0.1.0"
