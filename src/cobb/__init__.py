"""Continuous oriented-bounding-box codec, baselines, and continuity audit."""

from cobb._kern import IMPLEMENTATION as KERNEL_IMPLEMENTATION
from cobb.codec import (
    CobbVector,
    decode,
    encode,
    iou_matrix,
    rs_from_ra,
    sliding_ratio,
)
from cobb.errors import (
    CobbError,
    DegenerateGeometryError,
    DotaParseError,
    InvalidArgumentError,
    UndefinedIoUError,
)
from cobb.geometry import (
    ConvexQuad,
    HorizontalBox,
    OrientedBox,
    iou,
    min_area_rect,
    outer_hbb,
    rotate_about,
    vertices_of,
)
from cobb.targets import (
    Proposal,
    TargetVector,
    cobb_loss,
    decode_target,
    encode_target,
    sensitivity_probe,
)

__version__ = "0.1.0"

__all__ = [
    "KERNEL_IMPLEMENTATION",
    "CobbVector",
    "CobbError",
    "ConvexQuad",
    "DegenerateGeometryError",
    "DotaParseError",
    "HorizontalBox",
    "InvalidArgumentError",
    "OrientedBox",
    "Proposal",
    "TargetVector",
    "UndefinedIoUError",
    "cobb_loss",
    "decode",
    "decode_target",
    "encode",
    "encode_target",
    "iou",
    "iou_matrix",
    "min_area_rect",
    "outer_hbb",
    "rotate_about",
    "rs_from_ra",
    "sensitivity_probe",
    "sliding_ratio",
    "vertices_of",
]
