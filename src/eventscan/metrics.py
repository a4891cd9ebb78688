"""Evaluation protocol: shape fits, RMSE accuracy, precision, classification.

Accuracy is the RMSE of geometric residuals against a fitted (or known)
shape; precision is the standard deviation of the signed residuals to the
best fit, i.e. the statistical noise left after removing the low-frequency
surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decode import CorrespondenceSet
from .events import GroundTruth
from .geometry import rows_matmul
from .separate import DIRECT, INDIRECT, REJECTED, ClassifiedSet

# Gauss-Newton refinement steps of the sphere fit
GN_STEPS = 10


class DegenerateFitError(ValueError):
    """Input points do not determine the model (collinear / coplanar)."""


@dataclass
class FitReport:
    model: str  # "plane" or "sphere"
    point: np.ndarray | None = None  # plane anchor
    normal: np.ndarray | None = None  # plane unit normal
    center: np.ndarray | None = None  # sphere center
    radius: float | None = None  # sphere radius, mm
    rmse: float = 0.0

    def residuals(self, points: np.ndarray) -> np.ndarray:
        """Signed geometric residuals of points against the fitted shape."""
        points = np.atleast_2d(points)
        if self.model == "plane":
            return rows_matmul(points - self.point, self.normal)
        return np.linalg.norm(points - self.center, axis=1) - self.radius


def fit_plane(points: np.ndarray) -> FitReport:
    """Total-least-squares plane: centroid plus smallest principal direction."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[0] < 3:
        raise DegenerateFitError("plane fit needs at least 3 points")
    centroid = points.mean(axis=0)
    centered = points - centroid
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[1] < 1e-9 * max(s[0], 1.0):
        raise DegenerateFitError("points are collinear; plane is not determined")
    normal = vt[2]
    if normal[2] < 0:  # deterministic orientation
        normal = -normal
    res = rows_matmul(centered, normal)
    return FitReport(
        model="plane",
        point=centroid,
        normal=normal,
        rmse=float(np.sqrt(np.mean(res * res))),
    )


def fit_sphere(points: np.ndarray) -> FitReport:
    """Algebraic sphere fit refined by Gauss-Newton on geometric distance."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[0] < 4:
        raise DegenerateFitError("sphere fit needs at least 4 points")
    centered = points - points.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    if s[2] < 1e-9 * max(s[0], 1.0):
        raise DegenerateFitError("points are coplanar; sphere is not determined")
    # algebraic init: |p|^2 = 2 c . p + (R^2 - |c|^2)
    A = np.concatenate([2.0 * points, np.ones((len(points), 1))], axis=1)
    rhs = np.sum(points * points, axis=1)
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    center = sol[:3]
    radius = float(np.sqrt(max(sol[3] + center @ center, 1e-12)))
    for _ in range(GN_STEPS):
        diff = points - center
        dist = np.linalg.norm(diff, axis=1)
        dist = np.where(dist < 1e-12, 1e-12, dist)
        r = dist - radius
        J = np.concatenate([-diff / dist[:, None], -np.ones((len(points), 1))], axis=1)
        try:
            step = np.linalg.lstsq(J, -r, rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        center = center + step[:3]
        radius = float(radius + step[3])
    diff = points - center
    res = np.linalg.norm(diff, axis=1) - radius
    return FitReport(
        model="sphere",
        center=center,
        radius=radius,
        rmse=float(np.sqrt(np.mean(res * res))),
    )


def precision(points: np.ndarray, fit: FitReport) -> float:
    """Standard deviation of signed residuals to the best-fit surface."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if len(points) == 0:
        return 0.0
    return float(np.std(fit.residuals(points)))


@dataclass
class ClassificationReport:
    """Correspondence-level precision and recall against simulator bounce counts."""

    precision_direct: float
    recall_direct: float
    precision_indirect: float
    recall_indirect: float


def truth_class_of(correspondences: CorrespondenceSet, truth: GroundTruth) -> np.ndarray:
    """Majority bounce class per correspondence: DIRECT, INDIRECT or -1.

    Spurious events (no annotation) are excluded; a correspondence with no
    annotated supporting event (none at all, or only spurious ones) gets -1.
    Ties go to INDIRECT. Event ids past the last CSR offset belong to no row.
    """
    ids, offsets, n = correspondences.event_ids, correspondences.event_offsets, len(correspondences)
    if len(ids) and int(ids.max()) >= len(truth):
        raise ValueError("correspondences reference events beyond the ground-truth stream")
    if len(offsets) < n + 1:
        raise ValueError("event_offsets must hold one more entry than there are correspondences")
    # per-row counts are differences of running sums read at the CSR offsets
    bounce = truth.per_event("bounce", ids)
    running = np.zeros((2, len(ids) + 1), dtype=np.int64)
    np.cumsum(bounce == 1, out=running[0, 1:])
    np.cumsum(bounce > 0, out=running[1, 1:])
    n1, annotated = running[:, offsets[1 : n + 1]] - running[:, offsets[:n]]
    out = np.where(n1 > annotated - n1, DIRECT, INDIRECT).astype(np.int8)
    out[annotated == 0] = -1
    return out


def classification_score(classified: ClassifiedSet, truth: GroundTruth) -> ClassificationReport:
    """Precision/recall of the epipolar separation against ground truth.

    Every REJECTED entry is scored as an INDIRECT prediction, whatever its
    truth, so a rejected entry whose truth is direct counts as a
    direct -> indirect miss: it lowers
    ``recall_direct`` and ``precision_indirect``. Entries that no annotated
    event supports (truth -1) are left out.
    """
    if len(classified) == 0:
        raise ValueError("no correspondences to score")
    truth_cls = truth_class_of(classified.base, truth)
    pred = classified.label.copy()
    pred[pred == REJECTED] = INDIRECT  # rejected entries were off-epipolar detections
    keep = truth_cls >= 0
    if not np.any(keep):
        raise ValueError("no annotated events support these correspondences")
    t = truth_cls[keep]
    p = pred[keep]
    confusion = {}
    for tv in (DIRECT, INDIRECT):
        for pv in (DIRECT, INDIRECT):
            confusion[(int(tv), int(pv))] = int(((t == tv) & (p == pv)).sum())

    def _ratio(num, den):
        return float(num) / float(den) if den else 1.0

    return ClassificationReport(
        precision_direct=_ratio(confusion[(0, 0)], confusion[(0, 0)] + confusion[(1, 0)]),
        recall_direct=_ratio(confusion[(0, 0)], confusion[(0, 0)] + confusion[(0, 1)]),
        precision_indirect=_ratio(confusion[(1, 1)], confusion[(1, 1)] + confusion[(0, 1)]),
        recall_indirect=_ratio(confusion[(1, 1)], confusion[(1, 1)] + confusion[(1, 0)]),
    )
