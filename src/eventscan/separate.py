"""Epipolar separation of direct (single-bounce) from indirect reflections.

A correspondence whose camera pixel sits on the epipolar line of its decoded
projector pixel is a single-bounce diffuse return and goes to triangulation;
anything off the line reached the camera through at least two bounces and is
kept for deflectometry. Mixed pixels (shiny surfaces) carry both kinds; the
direct one wins and the specular component is rejected there.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import formats
from .decode import CORRESPONDENCE_COLUMNS, CorrespondenceSet, _sort_by_key, pack_pixels
from .geometry import epipolar_distances

DIRECT = 0
INDIRECT = 1
REJECTED = 2

CLASS_NAMES = ("direct", "indirect", "rejected")

CLASSIFIED_COLUMNS = CORRESPONDENCE_COLUMNS + (("class", CLASS_NAMES), ("epi_dist", np.float64, (0, sys.float_info.max)))


@dataclass
class ClassifiedSet:
    """Correspondences plus class labels and epipolar distances."""

    base: CorrespondenceSet
    label: np.ndarray  # int8 DIRECT / INDIRECT / REJECTED
    epipolar_distance: np.ndarray  # px

    def __len__(self) -> int:
        return len(self.base)

    def where(self, label: int) -> np.ndarray:
        return np.where(self.label == label)[0]

    def save_text(self, path) -> None:
        formats.write_table(path, CLASSIFIED_COLUMNS, self.base.table() + [self.label, self.epipolar_distance])

    @staticmethod
    def load_text(path) -> "ClassifiedSet":
        _, (*base, label, epipolar_distance) = formats.read_table(path, CLASSIFIED_COLUMNS)
        return ClassifiedSet(CorrespondenceSet(*base), label, epipolar_distance)


def epipolar_classify(correspondences: CorrespondenceSet, F: np.ndarray, tau: float = 2.0) -> ClassifiedSet:
    """Threshold the point-to-epipolar-line distance at ``tau`` pixels.

    The distance uses normalized line coefficients, so any rescaling of F
    leaves the labels unchanged.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    n = len(correspondences)
    if n == 0:
        return ClassifiedSet(correspondences, np.zeros(0, dtype=np.int8), np.zeros(0))
    dist = epipolar_distances(F, correspondences.projector_pixel, correspondences.camera_pixel.astype(np.float64))
    label = np.where(dist <= tau, DIRECT, INDIRECT).astype(np.int8)
    return ClassifiedSet(correspondences, label, dist)


def resolve_mixed_pixels(classified: ClassifiedSet) -> ClassifiedSet:
    """Resolve camera pixels carrying several correspondences.

    Where a pixel has both direct and indirect entries the direct one is kept
    and the indirect ones are rejected; among several direct entries the
    highest quality wins (tie: smaller epipolar distance). Pixels with only
    indirect entries pass through unchanged. One sort by pixel key (then
    quality, then distance) orders everything; the direct entries' keys come
    out of it sorted, which is what the membership test for "this pixel has a
    direct entry" searches.
    """
    b = classified.base
    n = len(classified)
    if n == 0:
        return classified
    key = pack_pixels(b.camera_pixel[:, 0], b.camera_pixel[:, 1])
    label = classified.label.copy()
    is_direct = label == DIRECT
    # order directs best-first within each pixel; everything after the first
    # is demoted
    order = _sort_by_key(key, classified.epipolar_distance, -b.quality)
    ordered_key = key[order]
    ordered_direct = is_direct[order]
    direct_rows = order[ordered_direct]
    direct_keys = ordered_key[ordered_direct]
    first = np.ones(len(direct_rows), dtype=bool)
    first[1:] = direct_keys[1:] != direct_keys[:-1]
    label[direct_rows[~first]] = REJECTED
    # indirect entries on pixels that have a direct entry are rejected;
    # direct_keys is sorted by key, so membership is a searchsorted
    if len(direct_keys):
        at = np.minimum(np.searchsorted(direct_keys, key), len(direct_keys) - 1)
        label[(label == INDIRECT) & (direct_keys[at] == key)] = REJECTED
    return ClassifiedSet(b, label, classified.epipolar_distance)
