import dataclasses
import re

import numpy as np
import pytest

from eventscan import decode
from eventscan.decode import CorrespondenceSet
from eventscan.formats import FormatError
from eventscan.geometry import PinholeModel, fundamental_from_models
from eventscan.metrics import classification_score, truth_class_of
from eventscan.separate import DIRECT, INDIRECT, REJECTED, ClassifiedSet, epipolar_classify, resolve_mixed_pixels

from conftest import small_rig, tilted_mirror, wall_object


def corr_of(cam, proj, support=None, quality=None):
    cam = np.asarray(cam, np.int32).reshape(-1, 2)
    proj = np.asarray(proj, np.float64).reshape(-1, 2)
    n = len(cam)
    return CorrespondenceSet(
        cam,
        proj,
        np.full(n, 2, np.int32) if support is None else np.asarray(support, np.int32),
        np.ones(n) if quality is None else np.asarray(quality, np.float64),
    )


@pytest.fixture(scope="module")
def mirror_classified(mirror_scan):
    a = decode.assign_sweeps(mirror_scan["result"].events, mirror_scan["schedule"], 0, 2)
    corr = decode.intersect_sweeps(a)
    F = fundamental_from_models(mirror_scan["camera"], mirror_scan["projector"])
    return corr, epipolar_classify(corr, F, tau=2.0)


def test_bounce1_classified_direct(mirror_scan, mirror_classified):
    corr, cl = mirror_classified
    truth = truth_class_of(corr, mirror_scan["result"].ground_truth)
    b1 = truth == DIRECT
    assert (cl.label[b1] == DIRECT).all()
    assert cl.epipolar_distance[b1].max() < 0.5


def test_bounce2_classified_indirect(mirror_scan, mirror_classified):
    corr, cl = mirror_classified
    truth = truth_class_of(corr, mirror_scan["result"].ground_truth)
    b2 = truth == INDIRECT
    recall = (cl.label[b2] == INDIRECT).mean()
    assert recall >= 0.95
    # every miss is one the simulator annotated as on-epipolar
    misses = np.where(b2 & (cl.label == DIRECT))[0]
    gt = mirror_scan["result"].ground_truth
    for i in misses:
        assert gt.on_epipolar[gt.path[corr.events_of(i)]].all()


def test_tau_infinite_everything_direct(mirror_classified, mirror_scan):
    corr, _ = mirror_classified
    F = fundamental_from_models(mirror_scan["camera"], mirror_scan["projector"])
    cl = epipolar_classify(corr, F, tau=np.inf)
    assert (cl.label == DIRECT).all()


def test_scale_invariance_of_classification(mirror_classified, mirror_scan):
    corr, cl = mirror_classified
    F = fundamental_from_models(mirror_scan["camera"], mirror_scan["projector"])
    for s in (5.0, -0.02, 1e6):
        cl2 = epipolar_classify(corr, s * F, tau=2.0)
        assert np.array_equal(cl.label, cl2.label)
        assert np.allclose(cl.epipolar_distance, cl2.epipolar_distance)


def test_mixed_pixel_keeps_direct_rejects_indirect():
    c = corr_of([[5, 5], [5, 5]], [[100.0, 100.0], [300.0, 300.0]])
    cl = ClassifiedSet(c, np.array([DIRECT, INDIRECT], np.int8), np.array([0.1, 40.0]))
    out = resolve_mixed_pixels(cl)
    assert out.label.tolist() == [DIRECT, REJECTED]


def test_pixel_with_only_indirect_unchanged():
    c = corr_of([[5, 5]], [[300.0, 300.0]])
    cl = ClassifiedSet(c, np.array([INDIRECT], np.int8), np.array([40.0]))
    out = resolve_mixed_pixels(cl)
    assert out.label.tolist() == [INDIRECT]


def test_best_direct_wins_by_quality_then_distance():
    c = corr_of(
        [[5, 5], [5, 5], [5, 5]],
        [[100.0, 100.0], [101.0, 100.0], [102.0, 100.0]],
        quality=[0.9, 0.9, 0.5],
    )
    cl = ClassifiedSet(c, np.array([DIRECT, DIRECT, DIRECT], np.int8), np.array([0.3, 0.1, 0.0]))
    out = resolve_mixed_pixels(cl)
    assert out.label.tolist() == [REJECTED, DIRECT, REJECTED]


def test_shiny_scene_mixed_pixels_resolve_to_direct():
    from eventscan.scene import ScanSchedule
    from eventscan.simulate import simulate_scan

    camera, projector = small_rig(steps=401)
    bowl, _ = tilted_mirror(kind="shiny")
    res = simulate_scan([wall_object(), bowl], camera, projector, ScanSchedule(401, 60000, 5000))
    gt = res.ground_truth
    a = decode.assign_sweeps(res.events, ScanSchedule(401, 60000, 5000), 0, 2)
    corr = decode.intersect_sweeps(a)
    F = fundamental_from_models(camera, projector)
    out = resolve_mixed_pixels(epipolar_classify(corr, F, 2.0))
    bounce = gt.bounce[gt.path]
    b1_pix = set(zip(res.events.x[bounce == 1].tolist(), res.events.y[bounce == 1].tolist()))
    b2_pix = set(zip(res.events.x[bounce == 2].tolist(), res.events.y[bounce == 2].tolist()))
    mixed = b1_pix & b2_pix
    per_pixel_direct = {}
    for (x, y), label in zip(out.base.camera_pixel.tolist(), out.label):
        per_pixel_direct[(x, y)] = per_pixel_direct.get((x, y), 0) + (1 if label == DIRECT else 0)
    assert all(per_pixel_direct.get(p, 0) == 1 for p in mixed)


def test_classified_table_round_trip(tmp_path, mirror_classified):
    _, cl = mirror_classified
    cl.save_text(tmp_path / "c.txt")
    back = ClassifiedSet.load_text(tmp_path / "c.txt")
    assert np.array_equal(back.label, cl.label)
    assert np.allclose(back.epipolar_distance, cl.epipolar_distance)
    assert np.allclose(back.base.projector_pixel, cl.base.projector_pixel)


def test_classified_table_rejects_unknown_class(tmp_path):
    cl = ClassifiedSet(corr_of([[1, 2], [3, 4]], [[5.0, 6.0], [7.0, 8.0]]), np.array([DIRECT, REJECTED], np.int8), np.zeros(2))
    path = tmp_path / "c.txt"
    cl.save_text(path)
    assert path.read_text().splitlines()[1:] == ["1 2 5 6 2 1 direct 0", "3 4 7 8 2 1 rejected 0"]
    path.write_text(path.read_text().replace(" rejected ", " reflected "))
    with pytest.raises(FormatError, match=re.escape(path.name) + ".*class"):
        ClassifiedSet.load_text(path)


def test_classification_score_trivial_and_errors(mirror_scan, mirror_classified):
    corr, cl = mirror_classified
    report = classification_score(cl, mirror_scan["result"].ground_truth)
    assert report.recall_direct == 1.0
    assert report.precision_direct == 1.0
    with pytest.raises(ValueError):
        classification_score(ClassifiedSet(corr_of(np.zeros((0, 2)), np.zeros((0, 2))), np.zeros(0, np.int8), np.zeros(0)), mirror_scan["result"].ground_truth)


# The fundamental matrix of a rectified pair (identical intrinsics, baseline
# along x): the epipolar line of projector pixel (x_P, y_P) is camera row y_P,
# with unit normal, so each distance below is exact.
ROWS_F = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])


def rows_off_by(*offsets):
    """One correspondence per offset: camera pixel (i, 5), projector pixel on row 5 + offset."""
    return corr_of([[i, 5] for i in range(len(offsets))], [[10.0, 5.0 + d] for d in offsets])


def test_rows_f_is_the_rectified_rigs():
    camera = PinholeModel(fx=100.0, fy=100.0, cx=8.0, cy=8.0, width=16, height=16)
    projector = dataclasses.replace(camera, translation=np.array([-50.0, 0.0, 0.0]))
    assert np.allclose(fundamental_from_models(camera, projector), ROWS_F / np.sqrt(2))


def test_tau_zero_is_refused():
    with pytest.raises(ValueError, match="tau must be positive"):
        epipolar_classify(rows_off_by(0.0), ROWS_F, tau=0.0)


def test_tau_below_one_pixel_classifies():
    cl = epipolar_classify(rows_off_by(0.0, 0.25, 0.75, 1.0), ROWS_F, tau=0.5)
    assert cl.epipolar_distance.tolist() == [0.0, 0.25, 0.75, 1.0]
    assert cl.label.tolist() == [DIRECT, DIRECT, INDIRECT, INDIRECT]


@pytest.mark.parametrize("tau", [0.5, 2.0, 3.0])
def test_a_correspondence_tau_off_its_line_is_direct(tau):
    cl = epipolar_classify(rows_off_by(tau, -tau, tau + 0.25), ROWS_F, tau=tau)
    assert cl.label.tolist() == [DIRECT, DIRECT, INDIRECT]


def test_default_threshold_is_two_pixels():
    cl = epipolar_classify(rows_off_by(2.0, 2.5, -2.0, -2.5), ROWS_F)
    assert cl.label.tolist() == [DIRECT, INDIRECT, DIRECT, INDIRECT]


def test_resolving_no_correspondences_keeps_the_bytes(tmp_path):
    empty = epipolar_classify(rows_off_by(), ROWS_F)
    resolved = resolve_mixed_pixels(empty)
    assert resolved.label.dtype == np.int8 and len(resolved) == 0
    empty.save_text(tmp_path / "a.txt")
    resolved.save_text(tmp_path / "b.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
