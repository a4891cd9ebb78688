import re

import numpy as np
import pytest

from eventscan import decode
from eventscan.decode import CorrespondenceSet
from eventscan.formats import FormatError
from eventscan.geometry import fundamental_from_models
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
