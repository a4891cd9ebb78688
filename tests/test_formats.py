import dataclasses
import re
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import small_rig, wall_object

from eventscan import formats
from eventscan.decode import CORRESPONDENCE_COLUMNS, CorrespondenceSet
from eventscan.deflectometry import RESIDUAL_COLUMNS
from eventscan.events import EVENT_COLUMNS, EVENT_TRUTH_COLUMNS, PATH_COLUMNS, EventStream, GroundTruth, step_table
from eventscan.pipeline import METRICS_COLUMNS, SPECULAR_COLUMNS
from eventscan.separate import CLASSIFIED_COLUMNS, ClassifiedSet
from eventscan.triangulate import CLOUD_COLUMNS, SCREEN_COLUMNS, DiffuseCloud
from eventscan.simulate import simulate_scan
from eventscan.geometry import PinholeModel
from eventscan.scene import (
    Material,
    NoiseModel,
    Plane,
    ScanSchedule,
    Sphere,
    TriangleMesh,
    load_calibration_bundle,
    load_scene,
    save_calibration_bundle,
)


def test_section_document_round_trip(tmp_path):
    sec = formats.Section("thing")
    sec.set("count", 7)
    sec.set("name", "hello world")
    sec.set("vec", np.array([1.5, -2.0, 1e-9]))
    sec.set("flag", True)
    path = tmp_path / "doc.txt"
    formats.write_sections(path, [sec, formats.Section("thing", {"count": "8"})], header="demo")
    back = formats.read_sections(path)
    assert [s.name for s in back] == ["thing", "thing"]
    assert back[0].get_int("count") == 7
    assert back[0].get_str("name") == "hello world"
    assert np.array_equal(back[0].get_floats("vec", 3), [1.5, -2.0, 1e-9])
    assert back[0].get_str("flag") == "true"
    assert back[1].get_int("count") == 8


def test_section_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("key = 1\n")
    with pytest.raises(formats.FormatError):
        formats.read_sections(p)
    p.write_text("[a]\nnonsense line\n")
    with pytest.raises(formats.FormatError):
        formats.read_sections(p)
    p.write_text("[a]\nk = 1\nk = 2\n")
    with pytest.raises(formats.FormatError):
        formats.read_sections(p)


def test_table_round_trip(tmp_path):
    path = tmp_path / "t.txt"
    a = np.array([1, 2, 3], dtype=np.int64)
    b = np.array([0.5, -1.25, 1e-17])
    formats.write_table(path, [("a", np.int64), ("b", np.float64)], [a, b])
    cols, data = formats.read_table(path, ["a", "b"])
    assert cols == ["a", "b"]
    assert np.array_equal(data[0].astype(np.int64), a)
    assert np.array_equal(data[1].astype(np.float64), b)


def test_event_stream_text_and_binary_round_trip(tmp_path):
    ev = EventStream(
        np.array([5, 10, 10], dtype=np.int64),
        np.array([3, 2, 2], dtype=np.int32),
        np.array([1, 9, 9], dtype=np.int32),
        np.array([1, -1, 1], dtype=np.int8),
    )
    ev.save_text(tmp_path / "e.txt")
    back = EventStream.load_text(tmp_path / "e.txt")
    assert np.array_equal(back.t, ev.t) and np.array_equal(back.polarity, ev.polarity)
    ev.save_binary(tmp_path / "e.bin")
    size = (tmp_path / "e.bin").stat().st_size
    assert size == 16 * len(ev)
    back2 = EventStream.load_binary(tmp_path / "e.bin")
    assert np.array_equal(back2.x, ev.x) and np.array_equal(back2.t, ev.t)


def test_event_sort_order():
    ev = EventStream(
        np.array([10, 5, 10, 10]),
        np.array([1, 1, 0, 0]),
        np.array([2, 2, 2, 1]),
        np.array([1, 1, -1, 1]),
    )
    s = ev.take(ev.sort_order())
    assert s.t.tolist() == [5, 10, 10, 10]
    assert s.y.tolist() == [2, 1, 2, 2]  # ties broken by y then x then polarity
    assert s.x.tolist() == [1, 0, 0, 1]


def assert_same_value(got, want):
    """Equal in every field, recursing into dataclasses; arrays equal in dtype, shape and bits."""
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want)
        for f in dataclasses.fields(want):
            assert_same_value(getattr(got, f.name), getattr(want, f.name))
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        bits = {"f": np.uint64, "b": np.uint8}.get(want.dtype.kind)
        assert np.array_equal(got.view(bits) if bits else got, want.view(bits) if bits else want)
    else:
        assert got == want


def test_ground_truth_round_trip(tmp_path):
    gt = GroundTruth(
        bounce=np.array([1, 2]),
        surface_point=np.array([[1.0, 2, 3], [4, 5, 6]]),
        object_label=np.array([0, 1]),
        projector_pixel=np.array([[10.5, 20.25], [1, 2]]),
        on_epipolar=np.array([False, True]),
        path=np.array([0, 1, -1]),  # the last event is spurious
        sweep=np.array([0, 1, -1]),
        step=np.array([10, 20, -1]),
        step_times=np.array([[-1, -1, -1], [0, 10, 100], [1, 20, 200]]),
        labels=("wall", "mirror"),
    )
    gt.save_text(tmp_path / "gt.txt", tmp_path / "gt_events.txt")
    assert (tmp_path / "gt.txt").read_text().splitlines()[:3] == [
        "# labels: wall mirror",
        "# bounce sx sy sz label px py on_epipolar",
        "1 1 2 3 0 10.5 20.25 false",
    ]
    assert (tmp_path / "gt_events.txt").read_text() == "# path sweep step step_time_us\n0 0 10 100\n1 1 20 200\n-1 -1 -1 -1\n"
    back = GroundTruth.load_text(tmp_path / "gt.txt", tmp_path / "gt_events.txt")
    assert_same_value(back, gt)
    assert np.isnan(back.per_event("surface_point")[2]).all()
    assert np.array_equal(back.step_time_us, [100, 200, -1])


def test_ground_truth_subset_round_trips_with_its_step_times(tmp_path):
    camera, projector = small_rig(steps=101, cam_px=64)
    noise = NoiseModel(timestamp_jitter_sigma_us=0.0, spurious_rate=0.05, seed=3)
    gt = simulate_scan([wall_object()], camera, projector, ScanSchedule(101, 10000, 1000), noise).ground_truth
    assert (gt.path == -1).any()
    # a reordering of every event keeps the table itself, not a rebuilt copy
    assert np.shares_memory(gt.take(np.arange(len(gt))[::-1]).step_times, gt.step_times)
    sub = gt.take(np.arange(len(gt) // 2))  # events are in time order: the later steps drop out
    assert len(sub.step_times) < len(gt.step_times)
    paths = tmp_path / "gt.txt", tmp_path / "gt_events.txt"
    sub.save_text(*paths)
    assert_same_value(GroundTruth.load_text(*paths), sub)


def two_path_truth():
    return GroundTruth(
        bounce=np.array([1, 2]),
        surface_point=np.ones((2, 3)),
        object_label=np.array([0, 0]),
        projector_pixel=np.ones((2, 2)),
        on_epipolar=np.array([False, True]),
        path=np.array([0, 1]),
        sweep=np.array([0, 1]),
        step=np.array([1, 2]),
        step_times=np.array([[0, 1, 10], [1, 2, 20]]),
        labels=("wall",),
    )


def saved_two_path_truth(tmp_path):
    paths = tmp_path / "gt.txt", tmp_path / "gt_events.txt"
    two_path_truth().save_text(*paths)
    return paths


def test_ground_truth_rejects_unknown_on_epipolar(tmp_path):
    paths = saved_two_path_truth(tmp_path)
    paths[0].write_text(paths[0].read_text().replace(" true\n", " yes\n"))
    with pytest.raises(formats.FormatError, match=re.escape(paths[0].name) + ".*on_epipolar"):
        GroundTruth.load_text(*paths)


@pytest.mark.parametrize(
    "file, old, new, match",
    [
        (0, "\n2 1 ", "\n0 1 ", "gt.txt: row 2 has bounce 0"),  # a light path has bounced at least once
        (0, "\n2 1 ", "\n-2 1 ", "gt.txt: row 2 has bounce -2"),
        (1, "\n1 1 2 ", "\n2 1 2 ", r"gt_events.txt: row 2 has path 2, outside \[-1, 2\)"),
        (1, "\n1 1 2 ", "\n-2 1 2 ", r"gt_events.txt: row 2 has path -2, outside \[-1, 2\)"),
        (1, "\n1 1 2 20", "\n1 0 1 20", "gt_events.txt: one .* has two step times"),
        (0, "# bounce sx sy sz label px py on_epipolar\n", "", "gt.txt: missing column header"),
        (1, "# path sweep step step_time_us\n", "", "gt_events.txt: missing column header"),
    ],
    ids=[
        "path-bounce-0", "path-bounce-negative", "event-path-past-end", "event-path-below-minus-1", "two-step-times",
        "path-header-missing", "event-header-missing",
    ],
)
def test_ground_truth_rejects_rows_it_cannot_keep(tmp_path, file, old, new, match):
    paths = saved_two_path_truth(tmp_path)
    text = paths[file].read_text()
    assert text.count(old) == 1
    paths[file].write_text(text.replace(old, new))
    with pytest.raises(formats.FormatError, match=match):
        GroundTruth.load_text(*paths)


def test_step_time_of_unknown_step_raises():
    gt = dataclasses.replace(two_path_truth(), step_times=[[0, 1, 10]])
    with pytest.raises(ValueError, match="missing from step_times"):
        gt.step_time_us


def test_ply_round_trip(tmp_path):
    pts = np.array([[0.5, 1.5, 600.0], [-3.25, 0.0, 598.125]])
    formats.write_ply(tmp_path / "c.ply", [formats.XYZ, ("quality", float)], [pts, np.array([0.9, 1.0])])
    back, extras = formats.read_ply(tmp_path / "c.ply")
    assert np.array_equal(back, pts)
    assert np.array_equal(extras["quality"], [0.9, 1.0])


def test_table_zero_rows_typed_without_warning(tmp_path):
    path = tmp_path / "t.txt"
    columns = [("a", np.int64), ("b", float), ("c", ("false", "true"))]
    formats.write_table(path, columns, [np.zeros(0, np.int64), np.zeros(0), np.zeros(0, bool)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cols, data = formats.read_table(path, columns)
    assert cols == ["a", "b", "c"]
    assert [(d.dtype, d.shape) for d in data] == [(np.int64, (0,)), (np.float64, (0,)), (np.int8, (0,))]


def test_table_one_row_typed(tmp_path):
    path = tmp_path / "t.txt"
    columns = [("a", np.int32), ("b", float), ("flag", ("false", "true"))]
    formats.write_table(path, columns, [np.array([7]), np.array([2.5]), np.array([True])], header="one")
    _, (a, b, flag) = formats.read_table(path, columns)
    assert a.dtype == np.int32 and a.tolist() == [7]
    assert b.tolist() == [2.5]
    assert flag.tolist() == [1]


def test_table_exact_float_round_trip(tmp_path):
    path = tmp_path / "t.txt"
    values = np.array([-0.0, np.nan, 1e-17, 5e-324, 1.7976931348623157e308])
    formats.write_table(path, [("v", float)], [values])
    _, (back,) = formats.read_table(path, [("v", float)])
    assert back.dtype == np.float64
    assert np.array_equal(back.view(np.uint64), values.view(np.uint64))


def test_event_times_parse_as_integers(tmp_path):
    t = np.array([2**53 + 1, 2**62 + 3], dtype=np.int64)  # float64 would round both
    ev = EventStream(t, np.array([0, 1]), np.array([2, 3]), np.array([1, -1]))
    ev.save_text(tmp_path / "e.txt")
    back = EventStream.load_text(tmp_path / "e.txt")
    assert back.t.dtype == np.int64
    assert back.t.tolist() == t.tolist()


def test_write_table_rejects_declaration_array_count_mismatch(tmp_path):
    path = tmp_path / "t.txt"
    col = np.arange(3)
    with pytest.raises(ValueError):
        formats.write_table(path, ["a", "b"], [col])
    with pytest.raises(ValueError):
        formats.write_table(path, [("a", np.int64)], [col, col])
    with pytest.raises(ValueError, match="shape"):
        formats.write_table(path, [(("a", "b"), np.int64)], [col])
    assert not path.exists()


@pytest.mark.parametrize(
    "columns, arrays, column",
    [
        ([("a", np.int64), ("b", np.int64)], [np.arange(2), np.array([1.7, 2.0])], "b"),  # would write 1
        ([("a", np.int64), ("flag", ("false", "true"))], [np.arange(2), np.array([0, -1])], "flag"),  # would write true
        ([("a", np.int64), ("flag", ("false", "true"))], [np.arange(2), np.array([1, 2])], "flag"),
        ([("a", np.int64), (("b", "c"), float)], [np.arange(2), np.zeros((3, 2))], "b"),
    ],
    ids=["int_column_of_floats", "name_code_below_zero", "name_code_past_end", "unequal_lengths"],
)
def test_write_table_rejects_values_it_would_misprint(tmp_path, columns, arrays, column):
    path = tmp_path / "t.txt"
    with pytest.raises(ValueError, match=re.escape(str(path)) + f".*column '{column}'"):
        formats.write_table(path, columns, arrays)
    assert not path.exists()


def test_table_writes_edge_floats_and_int64_limits(tmp_path):
    path = tmp_path / "t.txt"
    values = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308])
    limits = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max] * 4)
    columns = [("v", float), ("i", np.int64)]
    formats.write_table(path, columns, [values, limits])
    assert [line.split()[0] for line in path.read_text().splitlines()[1:]] == [
        "0", "-0", "nan", "nan", "inf", "-inf", "4.9406564584124654e-324", "1.7976931348623157e+308"
    ]
    _, (_, back) = formats.read_table(path, columns)
    assert back.dtype == np.int64 and back.tolist() == limits.tolist()


def test_table_untyped_returns_strings(tmp_path):
    path = tmp_path / "m.tsv"
    formats.write_table(path, ["name", "value"], [np.array(["rmse", "count"]), np.array(["0.5", "3"])])
    _, (names, values) = formats.read_table(path, ["name", "value"])
    assert names.dtype.kind == "U" and values.dtype.kind == "U"
    assert names.tolist() == ["rmse", "count"] and values.tolist() == ["0.5", "3"]
    assert formats.parse_scalar(values[1]) == 3


def test_table_malformed_raises_format_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# a b\n1 2\n3\n")
    for columns in (["a", "b"], [("a", np.int64), ("b", np.int64)]):
        with pytest.raises(formats.FormatError, match=re.escape(path.name)):
            formats.read_table(path, columns)
    path.write_text("# a b\n1 2\n")
    with pytest.raises(formats.FormatError, match="missing column header"):
        formats.read_table(path, [("a", np.int64), ("c", np.int64)])
    path.write_text("# a b\n1 x\n")
    with pytest.raises(formats.FormatError, match=re.escape(path.name)):
        formats.read_table(path, [("a", np.int64), ("b", float)])


def test_table_unknown_name_raises_format_error(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# a flag\n1 true\n2 falsey\n")  # too long for the name field: must not truncate to 'false'
    with pytest.raises(formats.FormatError, match=re.escape(path.name) + ".*row 2"):
        formats.read_table(path, [("a", np.int64), ("flag", ("false", "true"))])


def test_ply_zero_vertices_and_short_body(tmp_path):
    path = tmp_path / "c.ply"
    formats.write_ply(path, [formats.XYZ, ("quality", float)], [np.zeros((0, 3)), np.zeros(0)])
    vertices, extras = formats.read_ply(path)
    assert vertices.shape == (0, 3) and extras["quality"].shape == (0,)
    pts = np.array([[0.5, 1.5, 600.0], [-3.25, 0.0, 598.125]])
    formats.write_ply(path, [formats.XYZ], [pts])
    path.write_text(path.read_text().replace("element vertex 2", "element vertex 3"))
    with pytest.raises(formats.FormatError, match=re.escape(path.name)):
        formats.read_ply(path)
    path.write_text(path.read_text().replace("element vertex 3", "element vertex 2").replace("598.125", "598.125 1"))
    with pytest.raises(formats.FormatError, match=re.escape(path.name)):
        formats.read_ply(path)
    path.write_text(path.read_text().replace("598.125 1", "598.125").replace("element vertex 2", "element vertex abc"))
    with pytest.raises(formats.FormatError, match=re.escape(path.name)):
        formats.read_ply(path)


def test_event_binary_matches_struct_records(tmp_path):
    t = np.array([0, 5, 2**40], dtype=np.int64)
    x = np.array([0, 65535, 7], dtype=np.int32)
    y = np.array([3, 0, 65535], dtype=np.int32)
    p = np.array([1, -1, 127], dtype=np.int8)
    path = tmp_path / "e.bin"
    formats.write_event_binary(path, t, x, y, p)
    rec = struct.Struct("<QHHb3x")
    assert path.read_bytes() == b"".join(rec.pack(*row) for row in zip(t.tolist(), x.tolist(), y.tolist(), p.tolist()))
    back = formats.read_event_binary(path)
    assert [b.dtype for b in back] == [np.int64, np.int32, np.int32, np.int8]
    assert all(np.array_equal(b, a) for b, a in zip(back, (t, x, y, p)))
    for bad in ({"x": np.array([0, 65536, 7])}, {"y": np.array([-1, 0, 0])}, {"t": np.array([-1, 0, 0])},
                {"polarity": np.array([1, -129, 1])}):
        args = {"t": t, "x": x, "y": y, "polarity": p, **bad}
        with pytest.raises(ValueError):
            formats.write_event_binary(tmp_path / "bad.bin", **args)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(formats.FormatError, match="truncated"):
        formats.read_event_binary(path)


def test_pfm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.normal(size=(5, 7, 3)).astype(np.float32)
    formats.write_pfm(tmp_path / "n.pfm", img)
    back = formats.read_pfm(tmp_path / "n.pfm")
    assert back.shape == img.shape
    assert np.array_equal(back, img)
    mask = rng.random((5, 7)).astype(np.float32)
    formats.write_pfm(tmp_path / "m.pfm", mask)
    assert np.array_equal(formats.read_pfm(tmp_path / "m.pfm"), mask)


@pytest.mark.parametrize("size_line", [b"x 2", b"7", b"7 5 3", b"7 6"])
def test_pfm_malformed_size_line_names_the_file(tmp_path, size_line):
    # "7 6" asks for one row more than the body holds
    path = tmp_path / "n.pfm"
    formats.write_pfm(path, np.zeros((5, 7), np.float32))
    path.write_bytes(path.read_bytes().replace(b"7 5", size_line, 1))
    with pytest.raises(formats.FormatError, match=re.escape(path.name)):
        formats.read_pfm(path)


SCENE_TEXT = """\
[camera]
width = 320
height = 320
fx = 1200.0
fy = 1210.0
cx = 160.0
cy = 161.0
skew = 0.25
k1 = -0.01
rotation = 1.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 1.0
translation = 0.0 0.0 0.0

[projector]
width = 801
height = 801
fx = 900.0
fy = 901.0
cx = 400.5
cy = 400.5
rotation = 1.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 1.0
translation = 1.0 2.0 3.0

[schedule]
steps_per_sweep = 801
sweep_duration_us = 30000
recovery_us = 5000
scan_start_us = 100

[noise]
timestamp_jitter_sigma_us = 12.5
spurious_rate = 0.0001
drop_probability = 0.125
seed = 42

[object]
label = wall
material = diffuse
albedo = 0.8
shape = plane
point = 0.0 0.0 600.0
normal = 0.0 0.0 -1.0
extent = 100.0 120.0

[object]
label = ball
material = specular
albedo = 0.0
strength = 1.0
shape = sphere
center = 1.0 2.0 500.0
radius = 25.4

[object]
label = wedge
material = shiny
albedo = 0.5
strength = 0.5
shape = mesh
vertices = 0.0 0.0 0.0 1.0 0.0 0.0 0.0 1.0 0.0
faces = 0 1 2
"""


def test_scene_file_loads_every_object_kind(tmp_path):
    (tmp_path / "s.scene").write_text(SCENE_TEXT)
    back = load_scene(tmp_path / "s.scene")
    assert back.camera.fx == 1200.0 and back.camera.k1 == -0.01 and back.camera.skew == 0.25
    assert back.projector.skew == 0.0 and back.projector.k1 == 0.0
    assert np.array_equal(back.projector.translation, [1.0, 2.0, 3.0])
    assert back.schedule == ScanSchedule(801, 30000, 5000, 100)
    assert back.noise == NoiseModel(12.5, 1e-4, 0.125, 42)
    assert [o.label for o in back.objects] == ["wall", "ball", "wedge"]
    assert [o.material for o in back.objects] == [
        Material("diffuse", 0.8), Material("specular", 0.0, 1.0), Material("shiny", 0.5, 0.5)
    ]
    wall, ball, wedge = (o.shape for o in back.objects)
    assert isinstance(wall, Plane) and np.array_equal(wall.extent, [100.0, 120.0])
    assert isinstance(ball, Sphere) and np.array_equal(ball.center, [1, 2, 500]) and ball.radius == 25.4
    assert isinstance(wedge, TriangleMesh) and wedge.faces.tolist() == [[0, 1, 2]]


def test_calibration_bundle_round_trip(tmp_path):
    cam = PinholeModel(fx=1450.0, fy=1430.5, cx=630.0, cy=370.0, width=1280, height=720, skew=0.4)
    proj = PinholeModel(fx=1000.0, fy=1005.0, cx=400.0, cy=398.0, width=801, height=801,
                        translation=np.array([-98.6, 0.0, 16.4]))
    save_calibration_bundle(tmp_path / "rig.calib", cam, proj)
    c2, p2 = load_calibration_bundle(tmp_path / "rig.calib")
    assert c2.fx == cam.fx and c2.skew == cam.skew
    assert np.array_equal(p2.translation, proj.translation)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "make, name",
    [
        (lambda v: Sphere([0.0, v, 500.0], 10.0), "center"),
        (lambda v: Sphere([0.0, 0.0, 500.0], v), "radius"),
        (lambda v: Plane([0.0, 0.0, v], [0.0, 0.0, -1.0], [1.0, 1.0]), "point"),
        (lambda v: TriangleMesh([[0, 0, 0], [1, v, 0], [0, 1, 0]], [[0, 1, 2]]), "vertices"),
        (lambda v: Material("diffuse", v), "albedo"),
        (lambda v: NoiseModel(timestamp_jitter_sigma_us=v), "timestamp_jitter_sigma_us"),
        (lambda v: NoiseModel(spurious_rate=v), "spurious_rate"),
        (lambda v: PinholeModel(fx=1.0, fy=1.0, cx=1.0, cy=1.0, width=4, height=4, translation=[0.0, v, 0.0]), "translation"),
        (lambda v: PinholeModel(fx=1.0, fy=1.0, cx=1.0, cy=1.0, width=4, height=4, rotation=np.diag([v, 1.0, 1.0])), "rotation"),
    ],
)
def test_scene_constructors_reject_non_finite(make, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        make(value)


def test_material_invariants():
    with pytest.raises(ValueError):
        Material("diffuse", 0.5, 0.5)
    with pytest.raises(ValueError):
        Material("specular", 0.5, 0.5)
    with pytest.raises(ValueError):
        Material("shiny", 0.0, 0.5)
    with pytest.raises(ValueError):
        Material("glass")


# --- every declared artifact round-trips ---------------------------------------

EDGE_FLOATS = [np.nan, -0.0, 0.0, 5e-324, -5e-324, 1.8e308, -1.8e308, np.inf, -np.inf, 1e-17, 0.1, 1 / 3]
TOKENS = ["direct", "true", "0.5", "-1e-17", "nan", "a_b", "x" * 12]


def _field(rng, kind, n: int, width: int) -> np.ndarray:
    """n random rows of one declared kind; every edge value appears once n allows."""
    size = n * width
    if isinstance(kind, tuple):
        edge, values = np.arange(len(kind)), rng.integers(0, len(kind), size)
        dtype = np.int8
    elif np.dtype(kind).kind == "f":
        edge, values = EDGE_FLOATS, rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
        dtype = np.float64
    elif np.dtype(kind).kind == "i":
        info = np.iinfo(kind)
        edge, values = [info.min, info.max, 0, -1, 1], rng.integers(info.min, info.max, size, endpoint=True)
        dtype = kind
    else:
        edge, values = TOKENS, rng.choice(TOKENS, size)
        dtype = str
    column = np.concatenate([np.asarray(edge, dtype=dtype), np.asarray(values, dtype=dtype)])[:size]
    column = rng.permutation(column)
    return column.reshape(n, width) if width > 1 else column


def _valid_truth(arrays):
    """A GroundTruth of ``arrays`` made loadable, which are fixed in place:
    every path bounces at least once, every event's path is in [-1, paths)
    and each (sweep, step) has one time."""
    bounce, surface, label, proj, on_epi, path, sweep, step, times = arrays
    np.maximum(bounce, 1, out=bounce)
    path %= len(bounce) + 1
    path -= 1
    keys = sweep.astype(np.int64) * 2**32 + step
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    times[:] = times[first][inverse.ravel()]
    return GroundTruth(bounce, surface, label, proj, on_epi, path, sweep, step, step_table(sweep, step, times))


# artifact -> (one declaration per file, object made of the files' arrays, save, load); None where no class reads it
ARTIFACTS = {
    "events.txt": ((EVENT_COLUMNS,), lambda a: EventStream(*a), EventStream.save_text, EventStream.load_text),
    "ground_truth.txt": ((PATH_COLUMNS, EVENT_TRUTH_COLUMNS), _valid_truth, GroundTruth.save_text, GroundTruth.load_text),
    "correspondences.txt": (
        (CORRESPONDENCE_COLUMNS,), lambda a: CorrespondenceSet(*a), CorrespondenceSet.save_text, CorrespondenceSet.load_text
    ),
    "classified.txt": (
        (CLASSIFIED_COLUMNS,), lambda a: ClassifiedSet(CorrespondenceSet(*a[:4]), *a[4:]), ClassifiedSet.save_text,
        ClassifiedSet.load_text,
    ),
    "diffuse.ply": (
        (CLOUD_COLUMNS,), lambda a: DiffuseCloud(a[0], a[3], a[4], a[2], a[1]), DiffuseCloud.save_ply, DiffuseCloud.load_ply
    ),
    "screen.txt": ((SCREEN_COLUMNS,), None, None, None),
    "residuals.txt": ((RESIDUAL_COLUMNS,), None, None, None),
    "metrics.tsv": ((METRICS_COLUMNS,), None, None, None),
    "specular.ply": ((SPECULAR_COLUMNS,), None, None, None),
}


def _assert_bit_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype.kind == w.dtype.kind
        if w.dtype.kind == "f":
            assert g.dtype == w.dtype and np.array_equal(g.view(np.uint64), w.view(np.uint64))
        else:
            assert np.array_equal(g, w)


@pytest.mark.parametrize("name", list(ARTIFACTS))
@settings(max_examples=20, deadline=None)
@given(n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
@example(n=0, seed=0)
@example(n=1, seed=0)
@example(n=40, seed=1)
def test_every_artifact_round_trips(name, n, seed):
    declarations, make, save, load = ARTIFACTS[name]
    rng = np.random.default_rng(seed)
    arrays = []
    for columns in declarations:
        arrays.append([])
        for entry in columns:
            names, kind = (entry, str) if isinstance(entry, str) else entry
            arrays[-1].append(_field(rng, kind, n, 1 if isinstance(names, str) else len(names)))
    ply = name.endswith(".ply")
    write = formats.write_ply if ply else formats.write_table
    read = (lambda p, c: formats.read_ply(p, c)) if ply else (lambda p, c: formats.read_table(p, c)[1])
    with tempfile.TemporaryDirectory() as tmp:
        first = [Path(tmp) / f"a{i}_{name}" for i in range(len(declarations))]
        second = [Path(tmp) / f"b{i}_{name}" for i in range(len(declarations))]
        if make is None:
            (columns,) = declarations
            write(first[0], columns, arrays[0])
        else:
            value = make([a for file_arrays in arrays for a in file_arrays])
            save(value, *first)
        for path, columns, file_arrays in zip(first, declarations, arrays):
            _assert_bit_equal(read(path, columns), file_arrays)
        if make is None:
            write(second[0], columns, read(first[0], columns))
        else:
            back = load(*first)
            assert_same_value(back, value)
            save(back, *second)
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()
