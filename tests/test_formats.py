import dataclasses
import functools
import math
import re
import struct
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import small_rig, wall_object

from eventscan import formats
from eventscan.decode import CORRESPONDENCE_COLUMNS, CorrespondenceSet
from eventscan.deflectometry import RESIDUAL_COLUMNS
from eventscan.events import EVENT_COLUMNS, EVENT_TRUTH_COLUMNS, PATH_COLUMNS, EventStream, GroundTruth
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
        labels=("wall", "mirror"),
    )
    gt.save_text(tmp_path / "gt.txt", tmp_path / "gt_events.txt")
    assert (tmp_path / "gt.txt").read_text().splitlines()[:3] == [
        "# labels: wall mirror",
        "# bounce sx sy sz label px py on_epipolar",
        "1 1 2 3 0 10.5 20.25 false",
    ]
    assert (tmp_path / "gt_events.txt").read_text() == "# path sweep step\n0 0 10\n1 1 20\n-1 -1 -1\n"
    back = GroundTruth.load_text(tmp_path / "gt.txt", tmp_path / "gt_events.txt")
    assert_same_value(back, gt)
    assert np.isnan(back.per_event("surface_point")[2]).all()
    # 10 us steps; sweep 1 starts after a 1000 us sweep and a 500 us recovery
    assert np.array_equal(back.step_time_us(ScanSchedule(100, 1000, 500)), [100, 1700, -1])


def test_ground_truth_subset_round_trips_with_its_step_times(tmp_path):
    camera, projector = small_rig(steps=101, cam_px=64)
    noise = NoiseModel(timestamp_jitter_sigma_us=0.0, spurious_rate=0.05, seed=3)
    sched = ScanSchedule(101, 10000, 1000)
    gt = simulate_scan([wall_object()], camera, projector, sched, noise).ground_truth
    assert (gt.path == -1).any()
    half = np.arange(len(gt) // 2)
    sub = gt.take(half)
    paths = tmp_path / "gt.txt", tmp_path / "gt_events.txt"
    sub.save_text(*paths)
    back = GroundTruth.load_text(*paths)
    assert_same_value(back, sub)
    assert np.array_equal(back.step_time_us(sched), gt.step_time_us(sched)[half])


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


@pytest.mark.parametrize("label", ["back wall", "-", ""], ids=["space", "dash", "empty"])
def test_ground_truth_refuses_a_label_its_header_cannot_carry(tmp_path, label):
    paths = tmp_path / "gt.txt", tmp_path / "gt_events.txt"
    with pytest.raises(ValueError, match="label"):
        dataclasses.replace(two_path_truth(), labels=(label,)).save_text(*paths)
    assert not any(path.exists() or formats.twin_path(path).exists() for path in paths)


@pytest.mark.parametrize(
    "file, old, new, match",
    [
        (0, "\n2 1 ", "\n0 1 ", "gt.txt: row 2 has bounce 0"),  # a light path has bounced at least once
        (0, "\n2 1 ", "\n-2 1 ", "gt.txt: row 2 has bounce -2"),
        (1, "\n1 1 2\n", "\n2 1 2\n", r"gt_events.txt: row 2 has path 2, outside \[-1, 2\)"),
        (1, "\n1 1 2\n", "\n-2 1 2\n", r"gt_events.txt: row 2 has path -2, outside \[-1, 2\)"),
        (1, "\n1 1 2\n", "\n1 3 2\n", r"gt_events.txt: row 2 has sweep 3, outside \{-1, 0, 1, 2\}"),
        (1, "\n1 1 2\n", "\n-1 -2 -1\n", r"gt_events.txt: row 2 has sweep -2, outside \{-1, 0, 1, 2\}"),
        (1, "\n1 1 2\n", "\n1 -1 2\n", "gt_events.txt: row 2 has path 1, sweep -1, step 2; they are all -1 or all >= 0"),
        (1, "\n1 1 2\n", "\n1 1 -1\n", "gt_events.txt: row 2 has path 1, sweep 1, step -1; they are all -1"),
        (1, "\n1 1 2\n", "\n-1 1 2\n", "gt_events.txt: row 2 has path -1, sweep 1, step 2; they are all -1"),
        (1, "\n1 1 2\n", "\n-1 -1 0\n", "gt_events.txt: row 2 has path -1, sweep -1, step 0; they are all -1"),
        (0, "# bounce sx sy sz label px py on_epipolar\n", "", "gt.txt: missing column header"),
        (1, "# path sweep step\n", "", "gt_events.txt: missing column header"),
    ],
    ids=[
        "path-bounce-0", "path-bounce-negative", "event-path-past-end", "event-path-below-minus-1", "sweep-past-raster",
        "sweep-below-minus-1", "annotated-without-sweep", "annotated-without-step", "spurious-with-sweep",
        "spurious-with-step", "path-header-missing", "event-header-missing",
    ],
)
def test_ground_truth_rejects_rows_it_cannot_keep(tmp_path, file, old, new, match):
    paths = saved_two_path_truth(tmp_path)
    text = paths[file].read_text()
    assert text.count(old) == 1
    paths[file].write_text(text.replace(old, new))
    with pytest.raises(formats.FormatError, match=match):
        GroundTruth.load_text(*paths)


@pytest.mark.parametrize(
    "change, match",
    [
        ({"path": [0, -1], "sweep": [0, 0], "step": [3, 0]}, "gt_events.txt: row 2 would have path -1, sweep 0, step 0; they are all -1"),
        ({"path": [0, 1], "sweep": [0, 1], "step": [3, -1]}, "gt_events.txt: row 2 would have path 1, sweep 1, step -1; they are all -1"),
        ({"path": [0, 2]}, r"gt_events.txt: row 2 would have path 2, outside \[-1, 2\)"),
        ({"sweep": [0, 3]}, r"gt_events.txt: row 2 would have sweep 3, outside \{-1, 0, 1, 2\}"),
        ({"bounce": [1, 0]}, "gt.txt: row 2 would have bounce 0"),
    ],
    ids=["spurious-with-sweep", "annotated-without-step", "path-past-end", "sweep-past-raster", "bounce-0"],
)
def test_ground_truth_refuses_to_save_rows_it_cannot_load(tmp_path, change, match):
    paths = tmp_path / "gt.txt", tmp_path / "gt_events.txt"
    with pytest.raises(ValueError, match=re.escape(str(tmp_path)) + "/" + match):
        dataclasses.replace(two_path_truth(), **change).save_text(*paths)
    assert not any(path.exists() or formats.twin_path(path).exists() for path in paths)


def test_ground_truth_refuses_the_four_column_event_file(tmp_path):
    # the earlier layout stored each event's step time as a fourth column
    paths = saved_two_path_truth(tmp_path)
    paths[1].write_text("# path sweep step step_time_us\n0 0 1 10\n1 1 2 20\n")
    with pytest.raises(formats.FormatError, match=re.escape(str(paths[1]))):
        GroundTruth.load_text(*paths)


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


def _cut_inside(path, char: str) -> None:
    """Cut ``path`` one byte into the first ``char``, a multibyte character."""
    data = path.read_bytes()
    path.write_bytes(data[: data.index(char.encode()) + 1])


@pytest.mark.parametrize("reader", ["table", "ply", "ground_truth"])
def test_text_cut_inside_a_multibyte_character_names_the_file(tmp_path, reader):
    path = tmp_path / "t"
    if reader == "table":
        formats.write_table(path, [("a", np.int64)], [np.arange(2)], header="caf\u00e9")
        read = functools.partial(formats.read_table, path, [("a", np.int64)])
    elif reader == "ply":
        formats.write_ply(path, [formats.XYZ], [np.zeros((2, 3))], comment="caf\u00e9")
        read = functools.partial(formats.read_ply, path, [formats.XYZ])
    else:
        events = tmp_path / "e"
        dataclasses.replace(two_path_truth(), labels=("caf\u00e9",)).save_text(path, events)
        read = functools.partial(GroundTruth.load_text, path, events)
    _cut_inside(path, "\u00e9")
    with pytest.raises(formats.FormatError, match=re.escape(str(path)) + ": not UTF-8 text"):
        read()


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
label = patch
material = shiny
albedo = 0.5
strength = 0.5
shape = plane
point = 0.0 0.0 550.0
normal = 0.0 0.6 -0.8
extent = 10.0 10.0
"""


def test_scene_file_loads_every_object_kind(tmp_path):
    (tmp_path / "s.scene").write_text(SCENE_TEXT)
    back = load_scene(tmp_path / "s.scene")
    assert back.camera.fx == 1200.0 and back.camera.k1 == -0.01 and back.camera.skew == 0.25
    assert back.projector.skew == 0.0 and back.projector.k1 == 0.0
    assert np.array_equal(back.projector.translation, [1.0, 2.0, 3.0])
    assert back.schedule == ScanSchedule(801, 30000, 5000, 100)
    assert back.noise == NoiseModel(12.5, 1e-4, 0.125, 42)
    assert [o.label for o in back.objects] == ["wall", "ball", "patch"]
    assert [o.material for o in back.objects] == [
        Material("diffuse", 0.8), Material("specular", 0.0, 1.0), Material("shiny", 0.5, 0.5)
    ]
    wall, ball, patch = (o.shape for o in back.objects)
    assert isinstance(wall, Plane) and np.array_equal(wall.extent, [100.0, 120.0])
    assert isinstance(ball, Sphere) and np.array_equal(ball.center, [1, 2, 500]) and ball.radius == 25.4
    assert isinstance(patch, Plane) and np.allclose(patch.normal, [0.0, 0.6, -0.8])


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


def _field(rng, kind, domain, n: int, width: int) -> np.ndarray:
    """n random rows of one declared kind inside its domain (as ``formats._entries``
    reads it from the declaration); every edge value in it appears once n allows."""
    size = n * width
    if isinstance(kind, tuple) or np.dtype(kind).kind == "i":
        lo, hi = domain
        edge, values = [v for v in (lo, hi, 0, -1, 1) if lo <= v <= hi], rng.integers(lo, hi, size, endpoint=True)
        dtype = np.int8 if isinstance(kind, tuple) else kind
    elif np.dtype(kind).kind == "f":
        edge, values = EDGE_FLOATS, rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
        if domain is not None:
            lo, hi = domain
            edge, values = [v for v in EDGE_FLOATS + [lo, hi] if lo <= v <= hi], np.clip(values, lo, hi)
        dtype = np.float64
    else:
        edge, values = TOKENS, rng.choice(TOKENS, size)
        dtype = str
    column = np.concatenate([np.asarray(edge, dtype=dtype), np.asarray(values, dtype=dtype)])[:size]
    column = rng.permutation(column)
    return column.reshape(n, width) if width > 1 else column


def _valid_truth(arrays):
    """A GroundTruth of ``arrays`` made loadable, which are fixed in place:
    every event's path is in [-1, paths), and an event's sweep and step are
    -1 where its path is, else a sweep in {0, 1, 2} and a step >= 0."""
    bounce, surface, label, proj, on_epi, path, sweep, step = arrays
    path %= len(bounce) + 1
    path -= 1
    sweep %= 3
    step &= np.iinfo(step.dtype).max
    sweep[path == -1] = step[path == -1] = -1
    return GroundTruth(bounce, surface, label, proj, on_epi, path, sweep, step)


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
        for names, kind, _, domain in formats._entries(columns):
            arrays[-1].append(_field(rng, kind, domain, n, len(names)))
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


# --- every declared domain refuses a value outside it ----------------------------


def _outside(kind, domain) -> dict:
    """The values just outside ``domain`` that an entry of ``kind`` can hold, by side."""
    lo, hi = domain
    if np.dtype(kind).kind == "f":
        below = math.nextafter(lo, -math.inf) if lo > -math.inf else None
        return {"below": below, "above": math.nextafter(hi, math.inf) if hi < math.inf else None, "nan": math.nan}
    info = np.iinfo(kind)
    return {"below": lo - 1 if lo > info.min else None, "above": hi + 1 if hi < info.max else None}


# (artifact, declaration, entry index, side) for each entry that declares a domain in a shipped artifact
DOMAIN_FAULTS = [
    pytest.param(name, columns, at, side, id=f"{name}-{entry[0] if isinstance(entry[0], str) else entry[0][0]}-{side}")
    for name, (declarations, *_) in ARTIFACTS.items()
    for columns in declarations
    for at, (entry, (_, kind, _, domain)) in enumerate(zip(columns, formats._entries(columns)))
    if len(entry) == 3
    for side, value in _outside(kind, domain).items()
    if value is not None
]


def _head(ply: bool, columns):
    """The writer's head lines of ``columns``' table or PLY file, by row count."""
    names = formats._column_names(columns)
    if ply:
        return lambda n: ["ply", "format ascii 1.0", f"element vertex {n}"] + [f"property double {c}" for c in names] + ["end_header"]
    return lambda n: ["# " + " ".join(names)]


@pytest.mark.parametrize("name, columns, at, side", DOMAIN_FAULTS)
@settings(max_examples=4, deadline=None)
@given(n=st.integers(1, 5), data=st.data())
def test_a_value_outside_its_domain_is_refused_on_write_and_on_either_read(name, columns, at, side, n, data):
    # the writer refuses it before any file is opened; a text file holding
    # it (hand-edited) and a twin holding it are refused on read alike
    entries = list(formats._entries(columns))
    names, kind, _, domain = entries[at]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    arrays = [_field(rng, entry_kind, entry_domain, n, len(entry_names)) for entry_names, entry_kind, _, entry_domain in entries]
    row, col = data.draw(st.integers(0, n - 1), label="row"), data.draw(st.integers(0, len(names) - 1), label="column")
    field = arrays[at].reshape(n, len(names))  # a view, so the value lands in arrays[at]
    field[row, col] = _outside(kind, domain)[side]
    ply = name.endswith(".ply")
    read = (lambda p: formats.read_ply(p, columns)) if ply else (lambda p: formats.read_table(p, columns))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        says = f"{re.escape(str(path))}: row {row + 1} %s {names[col]} {re.escape(str(field[row, col].item()))};"
        with pytest.raises(ValueError, match=says % "would have"):
            (formats.write_ply if ply else formats.write_table)(path, columns, arrays)
        assert not path.exists() and not formats.twin_path(path).exists()
        # the records the writer would build, unchecked
        records = [
            np.ascontiguousarray(array, dtype=np.int8 if isinstance(entry_kind, tuple) else parsed)
            for array, (_, entry_kind, parsed, _) in zip(arrays, entries)
        ]
        digest = formats._write_body(path, _head(ply, columns), columns, records)
        with pytest.raises(formats.FormatError, match=says % "has"):
            read(path)
        formats._write_twin(path, columns, records, digest)
        with mock.patch.object(formats, "_declared", side_effect=AssertionError("the text was parsed")):
            with pytest.raises(formats.FormatError, match=says % "has"):
                read(path)


# --- binary twins ----------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, values",
    [
        (np.int32, np.array([1, 2**40], dtype=np.int64)),
        (np.int64, np.array([0, 2**63], dtype=np.uint64)),
        (np.uint8, np.array([-1, 3])),
        (str, np.array(["ok", "a b"])),
        (str, np.array(["ok", "#c"])),
        (str, np.array(["ok", ""])),
        (str, np.array(["ok", "x#y"])),
        (str, np.array(["ok", "tab\there"])),
        (str, np.array(["ok", "line\nbreak"])),
        (str, np.array(["ok", "nul\x00"], dtype=object)),
    ],
    ids=["int64_in_int32", "uint64_in_int64", "negative_in_uint8", "space", "leading_hash", "empty", "inner_hash", "tab", "newline", "nul"],
)
def test_write_table_rejects_values_it_cannot_read_back(tmp_path, kind, values):
    path = tmp_path / "t.txt"
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*column 'v'"):
        formats.write_table(path, [("i", np.int64), ("v", kind)], [np.arange(2), values])
    assert not path.exists() and not formats.twin_path(path).exists()


@pytest.mark.parametrize("text", ["two\nlines", "carriage\rreturn"])
def test_writers_reject_a_header_of_more_than_one_line(tmp_path, text):
    path = tmp_path / "t"
    with pytest.raises(ValueError, match="one line"):
        formats.write_table(path, [("a", np.int64)], [np.arange(2)], header=text)
    with pytest.raises(ValueError, match="one line"):
        formats.write_ply(path, [formats.XYZ], [np.zeros((2, 3))], comment=text)
    assert not path.exists() and not formats.twin_path(path).exists()


def test_writers_reject_text_that_is_not_utf8(tmp_path):
    # a lone surrogate is a str that no UTF-8 file can hold
    path = tmp_path / "t"
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*column 'v'.*UTF-8"):
        formats.write_table(path, [("i", np.int64), "v"], [np.arange(2), np.array(["ok", "lone\udcff"])])
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*UTF-8"):
        formats.write_table(path, [("a", np.int64)], [np.arange(2)], header="lone\udcff")
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*UTF-8"):
        formats.write_ply(path, [formats.XYZ], [np.zeros((2, 3))], comment="lone\udcff")
    assert not path.exists() and not formats.twin_path(path).exists()


# NaNs of either sign, quiet and signalling: every one prints as 'nan'
ODD_NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF0000000000001], np.uint64).view(np.float64)
TWIN_KINDS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.float64, np.float32, ("false", "true"), ("direct", "indirect", "rejected"), str]


def _values(kind):
    """Hypothesis strategy for one value of a declared kind, and the dtype it is handed over in."""
    if isinstance(kind, tuple):
        return st.integers(0, len(kind) - 1), np.int64
    if kind is str:
        bare = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00#"), min_size=1, max_size=6)
        return st.one_of(st.sampled_from(["nan", "0.5", "-0", "true"]), bare.filter(lambda s: s.split() == [s])), str
    if np.dtype(kind).kind == "f":
        edge = st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, 1.7976931348623157e308, 3.4028235677973366e38, *ODD_NANS])
        return st.one_of(st.floats(), edge), np.float64
    info = np.iinfo(kind)
    return st.integers(int(info.min), int(info.max)), np.int64


@st.composite
def declared_rows(draw):
    """(declaration, one array per entry, whether the file is a PLY, its header or comment)."""
    kinds = draw(st.lists(st.sampled_from(TWIN_KINDS), min_size=1, max_size=4))
    n = draw(st.integers(0, 6))
    columns, arrays, at = [], [], 0
    for kind in kinds:
        width = draw(st.integers(1, 3))
        names = tuple(f"c{at + i}" for i in range(width))
        at += width
        value, dtype = _values(kind)
        flat = np.array(draw(st.lists(value, min_size=n * width, max_size=n * width)), dtype=dtype)
        if not isinstance(kind, tuple) and kind is not str and draw(st.booleans()):
            with np.errstate(all="ignore"):  # a float32 overflows to inf
                flat = flat.astype(kind)  # handed over in the declared type, or one it casts from
        arrays.append(flat.reshape(n, width) if width > 1 else flat)
        columns.append((names if width > 1 else names[0], kind))
    header = draw(st.none() | st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\r\n"), max_size=8))
    return columns, arrays, draw(st.booleans()), header


def _outcome(read, path, columns):
    """What reading ``path`` gives: its arrays, or the type of the ValueError it raises."""
    try:
        return read(path, columns)
    except ValueError as exc:
        return type(exc)


def _text_parse(read, path, columns):
    aside = path.with_name("aside")
    twin = formats.twin_path(path)
    twin.rename(aside)
    try:
        return _outcome(read, path, columns)
    finally:
        aside.rename(twin)


def _assert_same_outcome(got, want):
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def _other_kind(kind):
    return np.int64 if isinstance(kind, tuple) or kind is str or np.dtype(kind).kind == "f" else np.float64


@settings(max_examples=60, deadline=None)
@given(case=declared_rows(), edit=st.sampled_from(["none", "text_edited", "text_truncated", "text_replaced", "twin_truncated", "twin_corrupt", "other_declaration"]), where=st.floats(0, 1, exclude_max=True), flip=st.integers(1, 255))
def test_twin_is_the_text_parse_and_ignored_once_either_changes(case, edit, where, flip):
    columns, arrays, ply, header = case
    write = functools.partial(formats.write_ply, comment=header) if ply else functools.partial(formats.write_table, header=header)
    read = formats.read_ply if ply else (lambda p, c: formats.read_table(p, c)[1])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t"
        twin = formats.twin_path(path)
        write(path, columns, arrays)
        parsed = _text_parse(read, path, columns)
        _assert_same_outcome(formats._read_twin(path, columns), parsed)
        _assert_same_outcome(read(path, columns), parsed)
        if edit == "none":
            return
        if edit == "text_edited":
            path.write_bytes(path.read_bytes() + b"\n")
        elif edit == "text_truncated":
            text = path.read_bytes()
            path.write_bytes(text[: int(where * len(text))])
        elif edit == "text_replaced":
            other = Path(tmp) / "other"  # one row fewer where there is one, and a comment line more
            write(other, columns, [a[: max(len(a) - 1, 0)] for a in arrays], **{"comment" if ply else "header": f"{header}+"})
            path.write_bytes(other.read_bytes())
        elif edit == "twin_truncated":
            data = twin.read_bytes()
            twin.write_bytes(data[: int(where * len(data))])
        elif edit == "twin_corrupt":
            data = bytearray(twin.read_bytes())
            data[int(where * len(data))] ^= flip
            twin.write_bytes(bytes(data))
        else:
            (names, kind), *rest = columns
            columns = [(names, _other_kind(kind))] + rest
        assert formats._read_twin(path, columns) is None
        _assert_same_outcome(_outcome(read, path, columns), _text_parse(read, path, columns))


def test_twin_with_any_byte_changed_or_cut_off_is_ignored(tmp_path):
    path = tmp_path / "t.txt"
    columns = [("i", np.int64), (("x", "y"), float), ("flag", ("false", "true")), "s"]
    formats.write_table(path, columns, [np.arange(3), np.array([[0.0, -0.0], [np.nan, np.inf], [1 / 3, 5e-324]]), [0, 1, 1], ["a", "bb", "c"]])
    twin = formats.twin_path(path)
    data = twin.read_bytes()
    assert formats._read_twin(path, columns) is not None
    for at in range(len(data)):
        twin.write_bytes(data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1 :])
        assert formats._read_twin(path, columns) is None, at
        twin.write_bytes(data[:at])
        assert formats._read_twin(path, columns) is None, at


def test_ply_read_under_another_declaration_ignores_the_twin(tmp_path):
    rng = np.random.default_rng(5)
    n = 7
    cloud = DiffuseCloud(rng.normal(size=(n, 3)), rng.integers(0, 9, (n, 2), dtype=np.int32), rng.normal(size=(n, 2)), rng.random(n), rng.random(n))
    path = tmp_path / "diffuse.ply"
    cloud.save_ply(path)
    assert formats._read_twin(path, CLOUD_COLUMNS) is not None
    assert formats._read_twin(path, SPECULAR_COLUMNS) is None
    (points,) = formats.read_ply(path, SPECULAR_COLUMNS)
    assert points.tobytes() == cloud.position.tobytes()
    assert_same_value(DiffuseCloud.load_ply(path), cloud)


def test_loader_checks_run_on_twin_arrays(tmp_path):
    # a table the writer accepts but GroundTruth.load_text rejects: the twin
    # is used, and the loader still refuses it
    gt = two_path_truth()
    paths = tmp_path / "gt.txt", tmp_path / "gt_events.txt"
    gt.save_text(*paths)
    formats.write_table(paths[1], EVENT_TRUTH_COLUMNS, [np.array([5, 0]), gt.sweep[:2], gt.step[:2]])
    assert formats._read_twin(paths[1], EVENT_TRUTH_COLUMNS) is not None
    with pytest.raises(formats.FormatError, match="has path 5"):
        GroundTruth.load_text(*paths)
