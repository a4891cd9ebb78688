"""Interchange formats: key-value documents, tables, PLY, PFM, binary events.

Key-value documents format floats with ``repr`` (shortest round-trip form);
table and PLY bodies use ``%.17g``. Both round-trip float64 exactly, so a
given value always serializes to the same bytes and pipeline runs are
byte-reproducible.

``read_table`` returns string columns unless the caller declares a type per
column. Typed columns are parsed in one ``np.loadtxt`` pass: integers as
integers (never through float), floats as float64, and a column of names
(true/false, class names) as int8 indices into the declared names.
``read_ply`` parses its body the same way as float64. Every reader raises
``FormatError`` naming the file on a missing header, a wrong field count, an
unparsable or unknown token, or a body that does not match its header.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


class FormatError(ValueError):
    """Malformed interchange file; message carries line/field context."""


def fmt(value) -> str:
    """Stable text form for scalars and flat numeric sequences."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple, np.ndarray)):
        return " ".join(fmt(v) for v in np.asarray(value).ravel())
    raise TypeError(f"cannot format {type(value).__name__}")


def parse_scalar(text: str):
    """Best-effort scalar parse: bool, int, float, else the raw string."""
    t = text.strip()
    if t == "true":
        return True
    if t == "false":
        return False
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        return t


class Section:
    """One named block of ``key = value`` lines."""

    def __init__(self, name: str, pairs: dict | None = None):
        self.name = name
        self.pairs: dict[str, str] = dict(pairs or {})

    def set(self, key: str, value) -> None:
        self.pairs[key] = fmt(value)

    def __contains__(self, key: str) -> bool:
        return key in self.pairs

    def get_str(self, key: str) -> str:
        if key not in self.pairs:
            raise FormatError(f"section [{self.name}] is missing key '{key}'")
        return self.pairs[key]

    def get_int(self, key: str) -> int:
        return int(self.get_str(key))

    def get_float(self, key: str) -> float:
        return float(self.get_str(key))

    def get_bool(self, key: str) -> bool:
        v = self.get_str(key)
        if v not in ("true", "false"):
            raise FormatError(f"section [{self.name}] key '{key}': expected true/false, got {v!r}")
        return v == "true"

    def get_floats(self, key: str, n: int | None = None) -> np.ndarray:
        parts = self.get_str(key).split()
        try:
            arr = np.array([float(p) for p in parts])
        except ValueError as exc:
            raise FormatError(f"section [{self.name}] key '{key}': {exc}") from exc
        if n is not None and arr.size != n:
            raise FormatError(f"section [{self.name}] key '{key}': expected {n} numbers, got {arr.size}")
        return arr


def read_sections(path) -> list[Section]:
    """Parse a sectioned key-value document.

    Lines are ``[section]`` headers or ``key = value`` pairs; ``#`` starts a
    comment; section names may repeat.
    """
    sections: list[Section] = []
    current: Section | None = None
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = Section(line[1:-1].strip())
            sections.append(current)
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise FormatError(f"{path}:{lineno}: key-value pair before any [section]")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in current.pairs:
            raise FormatError(f"{path}:{lineno}: duplicate key '{key}' in [{current.name}]")
        current.pairs[key] = value.strip()
    return sections


def write_sections(path, sections: list[Section], header: str | None = None) -> None:
    lines: list[str] = []
    if header:
        for h in header.splitlines():
            lines.append(f"# {h}" if h else "#")
    for sec in sections:
        lines.append(f"[{sec.name}]")
        for key, value in sec.pairs.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    Path(path).write_text("\n".join(lines))


def _column_spec(a):
    """(percent format, python list) for one table column."""
    arr = np.asarray(a)
    if arr.dtype.kind in "iu":
        return "%d", arr.tolist()
    if arr.dtype.kind == "b":
        return "%s", np.where(arr, "true", "false").tolist()
    if arr.dtype.kind == "f":
        # %.17g round-trips float64 exactly
        return "%.17g", arr.tolist()
    return "%s", [str(v) for v in arr]


def write_table(path, columns: list[str], arrays, header: str | None = None) -> None:
    """Whitespace-separated table with a ``# col1 col2 ...`` header line.

    ``arrays`` is any iterable of columns. Each is converted before the next
    is taken, so a generator can make them one at a time.
    """
    specs = [_column_spec(a) for a in arrays]
    n = len(specs[0][1]) if specs else 0
    if any(len(values) != n for _, values in specs):
        raise ValueError("table columns must have equal length")
    head = []
    if header:
        head.append(f"# {header}")
    head.append("# " + " ".join(columns))
    if n == 0:
        Path(path).write_text("\n".join(head) + "\n")
        return
    fmt = " ".join(s[0] for s in specs)
    body = "\n".join(fmt % row for row in zip(*[s[1] for s in specs]))
    Path(path).write_text("\n".join(head) + "\n" + body + "\n")


def read_table(path, expected_columns: list[str] | None = None, types: list | None = None):
    """Read back a write_table file; returns (columns, list of column arrays).

    The header is the first ``#`` line before the body whose fields equal
    ``expected_columns`` (any non-empty ``#`` line when None). Without
    ``types`` every column is an array of strings. Otherwise ``types`` has one
    entry per column: a numpy dtype, or a tuple of names whose tokens are
    returned as int8 indices into the tuple.
    """
    with open(path) as f:
        columns: list[str] | None = None
        has_body = False
        head_lines = 0
        while line := f.readline():
            text = line.strip()
            if text and not text.startswith("#"):
                has_body = True
                break
            head_lines += 1
            fields = text[1:].split()
            if columns is None and fields and (expected_columns is None or fields == expected_columns):
                columns = fields
        if columns is None:
            raise FormatError(f"{path}: missing column header line")
        if types is not None and len(types) != len(columns):
            raise ValueError(f"{len(types)} column types for {len(columns)} columns")
        if types is None:
            dtype = np.dtype(str)
        else:
            # one character wider than the longest name, so a longer token
            # cannot be truncated into a valid one
            dtype = np.dtype([
                (f"f{i}", f"U{max(map(len, t)) + 1}" if isinstance(t, tuple) else t) for i, t in enumerate(types)
            ])
        if not has_body:
            data = np.zeros((0, len(columns)) if types is None else 0, dtype)
        else:
            f.seek(0)
            try:
                data = np.loadtxt(f, dtype=dtype, comments="#", skiprows=head_lines, ndmin=2 if types is None else 1)
            except ValueError as exc:
                raise FormatError(f"{path}: {exc}") from None
    if types is None:
        if data.shape[1] != len(columns):
            raise FormatError(f"{path}: rows have {data.shape[1]} fields, expected {len(columns)}")
        return columns, list(data.T)
    cols = []
    for i, (name, t) in enumerate(zip(columns, types)):
        col = data[f"f{i}"]
        cols.append(_name_codes(path, name, col, t) if isinstance(t, tuple) else np.ascontiguousarray(col))
    return columns, cols


def _name_codes(path, column: str, tokens: np.ndarray, names: tuple) -> np.ndarray:
    """Index of each token in ``names``; FormatError on any other token."""
    codes = np.full(len(tokens), -1, dtype=np.int8)
    for i, name in enumerate(names):
        codes[tokens == name] = i
    bad = np.flatnonzero(codes < 0)
    if bad.size:
        raise FormatError(
            f"{path}: column '{column}' row {bad[0] + 1}: {tokens[bad[0]]!r} is not one of {', '.join(names)}"
        )
    return codes


def write_ply(path, vertices: np.ndarray, extra: dict[str, np.ndarray] | None = None, comment: str | None = None) -> None:
    """ASCII PLY point cloud with optional per-vertex float properties."""
    vertices = np.atleast_2d(np.asarray(vertices, dtype=np.float64))
    extra = extra or {}
    lines = ["ply", "format ascii 1.0"]
    if comment:
        lines.append(f"comment {comment}")
    lines.append(f"element vertex {vertices.shape[0]}")
    for axis in ("x", "y", "z"):
        lines.append(f"property double {axis}")
    for name in extra:
        lines.append(f"property double {name}")
    lines.append("end_header")
    cols = [vertices[:, 0], vertices[:, 1], vertices[:, 2]] + [np.asarray(extra[k], dtype=np.float64) for k in extra]
    if vertices.shape[0]:
        fmt = " ".join(["%.17g"] * len(cols))
        lines.append("\n".join(fmt % row for row in zip(*[c.tolist() for c in cols])))
    Path(path).write_text("\n".join(lines) + "\n")


def read_ply(path):
    """Read an ASCII PLY written by write_ply; returns (vertices, extras dict)."""
    with open(path) as f:
        if f.readline().rstrip("\r\n") != "ply":
            raise FormatError(f"{path}: not a PLY file")
        props: list[str] = []
        count = None
        while line := f.readline():
            line = line.rstrip("\r\n")
            if line.startswith("element vertex"):
                count = int(line.split()[-1])
            elif line.startswith("property"):
                props.append(line.split()[-1])
            elif line == "end_header":
                break
        else:
            count = None  # no end_header line
        if count is None:
            raise FormatError(f"{path}: malformed PLY header")
        data = np.zeros((0, len(props)))
        if count:
            try:
                data = np.loadtxt(f, dtype=np.float64, comments=None, ndmin=2, max_rows=count)
            except ValueError as exc:
                raise FormatError(f"{path}: {exc}") from None
    if data.shape != (count, len(props)):
        raise FormatError(f"{path}: PLY body does not match header")
    vertices = data[:, :3] if count else np.zeros((0, 3))
    extras = {name: data[:, 3 + j] for j, name in enumerate(props[3:])}
    return vertices, extras


def write_pfm(path, image: np.ndarray) -> None:
    """Little-endian PFM; (H, W) writes 'Pf', (H, W, 3) writes 'PF'.

    Rows are stored bottom-up per the PFM convention.
    """
    image = np.asarray(image, dtype=np.float32)
    if image.ndim == 2:
        magic = b"Pf"
        h, w = image.shape
    elif image.ndim == 3 and image.shape[2] == 3:
        magic = b"PF"
        h, w = image.shape[:2]
    else:
        raise ValueError("PFM image must be (H, W) or (H, W, 3)")
    with open(path, "wb") as f:
        f.write(magic + b"\n")
        f.write(f"{w} {h}\n".encode())
        f.write(b"-1.0\n")  # negative scale marks little-endian
        f.write(image[::-1].astype("<f4").tobytes())


def read_pfm(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.readline().strip()
        if magic not in (b"Pf", b"PF"):
            raise FormatError(f"{path}: not a PFM file")
        w, h = (int(v) for v in f.readline().split())
        scale = float(f.readline())
        dtype = "<f4" if scale < 0 else ">f4"
        channels = 3 if magic == b"PF" else 1
        data = np.frombuffer(f.read(), dtype=dtype, count=w * h * channels)
    shape = (h, w, 3) if channels == 3 else (h, w)
    return data.reshape(shape)[::-1].astype(np.float32)


# u64 t, u16 x, u16 y, i8 polarity, 3 pad bytes: 16 bytes, little-endian
_EVENT_RECORD = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("polarity", "i1"), ("pad", "V3")])


def write_event_binary(path, t: np.ndarray, x: np.ndarray, y: np.ndarray, polarity: np.ndarray) -> None:
    """Fixed 16-byte little-endian records: u64 t, u16 x, u16 y, i8 polarity, 3 pad.

    A value that does not fit its field raises ValueError instead of wrapping.
    """
    records = np.zeros(len(t), dtype=_EVENT_RECORD)
    for name, values in (("t", t), ("x", x), ("y", y), ("polarity", polarity)):
        values = np.asarray(values)
        if values.size:
            limits = np.iinfo(_EVENT_RECORD[name])
            if values.dtype.kind not in "biu" or not limits.min <= int(values.min()) <= int(values.max()) <= limits.max:
                raise ValueError(f"{path}: event {name} must be integers in [{limits.min}, {limits.max}]")
        records[name] = values
    Path(path).write_bytes(records.tobytes())


def read_event_binary(path):
    raw = Path(path).read_bytes()
    if len(raw) % _EVENT_RECORD.itemsize:
        raise FormatError(f"{path}: truncated event record")
    records = np.frombuffer(raw, dtype=_EVENT_RECORD)
    if records.size and int(records["t"].max()) > np.iinfo(np.int64).max:
        raise FormatError(f"{path}: event time does not fit int64")
    return (
        records["t"].astype(np.int64),
        records["x"].astype(np.int32),
        records["y"].astype(np.int32),
        records["polarity"].astype(np.int8),
    )
