"""Interchange formats: key-value documents, tables, PLY, PFM, binary events.

Key-value documents format floats with ``repr`` (shortest round-trip form);
table and PLY bodies use ``%.17g``. Both round-trip float64 exactly, so a
given value always serializes to the same bytes and pipeline runs are
byte-reproducible.

A table or PLY artifact declares its columns once, as a sequence of entries:
``"name"`` is a column of strings; ``(name, dtype)`` a numeric column, ``%d``
for an integer dtype and ``%.17g`` for a float one; ``(name, names)`` a column
of names from the tuple ``names``, held as int8 indices into it; and
``((name1, ..., namek), kind)`` an (N, k) field of k such columns.
``write_table``/``write_ply`` take the declaration and one array per entry;
``read_table``/``read_ply`` return one array per entry, parsed in one typed
``np.loadtxt`` pass: integers never go through float.

The writers share one path. Before the file is opened it checks every
column (an integer column must hold integers, a names column codes in
``[0, len(names))``, and all columns one length) and formats each distinct
value of a column once: numbers keyed by ``np.unique`` (floats on their bit
pattern, so ``-0.0`` stays ``-0``), names from their tuple, bare strings
value by value. The body is then gathered from those texts by index and
written a fixed block of rows at a time, so no whole-column list or whole
body string is ever built. Every reader raises
``FormatError`` naming the file on a missing header or property, a wrong field
count, an unparsable or unknown token, or a body that does not match its
header.
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

    def _parse(self, key: str, kind):
        try:
            return kind(self.get_str(key))
        except ValueError as exc:
            raise FormatError(f"section [{self.name}] key '{key}': {exc}") from None

    def get_int(self, key: str) -> int:
        return self._parse(key, int)

    def get_float(self, key: str) -> float:
        return self._parse(key, float)

    def get_floats(self, key: str, n: int | None = None) -> np.ndarray:
        arr = self._parse(key, lambda text: np.array([float(p) for p in text.split()]))
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


def _entries(columns):
    """Each declaration entry as (column names, kind, numpy type it parses as)."""
    for entry in columns:
        names, kind = (entry, str) if isinstance(entry, str) else entry
        if isinstance(kind, tuple):
            # one character wider than the longest name, so a longer token
            # cannot be truncated into a valid one
            parsed = f"U{max(map(len, kind)) + 1}"
        else:
            parsed = object if np.dtype(kind).kind == "U" else kind  # an unsized 'U' field reads every token as ''
        yield ((names,) if isinstance(names, str) else tuple(names)), kind, parsed


def _column_names(columns) -> list[str]:
    return [name for names, _, _ in _entries(columns) for name in names]


# rows per write of a text body: the body's text is only ever built one block at a time
_BLOCK_ROWS = 1 << 13


def _narrow(index: np.ndarray, count: int) -> np.ndarray:
    """``index`` into ``count`` values, in the smallest unsigned type that holds it."""
    return index.astype(np.min_scalar_type(max(count - 1, 0)))


def _distinct_texts(path, name: str, kind, col: np.ndarray):
    """(text of each distinct value, index of each row's value into it) for one column.

    A bare string column is formatted value by value and its index is None:
    row i reads text i. A float column is keyed on its bit pattern, because
    ``-0.0 == 0.0`` but they print ``-0`` and ``0``.
    """
    where = f"{path}: column '{name}'"
    if isinstance(kind, tuple):
        if col.dtype.kind not in "biu" or (col.size and not 0 <= col.min() <= col.max() < len(kind)):
            raise ValueError(f"{where} must hold integer codes in [0, {len(kind)})")
        return np.array(kind, dtype=object), _narrow(col, len(kind))
    if np.dtype(kind).kind == "U":
        return np.array(["%s" % v for v in col.tolist()], dtype=object), None
    floats = np.dtype(kind).kind == "f"
    if col.dtype.kind not in ("biuf" if floats else "biu"):
        raise ValueError(f"{where} is declared {np.dtype(kind)} but got {col.dtype} values")
    key = np.ascontiguousarray(col, dtype=np.float64).view(np.uint64) if floats else col
    distinct, index = np.unique(key, return_inverse=True)
    values = distinct.view(np.float64) if floats else distinct
    spec = "%.17g" if floats else "%d"  # %.17g round-trips float64 exactly
    return np.array([spec % v for v in values.tolist()], dtype=object), _narrow(index, len(distinct))


def _write_text(path, head, columns, arrays) -> None:
    """The lines ``head(row count)``, then one line per row.

    Every column is checked and each of its distinct values formatted before
    the file is opened; the body is then gathered and written ``_BLOCK_ROWS``
    rows at a time.
    """
    texts, first = [], None  # first: (name, row count) of the first column
    for (names, kind, _), field in zip(_entries(columns), arrays, strict=True):
        field = np.asarray(field)
        if field.shape[1:] != ((len(names),) if len(names) > 1 else ()):
            raise ValueError(f"{path}: columns {' '.join(names)} got an array of shape {field.shape}")
        first = first or (names[0], len(field))
        if len(field) != first[1]:
            raise ValueError(f"{path}: column '{names[0]}' has {len(field)} rows, column '{first[0]}' {first[1]}")
        for name, col in zip(names, field.T if len(names) > 1 else [field]):
            texts.append(_distinct_texts(path, name, kind, col))
    n = first[1] if first else 0
    with open(path, "w") as f:
        f.write("\n".join(head(n)) + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            cols = [(text[block] if index is None else text[index[block]]).tolist() for text, index in texts]
            f.write("\n".join(map(" ".join, zip(*cols))) + "\n")


def write_table(path, columns, arrays, header: str | None = None) -> None:
    """Whitespace-separated table with a ``# col1 col2 ...`` header line.

    ``arrays`` holds one array per entry of the ``columns`` declaration, in
    any iterable. Each is converted before the next is taken, so a generator
    can make them one at a time.
    """
    head = ([f"# {header}"] if header else []) + ["# " + " ".join(_column_names(columns))]
    _write_text(path, lambda n: head, columns, arrays)


def _reader_fields(columns) -> list:
    """(column name, numpy type) for the one typed parsing pass."""
    return [(name, parsed) for names, _, parsed in _entries(columns) for name in names]


def _read_body(path, f, fields: list, rows: int | None, **kwargs) -> np.ndarray:
    """The rest of ``f``, or its next ``rows`` lines, as a structured array."""
    dtype = np.dtype(fields)
    if rows == 0:
        return np.zeros(0, dtype)
    try:
        return np.loadtxt(f, dtype=dtype, ndmin=1, max_rows=rows, **kwargs)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _declared(path, columns, data: np.ndarray) -> list:
    """One array per declaration entry: (N,) for a name, (N, k) for k names."""
    out = []
    for names, kind, _ in _entries(columns):
        cols = [data[name] for name in names]
        if isinstance(kind, tuple):
            cols = [_name_codes(path, name, col, kind) for name, col in zip(names, cols)]
        elif np.dtype(kind).kind == "U":
            cols = [col.astype(str) for col in cols]
        out.append(np.stack(cols, axis=1) if len(names) > 1 else np.ascontiguousarray(cols[0]))
    return out


def read_table(path, columns):
    """Read back a write_table file; returns (column names, one array per entry).

    The header is the first ``#`` line before the body whose fields are the
    declaration's column names. The body is parsed in one typed pass.
    """
    expected = _column_names(columns)
    with open(path) as f:
        found = False
        head_lines = 0
        while line := f.readline():
            text = line.strip()
            if text and not text.startswith("#"):
                break  # the first body line
            head_lines += 1
            found = found or text[1:].split() == expected
        if not found:
            raise FormatError(f"{path}: missing column header line")
        f.seek(0)
        data = _read_body(path, f, _reader_fields(columns), None if line else 0, comments="#", skiprows=head_lines)
    return expected, _declared(path, columns, data)


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


XYZ = (("x", "y", "z"), np.float64)  # a PLY vertex position


def write_ply(path, columns, arrays, comment: str | None = None) -> None:
    """ASCII PLY point cloud; each declared column is a double property."""
    props = [f"property double {name}" for name in _column_names(columns)]
    lines = ["ply", "format ascii 1.0"] + ([f"comment {comment}"] if comment else [])
    _write_text(path, lambda n: lines + [f"element vertex {n}"] + props + ["end_header"], columns, arrays)


def read_ply(path, columns=None):
    """Read an ASCII PLY written by write_ply; returns one array per entry.

    Properties are found by name, and ones the declaration lacks are read as
    float64 and dropped; a declared property the file lacks is a FormatError.
    Without a declaration, returns (vertices, dict of the other properties).
    """
    with open(path) as f:
        if f.readline().rstrip("\r\n") != "ply":
            raise FormatError(f"{path}: not a PLY file")
        props: list[str] = []
        count = None
        while line := f.readline():
            line = line.rstrip("\r\n")
            if line.startswith("element vertex"):
                try:
                    count = int(line.split()[-1])
                except ValueError:
                    raise FormatError(f"{path}: malformed PLY header line {line!r}") from None
            elif line.startswith("property"):
                props.append(line.split()[-1])
            elif line == "end_header":
                break
        else:
            count = None  # no end_header line
        if count is None:
            raise FormatError(f"{path}: malformed PLY header")
        declared = columns if columns is not None else [XYZ] + [(name, np.float64) for name in props[3:]]
        kinds = dict(_reader_fields(declared))
        missing = [name for name in kinds if name not in props]
        if missing:
            raise FormatError(f"{path}: no property '{missing[0]}'")
        data = _read_body(path, f, [(name, kinds.get(name, np.float64)) for name in props], count, comments=None)
    if len(data) != count:
        raise FormatError(f"{path}: PLY body does not match header")
    arrays = _declared(path, declared, data)
    return arrays if columns is not None else (arrays[0], dict(zip(props[3:], arrays[1:])))


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
        channels = 3 if magic == b"PF" else 1
        try:
            w, h = (int(v) for v in f.readline().split())
            scale = float(f.readline())
            data = np.frombuffer(f.read(), dtype="<f4" if scale < 0 else ">f4", count=w * h * channels)
        except ValueError as exc:
            raise FormatError(f"{path}: malformed PFM file: {exc}") from None
    shape = (h, w, 3) if channels == 3 else (h, w)
    return data.reshape(shape)[::-1].astype(np.float32)


# No stage writes or reads binary events. perfbench/tracing.py wraps these
# two functions and EventStream.save_binary/load_binary by name, so they stay
# until the benchmark harness stops naming them.
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
