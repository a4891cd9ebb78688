"""Interchange formats: key-value documents, tables and their binary twins, PLY, PFM, binary events.

Key-value documents format floats with ``repr`` (shortest round-trip form);
table and PLY bodies use ``%.17g``. Both round-trip float64 exactly, so a
given value always serializes to the same bytes and pipeline runs are
byte-reproducible. A key-value section with a fixed set of keys declares
them once, as a dict from each key, in file order, to its kind: ``int``,
``float``, ``str``, or an int n for n floats; the kind ``| None`` marks a key
that may be left out. Its writer iterates the declaration, and its reader
``Section.take`` refuses a key the declaration does not name and a missing
one it does not let be left out. ``read_known`` refuses, per file, a section
it does not list, a repeated one and a missing one.

A table or PLY artifact declares its columns once, as a sequence of entries:
``"name"`` is a column of strings; ``(name, dtype)`` a numeric column, ``%d``
for an integer dtype and ``%.17g`` for a float one; ``(name, names)`` a column
of names from the tuple ``names``, held as int8 indices into it; and
``((name1, ..., namek), kind)`` an (N, k) field of k such columns. A numeric
entry may add its domain, a closed interval ``(lo, hi)`` such as ``(0, inf)`` or
the float range (finite); NaN lies in none. An integer entry's domain is cut to
its dtype's range, and a names entry's is its codes. One check, a min and a max
per column, applies it on write ("row N would have ...", before any file is
opened) and on read, after the text path and the twin path alike ("row N has").
``write_table``/``write_ply`` take the declaration and one array per entry;
``read_table``/``read_ply`` return one array per entry, parsed in one typed
``np.loadtxt`` pass: integers never go through float.

The writers share one path. Before the file is opened it checks every
field and builds its record, the array the reader returns for that entry,
refusing with ValueError a value its reader would not give back: an
integer column must hold integers within its dtype, a float column
numbers, a names column codes in ``[0, len(names))``, a bare string must
be non-empty UTF-8 free of whitespace, ``#`` and NUL, all columns must
have one length, and a header or comment must be one line of UTF-8. The
text is then
written from those records ``_BLOCK_ROWS`` rows at a time, so at most one
block of text exists at once: each distinct value of a block's column is
formatted once (floats keyed on their bit pattern, so ``-0.0`` stays
``-0``), and each block is encoded once as UTF-8, written and hashed.
Every reader decodes text as UTF-8 and raises ``FormatError`` naming the
file on a byte sequence that does not decode, a missing header or
property, a wrong field count, an unparsable or unknown token, or a body
that does not match its header.

Every table and PLY file ``F`` gets a binary twin ``F.cols``, written
after the text from the same records, so the two agree by construction.
The twin holds a header line with the declaration (each entry's names,
kind and parsed dtype), each record's dtype, the row count and the sha256
of the text bytes as they were written; then one ``.npy`` record per
declaration entry, holding exactly the array the text parses to (same
dtype, shape and bits; every NaN is the positive quiet NaN that ``nan``
parses to); then the sha256 of every twin byte before it, so a truncated
or corrupt twin is never used. The text is the contract. ``read_table``
and ``read_ply(path, columns)`` return the twin's arrays only when the
twin reads cleanly, was written under the caller's declaration and
records the sha256 of the text file's current bytes, and otherwise parse
the text. A hand-edited, truncated or hand-written text file is therefore
always what a caller sees, and every loader runs its checks on what
either path returns.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import typing
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

    def get_floats(self, key: str, n: int | None = None) -> np.ndarray:
        arr = self._parse(key, lambda text: np.array([float(p) for p in text.split()]))
        if n is not None and arr.size != n:
            raise FormatError(f"section [{self.name}] key '{key}': expected {n} numbers, got {arr.size}")
        return arr

    def take(self, keys: dict) -> dict:
        """The values of the keys that the declaration ``keys`` names, each
        parsed as its kind; a key left out is absent from the result. A key
        ``keys`` does not name, or a missing one it does not mark ``| None``,
        is a FormatError naming this section and the key."""
        for key in self.pairs:
            if key not in keys:
                raise FormatError(f"section [{self.name}] has unknown key '{key}', expected one of {', '.join(keys)}")
        values = {}
        for key, kind in keys.items():
            kind, *optional = typing.get_args(kind) or (kind,)
            if key in self.pairs or not optional:
                values[key] = self.get_floats(key, kind) if isinstance(kind, int) else self._parse(key, kind)
        return values


@contextlib.contextmanager
def open_text(path):
    """``path`` opened for reading as UTF-8 text; a byte sequence that does
    not decode, wherever it is read, is a FormatError naming the file."""
    try:
        with open(path, encoding="utf-8") as f:
            yield f
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from None


def read_sections(path) -> list[Section]:
    """Parse a sectioned key-value document.

    Lines are ``[section]`` headers or ``key = value`` pairs; ``#`` starts a
    comment; section names may repeat.
    """
    sections: list[Section] = []
    current: Section | None = None
    with open_text(path) as f:
        text = f.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


def read_known(path, spec: str) -> dict[str, list[Section]]:
    """``path``'s sections as lists by name, each in file order. ``spec``
    lists every section name the file may hold as ``name`` (exactly once),
    ``name?`` (at most once) or ``name+`` (at least once); a section it does
    not list, a repeat or a missing section is a FormatError naming the file."""
    words = spec.split()
    found: dict[str, list[Section]] = {word.rstrip("?+"): [] for word in words}
    for sec in read_sections(path):
        if sec.name not in found:
            raise FormatError(f"{path}: unknown section [{sec.name}], expected one of {', '.join(found)}")
        if found[sec.name] and f"{sec.name}+" not in words:
            raise FormatError(f"{path}: repeated section [{sec.name}]")
        found[sec.name].append(sec)
    for name, secs in found.items():
        if not secs and f"{name}?" not in words:
            raise FormatError(f"{path}: missing section [{name}]")
    return found


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
    Path(path).write_text("\n".join(lines), encoding="utf-8")


def _entries(columns):
    """Each declaration entry as (column names, kind, numpy type it parses as, domain or None)."""
    for entry in columns:
        names, kind, *domain = (entry, str) if isinstance(entry, str) else entry
        domain = domain[0] if domain else None
        if isinstance(kind, tuple):
            # one character wider than the longest name, so a longer token
            # cannot be truncated into a valid one
            parsed, domain = f"U{max(map(len, kind)) + 1}", (0, len(kind) - 1)
        else:
            parsed = object if np.dtype(kind).kind == "U" else kind  # an unsized 'U' field reads every token as ''
            if np.dtype(kind).kind in "iu":
                lo, hi = domain or (-math.inf, math.inf)
                domain = (max(lo, np.iinfo(kind).min), min(hi, np.iinfo(kind).max))
        yield ((names,) if isinstance(names, str) else tuple(names)), kind, parsed, domain


def _column_names(columns) -> list[str]:
    return [name for names, *_ in _entries(columns) for name in names]


# rows per write of a text body: the body's text is only ever built one block at a time
_BLOCK_ROWS = 1 << 13


def _columns_of(names, field: np.ndarray):
    """The columns of one declared field: itself for one name, its rows' entries for k names."""
    return field.T if len(names) > 1 else [field]


def _utf8(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8, that is, holds no lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _refuse_outside(path, names, domain, field: np.ndarray, writing: bool = False) -> None:
    """ValueError when ``writing``, else FormatError, naming the first row of the entry
    ``names``'s ``field`` with a value outside ``domain`` (a closed interval, or None for
    all); NaN fails every comparison. A min and a max per column when every value is in."""
    if domain is None or not len(field):
        return
    lo, hi = domain
    for name, col in zip(names, _columns_of(names, field)):
        if not (lo <= col.min().item() and col.max().item() <= hi):
            row = int(np.flatnonzero(~((col >= lo) & (col <= hi)))[0])
            says = f"{'would have' if writing else 'has'} {name} {col[row].item()}; column '{name}' takes [{lo}, {hi}]"
            raise (ValueError if writing else FormatError)(f"{path}: row {row + 1} {says}")


def _record(path, names, kind, parsed, domain, field: np.ndarray) -> np.ndarray:
    """The array the reader returns for one declaration entry, from the values written.

    ValueError, naming the column, for a value the reader would not give
    back. No copy when ``field`` already has the parsed type and C order and
    holds no NaN.
    """
    texts = []  # a bare string column's values, as the text writes them
    for name, col in zip(names, _columns_of(names, field)):
        where = f"{path}: column '{name}'"
        if isinstance(kind, tuple):
            if col.dtype.kind not in "biu":
                raise ValueError(f"{where} must hold integer codes")
        elif np.dtype(kind).kind == "U":
            texts.append(list(map(str, col.tolist())))
            # the reader splits a row at whitespace, cuts it at '#' and drops a trailing NUL
            bad = next((text for text in texts[-1] if text.split() != [text] or "#" in text or "\0" in text or not _utf8(text)), None)
            if bad is not None:
                raise ValueError(f"{where} holds {bad!r}: a bare string must be non-empty UTF-8, without whitespace, '#' or NUL")
        elif col.dtype.kind not in ("biuf" if np.dtype(kind).kind == "f" else "biu"):
            raise ValueError(f"{where} is declared {np.dtype(kind)} but got {col.dtype} values")
    _refuse_outside(path, names, domain, field, writing=True)
    if isinstance(kind, tuple):
        # a bool field's bytes already are its codes
        return np.ascontiguousarray(field.view(np.int8) if field.dtype == bool else field, dtype=np.int8)
    if texts:
        cols = [np.array(col, dtype=str) for col in texts]
        return np.stack(cols, axis=1) if len(names) > 1 else cols[0]
    with np.errstate(over="ignore", invalid="ignore"):  # a float64 beyond a narrower float type parses as inf, as it casts
        record = np.ascontiguousarray(field, dtype=parsed)
    # every NaN prints as 'nan', which parses as the positive quiet NaN
    if record.dtype.kind == "f" and record.size and np.isnan(record.min()):
        record = np.where(np.isnan(record), np.nan, record)
    return record


def _texts(kind, col: np.ndarray) -> list:
    """The text of each value of one record column, each distinct value formatted once.

    Floats are keyed on their bit pattern, because ``-0.0 == 0.0`` but they
    print ``-0`` and ``0``; ``%.17g`` round-trips float64 exactly.
    """
    if isinstance(kind, tuple):
        return np.array(kind, dtype=object)[col].tolist()
    if col.dtype.kind == "U":
        return col.tolist()
    floats = col.dtype.kind == "f"
    key = np.ascontiguousarray(col, dtype=np.float64).view(np.uint64) if floats else col
    distinct, index = np.unique(key, return_inverse=True)
    values = distinct.view(np.float64) if floats else distinct
    spec = "%.17g" if floats else "%d"
    return np.array([spec % v for v in values.tolist()], dtype=object)[index].tolist()


def _write_body(path, head, columns, records: list) -> str:
    """Write the lines ``head(row count)``, then one line per row of ``records``,
    ``_BLOCK_ROWS`` rows at a time; returns the sha256 of the bytes written."""
    import hashlib  # here, not at the top: a run that writes no file should not pay its import

    n = len(records[0]) if records else 0
    digest = hashlib.sha256()
    with open(path, "wb") as f:

        def put(lines) -> None:
            data = ("\n".join(lines) + "\n").encode("utf-8")
            f.write(data)
            digest.update(data)

        put(head(n))
        for start in range(0, n, _BLOCK_ROWS):
            block = (record[start : start + _BLOCK_ROWS] for record in records)
            # a generator, so one block's texts are freed before the next block's are made
            texts = (_texts(kind, col) for (names, kind, *_), rows in zip(_entries(columns), block) for col in _columns_of(names, rows))
            put(map(" ".join, zip(*texts)))
    return digest.hexdigest()


def _write_text(path, head, columns, arrays) -> None:
    """Check every field and build its record, then write the text and the twin from the records.

    The head lines are checked for a line break or a character UTF-8 cannot
    encode, and every field against its declaration entry's shape and the
    first field's length, before any file is opened.
    """
    if any(c in line for line in head(0) for c in "\r\n") or not _utf8("".join(head(0))):
        raise ValueError(f"{path}: a header or comment must be one line of UTF-8 text")
    records, first = [], None  # first: (name, row count) of the first field
    for (names, kind, parsed, domain), field in zip(_entries(columns), arrays, strict=True):
        field = np.asarray(field)
        if field.shape[1:] != ((len(names),) if len(names) > 1 else ()):
            raise ValueError(f"{path}: columns {' '.join(names)} got an array of shape {field.shape}")
        first = first or (names[0], len(field))
        if len(field) != first[1]:
            raise ValueError(f"{path}: column '{names[0]}' has {len(field)} rows, column '{first[0]}' {first[1]}")
        records.append(_record(path, names, kind, parsed, domain, field))
    _write_twin(path, columns, records, _write_body(path, head, columns, records))


# --- binary twins ----------------------------------------------------------------

_TWIN_MAGIC = b"eventscan columns 1\n"


def twin_path(path) -> Path:
    """Where the twin of the table or PLY file ``path`` lives."""
    return Path(f"{os.fspath(path)}.cols")


def _signature(columns) -> list:
    """The declaration as JSON data: each entry's names, kind and parsed dtype."""
    return [
        [list(names), list(kind) if isinstance(kind, tuple) else np.dtype(kind).str, np.dtype(parsed).str]
        for names, kind, parsed, _ in _entries(columns)
    ]


def _npy_header(dtype: np.dtype, shape: tuple) -> bytes:
    """The .npy version 1.0 header of a C-ordered array."""
    out = io.BytesIO()
    header = {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": shape}
    np.lib.format.write_array_header_1_0(out, header)
    return out.getvalue()


def _write_twin(path, columns, records: list, text_sha256: str) -> None:
    """Write ``path``'s twin: the header line, one .npy record per entry, then
    the sha256 of every byte before it."""
    import hashlib
    import json

    head = {
        "columns": _signature(columns),
        "dtypes": [record.dtype.str for record in records],
        "rows": len(records[0]) if records else 0,
        "text_sha256": text_sha256,
    }
    digest = hashlib.sha256()
    with open(twin_path(path), "wb") as f:

        def put(data) -> None:
            f.write(data)
            digest.update(data)

        put(_TWIN_MAGIC + json.dumps(head, sort_keys=True).encode() + b"\n")
        for record in records:
            put(_npy_header(record.dtype, record.shape))
            put(record)  # C-ordered, so its buffer is the .npy body
        f.write(digest.hexdigest().encode())


def _read_twin(path, columns):
    """The arrays of ``path``'s twin, or None unless the twin reads cleanly and
    untouched, was written under ``columns`` and records the sha256 of
    ``path``'s current bytes; FormatError for a value outside its entry's domain."""
    import hashlib
    import json

    digest = hashlib.sha256()
    try:
        with open(twin_path(path), "rb") as f:

            def take(size: int) -> bytes:
                data = f.read(size)
                if len(data) != size:
                    raise ValueError("truncated twin")
                digest.update(data)
                return data

            first = f.readline(len(_TWIN_MAGIC))
            line = f.readline(1 << 20)
            digest.update(first + line)
            head = json.loads(line)
            if first != _TWIN_MAGIC or head["columns"] != _signature(columns):
                return None
            text_digest = hashlib.sha256()
            with open(path, "rb") as text:
                while chunk := text.read(1 << 20):
                    text_digest.update(chunk)
            if text_digest.hexdigest() != head["text_sha256"]:
                return None
            out = []
            for (names, kind, parsed, _), descr in zip(_entries(columns), head["dtypes"], strict=True):
                dtype, want = np.dtype(descr), np.dtype(np.int8 if isinstance(kind, tuple) else parsed)
                # a bare string entry parses as object and reads back as str of any width
                if not (dtype.kind == "U" and dtype.itemsize > 0 if want.kind == "O" else dtype == want):
                    return None
                shape = (head["rows"],) + ((len(names),) if len(names) > 1 else ())
                header = _npy_header(dtype, shape)
                count = math.prod(shape)
                if take(len(header)) != header or os.fstat(f.fileno()).st_size - f.tell() < count * dtype.itemsize:
                    return None
                record = np.fromfile(f, dtype=dtype, count=count).reshape(shape)
                digest.update(record)
                out.append(record)
            if f.read() != digest.hexdigest().encode():
                return None
    except (OSError, ValueError, TypeError, KeyError):
        return None
    for (names, *_, domain), record in zip(_entries(columns), out):
        _refuse_outside(path, names, domain, record)
    return out


def write_table(path, columns, arrays, header: str | None = None) -> None:
    """Whitespace-separated table with a ``# col1 col2 ...`` header line.

    ``arrays`` holds one array per entry of the ``columns`` declaration, in
    any iterable; the record built from each is kept until the twin is
    written, and is the array itself when it already has the parsed type.
    """
    head = ([f"# {header}"] if header else []) + ["# " + " ".join(_column_names(columns))]
    _write_text(path, lambda n: head, columns, arrays)


def _reader_fields(columns) -> list:
    """(column name, numpy type) for the one typed parsing pass."""
    return [(name, parsed) for names, _, parsed, _ in _entries(columns) for name in names]


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
    for names, kind, _, domain in _entries(columns):
        cols = [data[name] for name in names]
        if isinstance(kind, tuple):
            cols = [_name_codes(path, name, col, kind) for name, col in zip(names, cols)]
        elif np.dtype(kind).kind == "U":
            cols = [col.astype(str) for col in cols]
        out.append(np.stack(cols, axis=1) if len(names) > 1 else np.ascontiguousarray(cols[0]))
        _refuse_outside(path, names, domain, out[-1])
    return out


def read_table(path, columns):
    """Read back a write_table file; returns (column names, one array per entry).

    The arrays are the twin's when it matches (see ``_read_twin``). Otherwise
    the header is the first ``#`` line before the body whose fields are the
    declaration's column names, and the body is parsed in one typed pass.
    """
    expected = _column_names(columns)
    twin = _read_twin(path, columns)
    if twin is not None:
        return expected, twin
    with open_text(path) as f:
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
    With one, the arrays are the twin's when it matches (see ``_read_twin``).
    """
    twin = _read_twin(path, columns) if columns is not None else None
    if twin is not None:
        return twin
    with open_text(path) as f:
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
        values, limits = np.asarray(values), np.iinfo(_EVENT_RECORD[name])
        if values.size and values.dtype.kind not in "biu":
            raise ValueError(f"{path}: event {name} must be integers")
        _refuse_outside(path, (name,), (limits.min, limits.max), values, writing=True)
        records[name] = values
    Path(path).write_bytes(records.tobytes())


def read_event_binary(path):
    raw = Path(path).read_bytes()
    if len(raw) % _EVENT_RECORD.itemsize:
        raise FormatError(f"{path}: truncated event record")
    records = np.frombuffer(raw, dtype=_EVENT_RECORD)
    _refuse_outside(path, ("t",), (0, np.iinfo(np.int64).max), records["t"])  # t must fit int64
    return (
        records["t"].astype(np.int64),
        records["x"].astype(np.int32),
        records["y"].astype(np.int32),
        records["polarity"].astype(np.int8),
    )
