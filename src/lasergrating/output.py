"""Deterministic CSV/JSON writers shared by the CLI.

All files are byte-reproducible: fixed float formatting, sorted JSON keys,
no timestamps.

Tables are written from columns.  `blocks` yields one block per curve or
sub-table, with one value per column: a scalar (a label, repeated on every
row) or a 1-D array or list; the arrays of a block give its rows (one row if
it has none).  A block is written in pieces: as many whole rows as fit in
io.DEFAULT_BUFFER_SIZE characters, counting the widest text each cell can
take, and at least one.  Each piece is joined from the texts of its rows and
written at once, so no writer holds the rows or the document, and no piece
outgrows the file buffer unless one row does.  A number array that one
write meets again (the same abscissa in every curve) has its cell texts
formatted once and reused by each later block; a `Gathered` column reuses
the texts of its values while the blocks bring the same ones; an array of
labels has its texts made per block.  The bytes are the same either way;
the contract is in docs/formats.md.
"""

from __future__ import annotations

import io
import json
import zlib
from dataclasses import dataclass

import numpy as np

VERSION = "0.1.0"
_NUMBER_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d"}  # by dtype kind
_NUMBER_WIDTH = 24  # widest '%.17g' text (-2.2250738585072014e-308); 64-bit '%d' has 20
_TEXT_STEP = 256  # values formatted by one '%': a 7 KB string at most
# (first, open, sep, close, between) of the rows: see _chunks
_CSV_FRAME = ("", "", ",", "\n", "")
_JSON_FRAME = ("\n", "    [\n      ", ",\n      ", "\n    ]", ",\n")
_JSON_EMPTY_FRAME = ("\n", "    [", "", "]", ",\n")


@dataclass(frozen=True)
class Gathered:
    """A column whose cell k is values[index[k]] (1-D number values, 1-D int index)."""
    values: np.ndarray
    index: np.ndarray


def _cell(value) -> str:
    """17 significant digits for floats (round-trips doubles), else str."""
    if isinstance(value, float):
        return format(float(value), ".17g")
    return str(value)


def _number_text(arr: np.ndarray, quote) -> str:
    """The quoted '%d' or '%.17g' text of each element of `arr`, each ending in a newline."""
    return (quote(_NUMBER_FORMATS[arr.dtype.kind]) + "\n") * arr.size % tuple(arr.tolist())


def _texts(data: np.ndarray, quote) -> np.ndarray:
    """The quoted '%d' or '%.17g' texts of 1-D `data` as an object array."""
    texts = np.empty(data.size, object)
    for i in range(0, data.size, _TEXT_STEP):
        texts[i:i + _TEXT_STEP] = _number_text(data[i:i + _TEXT_STEP], quote).split("\n")[:-1]
    return texts


def _gathered_cells(latest: list, column: Gathered, index: np.ndarray, quote):
    """The texts of the column's values (`_texts`) and the longest of them.  `latest`
    holds (values, texts, width) of the values formatted last, a copy whose texts
    serve while the values that `index` reads keep their dtype and bytes.  (Bytes,
    not numpy's `==`: its first use in a process costs about 0.1 MB of RSS.)"""
    data = np.ascontiguousarray(column.values)
    if data.ndim != 1 or data.dtype.kind not in _NUMBER_FORMATS:
        raise ValueError(f"gathered values must be 1-D numbers, got {data.dtype} {data.shape}")
    kept = latest[0]
    if (kept is None or kept.dtype != data.dtype or kept.shape != data.shape
            or data[index].tobytes() != kept[index].tobytes()):
        latest[:] = None, None, 0  # the old texts go first
        texts = _texts(data, quote)
        latest[:] = data.copy(), texts, max(map(len, texts), default=0)
    return latest[1], latest[2]


def _repeated_texts(memo: dict, arr: np.ndarray, quote):
    """The texts of number array `arr` (`_texts`) and the longest of them, if
    this write met the same content before, else None.

    The first meeting stores only a digest; the second formats the texts and
    keeps them with the bytes, which every later hit must match byte for byte
    (so -0.0 and 0.0, or two NaN payloads, never share texts, and a digest
    collision only costs the reuse).
    """
    data = np.ascontiguousarray(arr)
    key = data.dtype.str, data.shape, zlib.crc32(data)
    entry = memo.get(key, False)
    if entry is False:
        memo[key] = None
        return None
    content = data.tobytes()
    if entry is None:
        texts = _texts(data, quote)
        memo[key] = content, texts, max(map(len, texts), default=0)
        return memo[key][1:]
    return entry[1:] if entry[0] == content else None


def _chunks(columns, blocks, quote, frame):
    """The text of each piece of each block: its next rows, as many as fit in
    io.DEFAULT_BUFFER_SIZE characters, and at least one.

    A row is open + the cells joined by sep + close (`frame`); the write's
    first row follows first, every other row between, so the pieces are
    written as they come.  A piece is one join of the row texts around the
    cells of its array columns: scalars are part of those texts (`_cell`);
    a number array's cells are formatted per piece ('%d' or '%.17g'), or
    reused where this write met the array before (`_repeated_texts`); other
    arrays and gathered columns give their `_cell` texts (`_gathered_cells`).
    A row's width adds up its texts and the widest cell each array column
    can give.  `quote` is json.dumps for JSON cells, str for CSV.
    """
    lead, open_, sep, close, between = frame
    number_width = len(quote("")) + _NUMBER_WIDTH
    memo, latest = {}, [None] * 3
    for block in blocks:
        if len(block) != len(columns):
            raise ValueError(f"block has {len(block)} values for {len(columns)} columns")
        texts = [open_]  # texts[i] comes before array column i, texts[-1] ends the row
        fills, sizes = [], set()
        for i, value in enumerate(block):
            texts[-1] += sep if i else ""
            gathered = isinstance(value, Gathered)
            if not gathered and np.ndim(value) == 0:
                texts[-1] += quote(_cell(value))
                continue
            arr = np.asarray(value.index if gathered else value)
            if arr.ndim != 1:
                raise ValueError(f"column arrays must be 1-D, got shape {arr.shape}")
            sizes.add(arr.size)
            # (texts or numbers, index into them or None, widest cell); no name keeps
            # gathered texts past their blocks, so replaced ones are freed at once
            if gathered:
                fills.append((*_gathered_cells(latest, value, arr, quote), arr))
            elif arr.dtype.kind not in _NUMBER_FORMATS:
                cells = np.array([quote(_cell(v)) for v in arr.tolist()], object)
                fills.append((cells, max(map(len, cells), default=0), None))
            else:
                fills.append((*(_repeated_texts(memo, arr, quote) or (arr, number_width)), None))
            texts.append("")
        if len(sizes) > 1:
            raise ValueError(f"column arrays of one block differ in length: {sorted(sizes)}")
        n_rows = sizes.pop() if sizes else 1
        texts[-1] += close
        if not fills:  # scalars only: one row
            yield lead + texts[0]
            lead = between
            continue
        width = (max(len(lead), len(between)) + sum(map(len, texts))
                 + sum(widest for _, widest, _ in fills))
        step = max(1, io.DEFAULT_BUFFER_SIZE // width)
        n = 2 * len(fills)  # slots per row: cell, text, cell, ..., cell, joint to the next row
        row = [None] * n
        row[1::2] = texts[1:-1] + [texts[-1] + between + texts[0]]
        parts = []
        for start in range(0, n_rows, step):
            stop = min(start + step, n_rows)
            if len(parts) != 1 + n * (stop - start):
                parts = [None] + row * (stop - start)
                parts[-1] = texts[-1]
            parts[0] = lead + texts[0]
            cells = [source[index[start:stop]].tolist() if index is not None
                     else source[start:stop].tolist() if source.dtype == object
                     else _number_text(source[start:stop], quote).split("\n")[:-1]
                     for source, _, index in fills]
            for i, column in enumerate(cells):
                parts[1 + 2 * i::n] = column
            lead = between
            yield "".join(parts)


def write_csv(path, header_meta: dict, columns: list[str], blocks) -> None:
    """CSV with '# key=value' metadata lines before the column header."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# version={VERSION}\n")
        for key in sorted(header_meta):
            fh.write(f"# {key}={header_meta[key]}\n")
        fh.write(",".join(columns) + "\n")
        for text in _chunks(columns, blocks, str, _CSV_FRAME):
            fh.write(text)


def write_manifest(path, command: str, parameters: dict, files: list[str]) -> None:
    payload = {
        "version": VERSION,
        "command": command,
        "parameters": parameters,
        "files": sorted(files),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_json_table(path, header_meta: dict, columns: list[str], blocks) -> None:
    """The bytes of json.dump({"version", "meta", "columns", "rows"},
    indent=2, sort_keys=True) plus a newline; every row cell is a string
    holding its CSV cell text."""
    skeleton = json.dumps({"version": VERSION,
                           "meta": {k: str(v) for k, v in header_meta.items()},
                           "columns": columns, "rows": []},
                          indent=2, sort_keys=True)
    head, _, tail = skeleton.partition('\n  "rows": []')
    with open(path, "w") as fh:
        fh.write(head + '\n  "rows": [')
        close = "]"
        for text in _chunks(columns, blocks, json.dumps,
                            _JSON_FRAME if columns else _JSON_EMPTY_FRAME):
            fh.write(text)
            close = "\n  ]"
        fh.write(close + tail + "\n")
