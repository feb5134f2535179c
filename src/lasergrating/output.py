"""Deterministic CSV/JSON writers shared by the CLI.

All files are byte-reproducible: fixed float formatting, sorted JSON keys,
no timestamps.

Tables are written from columns.  `blocks` yields one block per curve or
sub-table, with one value per column: a scalar (a label, repeated on every
row) or a 1-D array or list; the arrays of a block give its rows (one row if
it has none).  Each chunk of CHUNK_ROWS rows is formatted from one `%`
template and written at once, so no writer holds the rows or the document.
A number array that one write meets again (the same abscissa in every
curve) has its cell texts formatted once and baked into the template of
each later block, so `%` fills only the columns that change; a `Gathered`
column reuses the texts of its values while the blocks bring the same ones.
The bytes are the same either way; the contract is in docs/formats.md.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from itertools import chain

import numpy as np

VERSION = "0.1.0"
CHUNK_ROWS = 4096
_NUMBER_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d"}  # by dtype kind
# (open, sep, close, between) of a row: see _chunks
_CSV_FRAME = ("", ",", "\n", "")
_JSON_FRAME = ("    [\n      ", ",\n      ", "\n    ]", ",\n")
_JSON_EMPTY_FRAME = ("    [", "", "]", ",\n")


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


def _gathered_cells(latest: list, column: Gathered, quote):
    """The quoted texts of the column's cells.  `latest` holds (content, texts) of the last
    values, reused only for the same dtype and bytes (not for -0.0 and 0.0), else renewed."""
    data = np.ascontiguousarray(column.values)
    if data.ndim != 1 or data.dtype.kind not in _NUMBER_FORMATS:
        raise ValueError(f"gathered values must be 1-D numbers, got {data.dtype} {data.shape}")
    content = data.dtype.str, data.tobytes()
    if latest[:1] != [content]:
        latest[:] = content, np.empty(data.size, object)  # the old texts go first
        for i in range(0, data.size, 256):  # in small pieces: less transient memory
            latest[1][i:i + 256] = _number_text(data[i:i + 256], quote).split("\n")[:-1]
    return latest[1][column.index]


def _repeated_texts(memo: dict, arr: np.ndarray, quote):
    """The '%'-escaped cell texts of number array `arr` if this write met the
    same content before, else None.

    The first meeting stores only a digest; the second formats the texts and
    keeps them with a copy of the bytes, which every later hit must match
    byte for byte (so -0.0 and 0.0, or two NaN payloads, never share texts,
    and a digest collision only costs the reuse).
    """
    data = np.ascontiguousarray(arr)
    key = data.dtype.str, data.shape, zlib.crc32(data)
    entry = memo.get(key, False)
    if entry is False:
        memo[key] = None
        return None
    if entry is None:
        texts = _number_text(arr, quote).replace("%", "%%").split("\n")[:-1]
        memo[key] = data.tobytes(), texts
        return texts
    return entry[1] if entry[0] == data.tobytes() else None


def _chunks(columns, blocks, quote, frame):
    """The text of each chunk of at most CHUNK_ROWS rows.

    A row is open + the cells joined by sep + close, and rows are joined by
    between (`frame`).  Scalars are baked into the row template by `_cell`,
    '%' escaped, and so is the first number array per block that this write
    has met before (`_repeated_texts`); other number arrays fill '%d' or
    '%.17g', other arrays and gathered columns '%s' with their `_cell` texts
    (`_gathered_cells`).  `quote` is json.dumps for JSON cells, str for CSV.
    """
    open_, sep, close, between = frame
    memo, latest = {}, []
    for block in blocks:
        if len(block) != len(columns):
            raise ValueError(f"block has {len(block)} values for {len(columns)} columns")
        cells, arrays, baked, sizes = [], [], None, set()
        for value in block:
            gathered = isinstance(value, Gathered)
            if not gathered and np.ndim(value) == 0:
                cells.append(quote(_cell(value)).replace("%", "%%"))
                continue
            arr = _gathered_cells(latest, value, quote) if gathered else np.asarray(value)
            if arr.ndim != 1:
                raise ValueError(f"column arrays must be 1-D, got shape {arr.shape}")
            sizes.add(arr.size)
            if not gathered and arr.dtype.kind in _NUMBER_FORMATS:
                if baked is None and (texts := _repeated_texts(memo, arr, quote)) is not None:
                    baked = len(cells), texts
                    cells.append("")
                    continue
                cells.append(quote(_NUMBER_FORMATS[arr.dtype.kind]))
            else:
                cells.append("%s")
                arr = arr if gathered else np.array([quote(_cell(v)) for v in arr.tolist()], object)
            arrays.append(arr)
        if len(sizes) > 1:
            raise ValueError(f"column arrays of one block differ in length: {sorted(sizes)}")
        n_rows = sizes.pop() if sizes else 1
        if baked is None:
            row = open_ + sep.join(cells) + close
        else:
            k, texts = baked
            pre = open_ + "".join(c + sep for c in cells[:k])
            post = "".join(sep + c for c in cells[k + 1:]) + close
        for start in range(0, n_rows, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, n_rows)
            parts = [arr[start:stop].tolist() for arr in arrays]
            if baked is None:
                template = row + (between + row) * (stop - start - 1)
            else:
                template = pre + (post + between + pre).join(texts[start:stop]) + post
            yield template % tuple(chain.from_iterable(zip(*parts)))


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
        lead = "\n"
        frame = _JSON_FRAME if columns else _JSON_EMPTY_FRAME
        for text in _chunks(columns, blocks, json.dumps, frame):
            fh.write(lead)
            fh.write(text)
            lead = ",\n"
        fh.write("]" if lead == "\n" else "\n  ]")
        fh.write(tail + "\n")
