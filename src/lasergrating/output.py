"""Deterministic CSV/JSON writers shared by the CLI.

All files are byte-reproducible: fixed float formatting, sorted JSON keys,
no timestamps.

Tables are written from columns.  `blocks` yields one block per curve or
sub-table, with one value per column: a scalar (a label, repeated on every
row) or a 1-D array or list; the arrays of a block give its rows (one row if
it has none).  Each chunk of CHUNK_ROWS rows is formatted from one `%`
template and written at once, so no writer holds the rows or the document.
The byte contract is in docs/formats.md.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

VERSION = "0.1.0"
CHUNK_ROWS = 4096
_NUMBER_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d"}  # by dtype kind


def _cell(value) -> str:
    """17 significant digits for floats (round-trips doubles), else str."""
    if isinstance(value, float):
        return format(float(value), ".17g")
    return str(value)


def _chunks(columns, blocks, quote):
    """(cell templates, row count, values) per chunk of at most CHUNK_ROWS rows.

    Scalars are baked into their template by `_cell`, '%' escaped; other
    arrays than numbers fill '%s' with their `_cell` texts.  `quote` is
    json.dumps for JSON cells, str for CSV.
    """
    for block in blocks:
        if len(block) != len(columns):
            raise ValueError(f"block has {len(block)} values for {len(columns)} columns")
        cells, arrays = [], []
        for value in block:
            if np.ndim(value) == 0:
                cells.append(quote(_cell(value)).replace("%", "%%"))
                continue
            arr = np.asarray(value)
            if arr.ndim != 1:
                raise ValueError(f"column arrays must be 1-D, got shape {arr.shape}")
            if arr.dtype.kind in _NUMBER_FORMATS:
                cells.append(quote(_NUMBER_FORMATS[arr.dtype.kind]))
            else:
                cells.append("%s")
                arr = np.array([quote(_cell(v)) for v in arr.tolist()], object)
            arrays.append(arr)
        sizes = {arr.size for arr in arrays}
        if len(sizes) > 1:
            raise ValueError(f"column arrays of one block differ in length: {sorted(sizes)}")
        n_rows = sizes.pop() if sizes else 1
        for start in range(0, n_rows, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, n_rows)
            parts = [arr[start:stop].tolist() for arr in arrays]
            yield cells, stop - start, tuple(chain.from_iterable(zip(*parts)))


def write_csv(path, header_meta: dict, columns: list[str], blocks) -> None:
    """CSV with '# key=value' metadata lines before the column header."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# version={VERSION}\n")
        for key in sorted(header_meta):
            fh.write(f"# {key}={header_meta[key]}\n")
        fh.write(",".join(columns) + "\n")
        for cells, n_rows, values in _chunks(columns, blocks, str):
            fh.write((",".join(cells) + "\n") * n_rows % values)


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
        for cells, n_rows, values in _chunks(columns, blocks, json.dumps):
            row = "    [\n      " + ",\n      ".join(cells) + "\n    ]" if cells else "    []"
            fh.write((lead + row + (",\n" + row) * (n_rows - 1)) % values)
            lead = ",\n"
        fh.write("]" if lead == "\n" else "\n  ]")
        fh.write(tail + "\n")
