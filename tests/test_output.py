"""Columnar writers: byte-identical to the row-wise writers they replaced, on
every CLI table and on edge cells, and streaming in bounded memory."""

import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lasergrating import output
from lasergrating.cli import _talbot_blocks, main
from lasergrating.params import GratingParameters
from lasergrating.talbot import build_coefficient_table

# ---------------------------------------------------------------------------
# oracle: the row-wise writers, verbatim
# ---------------------------------------------------------------------------

VERSION = "0.1.0"


def format_float(value: float) -> str:
    """Fixed 17-significant-digit representation (round-trips doubles)."""
    return format(float(value), ".17g")


def oracle_write_csv(path, header_meta: dict, columns: list[str], rows) -> None:
    """CSV with '# key=value' metadata lines before the column header."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        fh.write(f"# version={VERSION}\n")
        for key in sorted(header_meta):
            fh.write(f"# {key}={header_meta[key]}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _cell(value) -> str:
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def oracle_write_json_table(path, header_meta: dict, columns: list[str], rows) -> None:
    payload = {
        "version": VERSION,
        "meta": {k: str(v) for k, v in header_meta.items()},
        "columns": columns,
        "rows": [[_cell(v) for v in row] for row in rows],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------


def _rows(blocks):
    """The row tuples of column blocks: scalars repeat, arrays give one
    element per row."""
    for block in blocks:
        sizes = [len(v) for v in block if np.ndim(v) > 0]
        for k in range(sizes[0] if sizes else 1):
            yield tuple(v if np.ndim(v) == 0 else v[k] for v in block)


WRITERS = {"csv": output.write_csv, "json": output.write_json_table}
ORACLES = {"csv": oracle_write_csv, "json": oracle_write_json_table}


def _assert_matches_oracle(fmt, path, meta, columns, blocks):
    WRITERS[fmt](path, meta, columns, blocks)
    ref = Path(f"{path}.oracle")
    ORACLES[fmt](ref, meta, columns, _rows(blocks))
    assert path.read_bytes() == ref.read_bytes()


CONFIGS = {
    "beam.cfg": """\
[beam]
power_watt = 1.0
waist_y_um = 500
waist_z_um = 500
wavelength_nm = 532
polarizability_A3 = 100
cross_section_A2 = 10
velocity_mps = 100
mass_amu = 840

[interferometer]
separation_mm = 100
open_fraction = 0.42
""",
    "grating.cfg": """\
[grating]
phi0 = 3.141592653589793
n0 = 1.0
eta_p = 1.3

[interferometer]
talbot_parameter = 3.25
open_fraction = 0.42

[talbot]
j_max = 3
xi_points = 8

[farfield]
screen_max = 1.0
screen_points = 101

[ladder]
kernel_xi = 0.3
""",
    "rabi.cfg": """\
[rabi]
pulse_area_pi = 2.0

[interferometer]
talbot_parameter = 2.0
open_fraction = 0.1
""",
}

COMMANDS = {
    "derive-params": ["derive-params", "--config", "beam.cfg"],
    "talbot": ["talbot", "--config", "grating.cfg", "--ell", "all"],
    "kdtli": ["kdtli", "--config", "grating.cfg"],
    "kdtli-sweep-ell-all": ["kdtli", "--config", "grating.cfg", "--ell", "all",
                            "--sweep", "talbot_parameter=0.5:3:3"],
    "farfield": ["farfield", "--config", "grating.cfg", "--ell", "all"],
    "ladder-sweep": ["ladder", "--config", "grating.cfg", "--sweep", "talbot_parameter=0.5:3:4"],
    "rabi": ["rabi", "--config", "rabi.cfg"],
    **{f"figure-{n}": ["figure", n] for n in ("1", "2", "4", "5", "6")},
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_cli_tables_match_row_writers(command, fmt, tmp_path, monkeypatch):
    checked = []

    def spy(path, meta, columns, blocks):
        _assert_matches_oracle(fmt, Path(path), meta, columns, list(blocks))
        checked.append(Path(path).name)

    monkeypatch.setattr(output, WRITERS[fmt].__name__, spy)
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in CONFIGS else a for a in COMMANDS[command]]
    assert main(argv + ["--format", fmt, "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert sorted(checked) == sorted(f for f in manifest["files"] if f.endswith(fmt))
    if command == "kdtli-sweep-ell-all":
        assert "nan" in (tmp_path / "out" / f"kdtli_visibility.{fmt}").read_text()


EDGE_FLOATS = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                        1.7976931348623157e308, 0.1, -1e-300, 1e16, 2.0 / 3.0])
EDGE_TEXT = np.array(['100%', 'say "hi"', "%s %d %%", "back\\slash", "tab\tnew\nline",
                      "ünïcode", "", ",", "a%%b", "%(x)s", "plain"])
EDGE_BLOCKS = [
    ("plain", 3, np.float64(-0.0), EDGE_FLOATS, np.arange(-5, 6), EDGE_TEXT),
    ('100% "quoted"', np.int64(7), 5e-324, EDGE_FLOATS[::-1],
     np.arange(11, dtype=np.int64) * 10**15, 'x%y"z'),
    (np.float64(math.nan), "", -math.inf, EDGE_FLOATS[:1], np.array([-1]), "%"),
    ("%s %d %%", 1.7976931348623157e308, 2.5, [0.5, -0.0], [3, 4], ["a", "%b"]),
    ("lists", 1, 0.1, np.arange(3) * 0.1, np.array([1, 2, 3], np.uint8), ["x", "y", "z"]),
    ("all scalars", -2, math.inf, 0.25, 17, "one row"),
    ("real view", 0, 1.0, (EDGE_FLOATS * (1 + 1j)).real, np.arange(11), EDGE_TEXT[::-1]),
    ("bools", 0, np.float32(0.1), EDGE_FLOATS, np.arange(11), np.arange(11) % 2 == 0),
]
EDGE_COLUMNS = ["label", "count", "scalar", "value", "index", "text"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_edge_cells_match_row_writers(fmt, tmp_path):
    meta = {"note": 'a "quoted" 100% value', "phi0": np.float64(0.1), "n": 3}
    _assert_matches_oracle(fmt, tmp_path / f"edge.{fmt}", meta, EDGE_COLUMNS, EDGE_BLOCKS)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("columns, blocks", [
    (["name", "value"], []),
    (["name", "value"], [("a", np.array([]))]),
    ([], [(), ()]),
], ids=["no-blocks", "empty-arrays", "no-columns"])
def test_empty_table_matches_row_writers(fmt, columns, blocks, tmp_path):
    path = tmp_path / f"empty.{fmt}"
    _assert_matches_oracle(fmt, path, {}, columns, blocks)
    if fmt == "json" and columns:
        assert '"rows": []' in path.read_text()


def test_long_blocks_span_chunks(tmp_path):
    n = 2 * output.CHUNK_ROWS + 3
    blocks = [("a", np.arange(n), np.linspace(-1.0, 1.0, n)), ("b", [1], [0.5])]
    for fmt in ("csv", "json"):
        _assert_matches_oracle(fmt, tmp_path / f"long.{fmt}", {}, ["k", "i", "x"], blocks)


_ZEROS = np.array([0.0, 1.5, 0.0])
_NAN_PAYLOADS = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000abc],
                         np.uint64).view(np.float64)
_LONG = np.linspace(-1.0, 1.0, 2 * output.CHUNK_ROWS + 3)
# blocks that repeat number arrays, which the writers format once per write
REPEATED_BLOCKS = {
    "signed-zero": (["k", "x"], [("a", _ZEROS), ("b", -_ZEROS), ("a", _ZEROS), ("b", -_ZEROS),
                                 ("c", _ZEROS * -1.0), ("a", _ZEROS)]),
    "nan-payloads": (["k", "x", "y"], [
        ("a", _NAN_PAYLOADS, _NAN_PAYLOADS[::-1]), ("b", _NAN_PAYLOADS[::-1], _NAN_PAYLOADS),
        ("c", np.full(3, math.nan), _NAN_PAYLOADS), ("d", _NAN_PAYLOADS, np.full(3, math.nan))]),
    "int-float-same-bytes": (["k", "x"], [
        ("i", np.arange(4, dtype=np.int64)), ("f", np.arange(4, dtype=np.int64).view(np.float64)),
        ("i", np.arange(4, dtype=np.int64)), ("f", np.arange(4, dtype=np.int64).view(np.float64)),
        ("u", np.arange(4, dtype=np.uint64))]),
    "two-columns": (["k", "x", "y", "z"], [
        ("a", _ZEROS, _ZEROS, np.arange(3)), ("b", _ZEROS, _ZEROS, np.arange(3)),
        ("c", np.arange(3), _ZEROS, np.arange(3)), (1, _ZEROS, [2.0, 3.0, 4.0], _ZEROS)]),
    "percent-label": (["k", "x", "v", "t"], [
        ("100%", _ZEROS, np.arange(3), "%s %d %%"), ("%(x)s", _ZEROS, np.arange(3), 'a "%"'),
        ("%", _ZEROS, np.arange(3) * 2, "%%"), ("%d", _ZEROS, ["%s", "a", "%"], "x")]),
    "longer-than-chunk": (["k", "x", "i"], [
        ("a", _LONG, np.arange(_LONG.size)), ("b", _LONG, np.arange(_LONG.size) * 3),
        ("c", _LONG[:5], np.arange(5)), ("d", _LONG, -np.arange(_LONG.size))]),
}


@pytest.mark.parametrize("collide", [False, True], ids=["digest", "collide"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", list(REPEATED_BLOCKS))
def test_repeated_arrays_match_row_writers(case, fmt, collide, tmp_path, monkeypatch):
    if collide:
        # every array of one dtype and shape gets the same digest: the byte
        # for byte check alone must keep the texts apart
        monkeypatch.setattr(output, "zlib", SimpleNamespace(crc32=lambda data: 0))
    columns, blocks = REPEATED_BLOCKS[case]
    _assert_matches_oracle(fmt, tmp_path / f"repeat.{fmt}", {"n": "100%"}, columns, blocks)


def test_mismatched_columns_are_rejected(tmp_path):
    with pytest.raises(ValueError):
        output.write_csv(tmp_path / "bad.csv", {}, ["a", "b"], [("x", np.arange(3), 1.0)])
    with pytest.raises(ValueError):
        output.write_csv(tmp_path / "bad.csv", {}, ["a", "b"], [(np.arange(3), np.arange(4))])


def _talbot_table_write_peak(writer, path):
    """Traced peak of writing the talbot-table benchmark table: 249,600 rows
    (the closed-form im cells are all 0)."""
    g = GratingParameters(phi0=3.0, n0=0.95)
    xi = np.linspace(0.0, 2.0, 256, endpoint=False)
    table = build_coefficient_table(g, xi_grid=xi, j_max=32, ells="auto")
    assert sum(t.size for t in table.tables.values()) == 249_600
    tracemalloc.start()
    try:
        writer(path, {"command": "talbot"}, ["variant", "ell", "j", "xi", "re", "im"],
               _talbot_blocks(table))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_talbot_table_json_streams_in_bounded_memory(tmp_path):
    # about 29 MB of JSON; the row-wise writer peaked at about 100 MB on top
    # of its input rows
    path = tmp_path / "talbot_coefficients.json"
    peak = _talbot_table_write_peak(output.write_json_table, path)
    assert path.stat().st_size > 27.5 * 2**20
    assert peak < 16 * 2**20


def test_talbot_table_csv_streams_in_bounded_memory(tmp_path):
    path = tmp_path / "talbot_coefficients.csv"
    peak = _talbot_table_write_peak(output.write_csv, path)
    assert path.stat().st_size > 11.5 * 2**20
    assert peak < 16 * 2**20
