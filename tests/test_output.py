"""Columnar writers: byte-identical to the row-wise writers they replaced, on
every CLI table and on edge cells, and streaming in bounded memory."""

import io
import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lasergrating import output, talbot
from lasergrating.cli import main
from lasergrating.grating import poisson_ell_max
from lasergrating.params import GratingParameters

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


def _expand(block):
    """The block with each gathered column replaced by its cells."""
    return tuple(np.asarray(v.values)[v.index] if isinstance(v, output.Gathered) else v
                 for v in block)


def _assert_matches_oracle(fmt, path, meta, columns, blocks):
    seen = []

    def consumed():
        for block in blocks:
            seen.append(_expand(block))  # as the writer meets it
            yield block

    WRITERS[fmt](path, meta, columns, consumed())
    ref = Path(f"{path}.oracle")
    ORACLES[fmt](ref, meta, columns, _rows(seen))
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


# rows of a block that spans at least three pieces: a piece holds at most
# io.DEFAULT_BUFFER_SIZE characters, and every row of these tests has more than 4
LONG_ROWS = io.DEFAULT_BUFFER_SIZE // 4 + 3


def test_long_blocks_span_chunks(tmp_path):
    n = LONG_ROWS
    blocks = [("a", np.arange(n), np.linspace(-1.0, 1.0, n)), ("b", [1], [0.5])]
    for fmt in ("csv", "json"):
        _assert_matches_oracle(fmt, tmp_path / f"long.{fmt}", {}, ["k", "i", "x"], blocks)


_ZEROS = np.array([0.0, 1.5, 0.0])
_NAN_PAYLOADS = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000abc],
                         np.uint64).view(np.float64)
_LONG = np.linspace(-1.0, 1.0, LONG_ROWS)
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


_EDGE = np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308,
                  -5e-324, 0.1])
_INTS = np.array([-3, 0, 7, 2**62], np.int64)
_LONG_INDEX = np.arange(LONG_ROWS) % _EDGE.size
_XI = np.linspace(0.0, 2.0, 4, endpoint=False)
_Q = np.linspace(-1.0, 1.0, 12)
# blocks with gathered columns: cell k is values[index[k]]
GATHERED_BLOCKS = {
    "edge-values": (["k", "x"], [
        ("a", output.Gathered(_EDGE, np.arange(_EDGE.size))),
        ("b", output.Gathered(_EDGE, np.arange(_EDGE.size)[::-1])),
        ("c", output.Gathered(-_EDGE, np.arange(_EDGE.size))),
        ("d", output.Gathered(np.abs(_EDGE), [0, 1, 4, 7]))]),
    "integers": (["k", "x", "i"], [
        ("i", output.Gathered(_INTS, [3, 2, 1, 0]), np.arange(4)),
        ("f", output.Gathered(_INTS.view(np.float64), [0, 1, 2, 3]), np.arange(4)),
        ("i", output.Gathered(_INTS, [0, 0, 3, 3]), np.arange(4)),
        ("u", output.Gathered(np.arange(4, dtype=np.uint8), [3, 1, 2, 0]), np.arange(4))]),
    "indexes": (["k", "x"], [
        ("reversed", output.Gathered(_Q, np.arange(_Q.size)[::-1])),
        ("repeated", output.Gathered(_Q, [2, 2, 2, 0, 0, 11])),
        ("empty", output.Gathered(_Q, np.array([], int))),
        ("one", output.Gathered(_Q, [5]))]),
    "longer-than-chunk": (["k", "x", "i"], [
        ("a", output.Gathered(_EDGE, _LONG_INDEX), np.arange(_LONG_INDEX.size)),
        ("b", output.Gathered(_EDGE, _LONG_INDEX[::-1]), _LONG_INDEX),
        ("c", output.Gathered(_EDGE, [4]), [1])]),
    "reused-values": (["variant", "ell", "j", "xi", "re", "im"], [
        ("q", "", -1, _XI, output.Gathered(_Q, [0, 1, 2, 3]), 0.0),
        ("q", "", 0, _XI, output.Gathered(_Q, [4, 5, 6, 7]), 0.0),
        ("100%", 2, 0, _XI, output.Gathered(_Q[::-1], [4, 5, 6, 7]), 0.0),
        ("q", "", 1, _XI, output.Gathered(_Q, [8, 9, 10, 11]), 0.0),
        ("%s", "%d", 1, _XI, output.Gathered(_Q, [8, 9, 10, 11]), _Q[:4])]),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", list(GATHERED_BLOCKS))
def test_gathered_columns_match_row_writers(case, fmt, tmp_path):
    columns, blocks = GATHERED_BLOCKS[case]
    _assert_matches_oracle(fmt, tmp_path / f"gathered.{fmt}", {"n": "100%"}, columns, blocks)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gathered_values_formatted_once_per_content(fmt, tmp_path, monkeypatch):
    """Texts are reused while the blocks bring the same content, and only
    the latest values are kept: A, A, A changed in place, B, A formats A,
    A', B and A.  The changed A must not get the stale texts."""
    formatted = []

    def counting(arr, quote):
        formatted.append(arr.size)
        return number_text(arr, quote)

    number_text = output._number_text
    monkeypatch.setattr(output, "_number_text", counting)
    a, b = np.array([0.5, -0.0, 2.0 / 3.0]), np.array([1.0, 0.0, math.nan, 4.0])

    def blocks():
        yield "a", output.Gathered(a, [0, 1, 2])
        yield "a", output.Gathered(a, [2, 2, 1])
        a[1] = 0.0
        yield "a changed", output.Gathered(a, [0, 1, 2])
        yield "b", output.Gathered(b, [3, 2, 1, 0])
        a[1] = -0.0
        yield "a", output.Gathered(a, [1, 0])

    _assert_matches_oracle(fmt, tmp_path / f"inplace.{fmt}", {}, ["k", "x"], blocks())
    assert formatted == [3, 3, 4, 3]


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble, np.int8])
def test_gathered_values_changed_in_place_get_new_texts(dtype, tmp_path):
    """Values changed in place between the blocks of one write, for every
    item size, read as each block wrote alone would."""
    def blocks():
        a = np.array([0.5, 1.0, 2.0, 3.0]).astype(dtype)
        for k in range(a.size):
            yield k, output.Gathered(a, [3, 2, 1, 0])
            a[k] = a[k] * 3 + 1

    alone = []
    for block in blocks():
        output.write_csv(tmp_path / "alone.csv", {}, ["k", "x"], [block])
        alone += (tmp_path / "alone.csv").read_text().splitlines()[2:]
    output.write_csv(tmp_path / "inplace.csv", {}, ["k", "x"], blocks())
    assert (tmp_path / "inplace.csv").read_text().splitlines()[2:] == alone


def test_mismatched_columns_are_rejected(tmp_path):
    with pytest.raises(ValueError):
        output.write_csv(tmp_path / "bad.csv", {}, ["a", "b"], [("x", np.arange(3), 1.0)])
    with pytest.raises(ValueError):
        output.write_csv(tmp_path / "bad.csv", {}, ["a", "b"], [(np.arange(3), np.arange(4))])
    with pytest.raises(ValueError):
        output.write_csv(tmp_path / "bad.csv", {}, ["a", "b"],
                         [(np.arange(3), output.Gathered(np.arange(5.0), [0, 1]))])
    for values, index in ((np.ones((2, 2)), [0]), (np.array(["a", "b"]), [0]),
                          (np.arange(3.0), np.zeros((2, 2), int))):
        with pytest.raises(ValueError):
            output.write_csv(tmp_path / "bad.csv", {}, ["a"], [(output.Gathered(values, index),)])


TALBOT_COLUMNS = ["variant", "ell", "j", "xi", "re", "im"]


@pytest.mark.parametrize("flags", [["--variant", "classical"], ["--ell", "2"], ["--ell", "all"]],
                         ids=["classical", "ell-2", "ell-all"])
@pytest.mark.parametrize("j_max", [0, 3, 32])
@pytest.mark.parametrize("xi_points", [1, 7, 8, 256])
def test_talbot_command_matches_independent_table(xi_points, j_max, flags, tmp_path):
    """The talbot files, byte for byte, against the row-wise writers over
    the tables of talbot.symmetric_rows, all counts from one call as the
    command makes it (a call per count differs in the last bits, because
    the spectral size grows with the largest count), gathered at every xi.

    For even xi_points, B_j(xi) = B_{-j}(2 - xi) puts (j, xi_k) and
    (-j, xi_{n-k}) on one cell of the folded table, so their texts are the
    same.  At k = 0 and n/2, xi_{n-k} is xi_k itself (mod 2), so j and -j are
    two cells of that table; they agree to round-off (measured: up to
    1.4e-16)."""
    g = GratingParameters(phi0=math.pi, n0=1.0)
    cfg = tmp_path / "talbot.cfg"
    cfg.write_text(f"[grating]\nphi0 = {g.phi0!r}\nn0 = {g.n0!r}\n\n"
                   f"[talbot]\nj_max = {j_max}\nxi_points = {xi_points}\n")
    xi = np.linspace(0.0, 2.0, xi_points, endpoint=False)
    orders = np.arange(-j_max, j_max + 1)
    variant = flags[1] if flags[0] == "--variant" else None
    ells = {None: [], "2": [2], "all": list(range(poisson_ell_max(g) + 1))}[
        flags[1] if flags[0] == "--ell" else None]
    variants = [variant] if variant else list(talbot.VARIANTS)
    distinct, index, flip = talbot.fold_xi(xi)
    gathered = [tab[np.where(flip, -orders[:, None], orders[:, None]) + j_max, index]
                for tab in talbot.symmetric_rows(orders, distinct, variants + ells, g)]
    tables = [(kind, "", tab) for kind, tab in zip(variants, gathered)]
    tables += [("conditional", ell, tab) for ell, tab in zip(ells, gathered[len(variants):])]
    rows = [(label, ell, j, x, b, 0.0) for label, ell, tab in tables
            for j, row in zip(orders.tolist(), tab) for x, b in zip(xi, row)]
    meta = {"command": "talbot", "phi0": g.phi0, "n0": g.n0, "j_max": j_max}
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        assert main(["talbot", "--config", str(cfg), *flags, "--format", fmt,
                     "--out", str(out)]) == 0
        ORACLES[fmt](tmp_path / f"oracle.{fmt}", meta, TALBOT_COLUMNS, rows)
        written = (out / f"talbot_coefficients.{fmt}").read_bytes()
        assert written == (tmp_path / f"oracle.{fmt}").read_bytes()
    if xi_points % 2 == 0:
        lines = (tmp_path / "csv" / "talbot_coefficients.csv").read_text().splitlines()
        re = np.array([line.split(",")[4] for line in lines if line[0] != "#"][1:])
        re = re.reshape(len(tables), orders.size, xi.size)
        mirror = re[:, ::-1, (xi.size - np.arange(xi.size)) % xi.size]
        own = [0, xi.size // 2]
        assert (np.delete(re, own, axis=2) == np.delete(mirror, own, axis=2)).all()
        assert re[..., own].astype(float) == pytest.approx(mirror[..., own].astype(float),
                                                           abs=1e-15)


@pytest.mark.parametrize("bound", [1, 300, io.DEFAULT_BUFFER_SIZE])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_piece_bound_keeps_the_bytes(bound, fmt, tmp_path, monkeypatch):
    """The bytes do not depend on the size of the pieces: with the bound at one
    character (a piece per row), at a few rows and at its default, every table
    of these tests matches the row-wise writers, and the talbot command writes
    the file it writes at the default bound."""
    cfg = tmp_path / "talbot.cfg"
    cfg.write_text("[grating]\nphi0 = 3.0\nn0 = 0.95\n\n[talbot]\nj_max = 3\nxi_points = 8\n")
    argv = ["talbot", "--config", str(cfg), "--ell", "all", "--format", fmt, "--out"]
    assert main(argv + [str(tmp_path / "default")]) == 0
    monkeypatch.setattr(io, "DEFAULT_BUFFER_SIZE", bound)
    assert main(argv + [str(tmp_path / "bound")]) == 0
    name = f"talbot_coefficients.{fmt}"
    assert (tmp_path / "bound" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()
    tables = [(EDGE_COLUMNS, EDGE_BLOCKS), *REPEATED_BLOCKS.values(), *GATHERED_BLOCKS.values(),
              (["name", "value"], [("a", np.array([]))]), ([], [(), ()])]
    for k, (columns, blocks) in enumerate(tables):
        _assert_matches_oracle(fmt, tmp_path / f"table{k}.{fmt}", {"n": "100%"}, columns, blocks)


class _RecordingFile:
    """A text file that records the length of each write."""

    def __init__(self, fh, sizes):
        self.fh, self.sizes = fh, sizes

    def write(self, text):
        self.sizes.append(len(text))
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_talbot_table_json_writes_pieces_within_the_file_buffer(tmp_path, monkeypatch):
    """On the talbot-table JSON (975 blocks of 256 rows, about 33 KB each),
    no piece the writer formats and no write it makes exceeds
    io.DEFAULT_BUFFER_SIZE characters, and each block spans several pieces."""
    pieces, writes = [], []
    chunks = output._chunks

    def recording_chunks(*args):
        for text in chunks(*args):
            pieces.append(len(text))
            yield text

    monkeypatch.setattr(output, "_chunks", recording_chunks)
    monkeypatch.setattr(output, "open", lambda path, mode, **kw: _RecordingFile(
        open(path, mode, **kw), writes), raising=False)
    cfg = tmp_path / "talbot.cfg"
    cfg.write_text("[grating]\nphi0 = 3.0\nn0 = 0.95\n\n[talbot]\nj_max = 32\nxi_points = 256\n")
    assert main(["talbot", "--config", str(cfg), "--ell", "all", "--format", "json",
                 "--out", str(tmp_path)]) == 0
    size = (tmp_path / "talbot_coefficients.json").stat().st_size
    assert sum(pieces) > 0.99 * size
    assert max(pieces) <= io.DEFAULT_BUFFER_SIZE and max(writes) <= io.DEFAULT_BUFFER_SIZE
    assert len(pieces) >= 4 * 975
    assert sum(pieces) / len(pieces) > io.DEFAULT_BUFFER_SIZE / 2  # not row by row


def _talbot_table_write_peak(fmt, tmp_path):
    """Traced peak of the talbot command on the talbot-table benchmark
    table: 249,600 rows (15 tables of 65 orders and 256 xi), computed and
    written (the closed-form im cells are all 0)."""
    cfg = tmp_path / "talbot.cfg"
    cfg.write_text("[grating]\nphi0 = 3.0\nn0 = 0.95\n\n[talbot]\nj_max = 32\nxi_points = 256\n")
    assert poisson_ell_max(GratingParameters(phi0=3.0, n0=0.95)) + 1 == 13
    tracemalloc.start()
    try:
        assert main(["talbot", "--config", str(cfg), "--ell", "all", "--format", fmt,
                     "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    path = tmp_path / f"talbot_coefficients.{fmt}"
    with open(path) as fh:  # a CSV row is a line, a JSON row opens with "    [" on its own
        rows = sum(1 for line in fh if line[0] != "#") - 1 if fmt == "csv" \
            else sum(1 for line in fh if line == "    [\n")
    assert rows == 249_600
    return path, peak


def test_talbot_table_json_streams_in_bounded_memory(tmp_path):
    # about 29 MB of JSON; the row-wise writer peaked at about 100 MB on top
    # of its input rows
    path, peak = _talbot_table_write_peak("json", tmp_path)
    assert path.stat().st_size > 27.5 * 2**20
    assert peak < 16 * 2**20


def test_talbot_table_csv_streams_in_bounded_memory(tmp_path):
    path, peak = _talbot_table_write_peak("csv", tmp_path)
    assert path.stat().st_size > 11.5 * 2**20
    assert peak < 16 * 2**20


def test_talbot_command_peak_is_flat_in_the_number_of_counts(tmp_path):
    """The count tables of `talbot --ell all` are computed one at a time as
    the writer reaches them, so its traced peak does not grow with the number
    of counts: 23 and 33 tables (n0 = 4 and 8, phi0 = 3, j_max = 32, 256 xi,
    one FFT size) peak within 0.125 MiB of each other.  Holding every table
    at once read 2.31 and 2.95 MiB."""
    peaks = {}
    for n0 in (4.0, 4.0, 8.0):  # the first run fills numpy's FFT caches
        assert poisson_ell_max(GratingParameters(phi0=3.0, n0=n0)) + 1 == {4.0: 23, 8.0: 33}[n0]
        cfg = tmp_path / "talbot.cfg"
        cfg.write_text(f"[grating]\nphi0 = 3.0\nn0 = {n0!r}\n\n[talbot]\nj_max = 32\n"
                       "xi_points = 256\n")
        tracemalloc.start()
        try:
            assert main(["talbot", "--config", str(cfg), "--ell", "all",
                         "--out", str(tmp_path / "out")]) == 0
            peaks[n0] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peaks[8.0] - peaks[4.0]) < 2**17, {n0: peak / 2**20 for n0, peak in peaks.items()}


def test_talbot_command_holds_each_table_once(tmp_path):
    """While the talbot command builds the tables of the talbot-table
    benchmark (--ell all), its traced peak stays within 0.5 MiB of what it
    holds when it returns, which is the quantum table only: the count tables
    are computed as the writer reaches them, and no table is held twice, as
    a stack and a copy."""
    from lasergrating import cli
    path = tmp_path / "talbot.cfg"
    path.write_text("[grating]\nphi0 = 3.0\nn0 = 0.95\n\n[talbot]\nj_max = 32\nxi_points = 256\n")
    cfg = cli.load_config(path, "talbot")
    args = cli.build_parser().parse_args(["talbot", "--ell", "all"])
    cli.cmd_talbot(cfg, args)  # numpy's FFT caches, once
    tracemalloc.start()
    try:
        tables = cli.cmd_talbot(cfg, args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tables) == 1
    assert peak - held < 2**19, (peak / 2**20, held / 2**20)
