"""Reader for the CSV files the package writes, for the tests."""


def read_csv(path):
    """Parse a CSV written by output.write_csv: returns (meta, columns, rows)
    with floats restored for numeric cells."""
    meta = {}
    columns = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, val = line[2:].partition("=")
                meta[key] = val
                continue
            cells = line.split(",")
            if columns is None:
                columns = cells
                continue
            parsed = []
            for c in cells:
                try:
                    parsed.append(float(c))
                except ValueError:
                    parsed.append(c)
            rows.append(parsed)
    return meta, columns, rows
