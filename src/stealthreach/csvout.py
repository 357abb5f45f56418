"""The CSV writer behind every tabular output: cloud and heatmap."""

import numpy as np


def write_csv(path, metadata: dict | None, header: list[str], rows, fmt) -> None:
    """Write '# key=value' metadata lines, the header, then one line per row.

    rows is 2-D with one column per header name; fmt is one %-format per
    column, or one for all ("%d" for counters, "%.17g" for floats, which
    round-trips every double).
    """
    with open(path, "w") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, rows, fmt=fmt, delimiter=",")
