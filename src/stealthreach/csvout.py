"""The CSV writer behind every tabular output: cloud and heatmap."""

from contextlib import closing

import numpy as np

from .workers import ordered_map

# Rows formatted per write: one block's Python floats are small next to a
# whole cloud's, so the list never inflates the peak memory of a large cloud.
BLOCK_ROWS = 4096


def write_csv(path, metadata: dict | None, header: list[str], rows, fmt) -> None:
    """Write '# key=value' metadata lines, the header, then one line per row.

    rows is 2-D with one column per header name: an array, or a view with
    .shape whose row slices are arrays, sliced per block and never whole.
    fmt is one %-format per column, or one for all ("%d" for counters,
    "%.17g" for floats, which round-trips every double).  The bytes are those
    of np.savetxt with delimiter ","; each block is formatted with one % on
    the row format repeated once per row, the blocks spread over the usable
    CPUs (workers.ordered_map) and written in order as they arrive.
    """
    fmts = [fmt] * rows.shape[1] if isinstance(fmt, str) else list(fmt)
    line = ",".join(fmts) + "\n"
    counters = [j for j, f in enumerate(fmts) if f == "%d"]

    def format_block(lo):
        block = np.asarray(rows[lo:lo + BLOCK_ROWS])
        values = block.ravel().tolist()
        for j in counters:  # '%d' % v formats int(v), twice as fast from an int
            if np.all(np.abs(block[:, j]) < 2.0 ** 63):
                values[j::block.shape[1]] = block[:, j].astype(np.int64).tolist()
        return line * block.shape[0] % tuple(values)

    with open(path, "w") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(header) + "\n")
        with closing(ordered_map(format_block, range(0, rows.shape[0], BLOCK_ROWS))) as blocks:
            fh.writelines(blocks)
