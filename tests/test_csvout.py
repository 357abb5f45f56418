import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from stealthreach import csvout
from stealthreach.csvout import BLOCK_ROWS, write_csv

from conftest import cpu_cases

SPECIALS = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0]


def savetxt_oracle(path, metadata, header, rows, fmt):
    """The writer's contract: metadata lines, header, then np.savetxt rows."""
    with open(path, "w") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, rows, fmt=fmt, delimiter=",")


def float_rows(count, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((count, 3)) * 10.0 ** rng.integers(-300, 300, (count, 3))
    flat = rows.reshape(-1)
    flat[:min(len(SPECIALS), flat.size)] = SPECIALS[:flat.size]
    return rows


def counter_rows(count, seed=1):
    """Integer-valued float columns for "%d" next to two float columns."""
    ints = np.column_stack([np.arange(count) // 7, 51 + np.arange(count) % 500]).astype(float)
    if count:
        ints[0] = (-0.0, 1e15)
    return np.column_stack([ints, float_rows(count, seed)[:, :2]])


@pytest.mark.parametrize("count, cpus", cpu_cases(0, 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 3))
class TestWriteCsvMatchesSavetxt:
    @pytest.fixture(autouse=True)
    def _pin_cpus(self, usable_cpus, cpus):
        usable_cpus(cpus)

    def test_single_format(self, tmp_path, count):
        rows = float_rows(count)
        meta = {"seed": 3, "note": "x"}
        write_csv(tmp_path / "got.csv", meta, ["a", "b", "c"], rows, "%.17g")
        savetxt_oracle(tmp_path / "want.csv", meta, ["a", "b", "c"], rows, "%.17g")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_per_column_formats(self, tmp_path, count):
        rows = counter_rows(count)
        fmt = ["%d", "%d", "%.17g", "%.17g"]
        header = ["trial", "k", "x1", "x2"]
        write_csv(tmp_path / "got.csv", None, header, rows, fmt)
        savetxt_oracle(tmp_path / "want.csv", None, header, rows, fmt)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_column_major_rows(self, tmp_path, count):
        rows = np.asfortranarray(float_rows(count, seed=2))
        write_csv(tmp_path / "got.csv", {}, ["a", "b", "c"], rows, "%.17g")
        savetxt_oracle(tmp_path / "want.csv", {}, ["a", "b", "c"], rows, "%.17g")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_specials_are_written():
    # the fixture rows really carry every special value the oracle is asked about
    rows = float_rows(3)
    text = "".join("%.17g," % v for v in rows.reshape(-1))
    for token in ("-0,", "nan,", "inf,", "-inf,", "4.9406564584124654e-324,", "1e+308,"):
        assert token in text


def around(values, ulps=6):
    """Each value and its neighbours within ulps units in the last place."""
    values = np.asarray(values, float)
    out, lo, hi = [values], values, values
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return np.concatenate(out)


def exact_ties(count=2000, seed=4):
    """Doubles whose exact decimal expansion has 18 significant digits, the
    last a 5: odd 53-bit integers over 4, and odd 52-bit ones over 8, so that
    "%.17g" rounds a tie."""
    rng = np.random.default_rng(seed)
    odd = rng.integers(2 ** 52, 2 ** 53, count) | 1
    return np.concatenate([odd / 4.0, (odd >> 1 | 1) / 8.0])


def edge_values():
    """The values that decide the numpy path's refusals, both signs."""
    powers = around([float(f"1e{q}") for q in range(-310, 309)])
    subnormal = np.ldexp(np.random.default_rng(6).integers(1, 2 ** 52, 300).astype(float), -1074)
    rng = np.random.default_rng(7)
    odd = (rng.integers(2 ** 52, 2 ** 53, 300) | 1).astype(float)
    ties = np.concatenate([exact_ties(300), odd / 4.0, odd / 8.0, odd / 2.0 ** 40])
    values = np.concatenate([powers, subnormal, around(ties, 1), around([1e-280, 1e280]),
                             SPECIALS])
    values = np.concatenate([values, -values])
    return values[np.isfinite(values) | np.isnan(values)]


def as_rows(values, cols=3):
    return np.resize(values, (-(-len(values) // cols), cols))


COUNTERS = [-0.5, -0.0, 0.0, -1.0, -7.9, 3.99, 9999.0, 10000.0, 1e15, -1e15, 9999999999999999.0,
            1e16, -1e16, 2.0 ** 63, -3e17, 1e300]


def counter_edges():
    """"%d" columns at the numpy path's limits, next to a "%.17g" column."""
    ints = np.array(COUNTERS * 600)
    return np.column_stack([ints, ints[::-1], edge_values()[:len(ints)]])


EDGES = {"floats": (lambda: as_rows(edge_values()), "%.17g"),
         "counters": (counter_edges, ["%d", "%d", "%.17g"])}


def assert_same_as_savetxt(tmp_path, rows, fmt):
    header = [f"c{j}" for j in range(rows.shape[1])]
    write_csv(tmp_path / "got.csv", None, header, rows, fmt)
    savetxt_oracle(tmp_path / "want.csv", None, header, rows, fmt)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("edges, cpus", cpu_cases(*EDGES))
def test_edge_values_match_savetxt(tmp_path, usable_cpus, edges, cpus):
    usable_cpus(cpus)
    make, fmt = EDGES[edges]
    rows = make()
    assert rows.shape[0] > BLOCK_ROWS  # two blocks, so two CPUs split them
    assert_same_as_savetxt(tmp_path, rows, fmt)


@pytest.mark.parametrize("refused, cpus", cpu_cases([0], [1000], [BLOCK_ROWS - 1, BLOCK_ROWS],
                                                    [0, 17, 18, BLOCK_ROWS + 1], "all"))
def test_refused_rows_in_place(tmp_path, usable_cpus, refused, cpus):
    usable_cpus(cpus)
    rng = np.random.default_rng(8)
    rows = np.column_stack([np.arange(BLOCK_ROWS + 2.0), rng.standard_normal((BLOCK_ROWS + 2, 2))])
    bad = np.arange(len(rows)) if refused == "all" else np.array(refused)
    rows[bad, 1 + bad % 2] = np.array([np.nan, 0.0, -np.inf, 1e300])[np.arange(len(bad)) % 4]
    fmt = ["%d", "%.17g", "%.17g"]
    for lo in range(0, len(rows), BLOCK_ROWS):
        want = bad[(bad >= lo) & (bad < lo + BLOCK_ROWS)] - lo
        assert csvout._fast_block(rows[lo:lo + BLOCK_ROWS], fmt)[1].tolist() == want.tolist()
    assert_same_as_savetxt(tmp_path, rows, fmt)


def test_fast_path_proves_a_cloud_but_not_ties():
    # the oracle tests above pass through numpy, not only through the % path
    rng = np.random.default_rng(9)
    cloud = np.column_stack([np.arange(BLOCK_ROWS) // 550, 51 + np.arange(BLOCK_ROWS) % 550,
                             rng.standard_normal((BLOCK_ROWS, 2)) * [0.8, 0.3]])
    assert csvout._fast_block(cloud, ["%d", "%d", "%.17g", "%.17g"])[1].size == 0
    spread = rng.standard_normal(3 * BLOCK_ROWS) * 10.0 ** rng.integers(-250, 250, 3 * BLOCK_ROWS)
    assert csvout._g_fields(spread)[1].mean() < 0.01  # 1e13..1e16 hold many exact ties
    ties = exact_ties()
    for x in ties:
        digits = Decimal(float(x)).normalize().as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    assert csvout._g_fields(ties)[1].all()
    assert not csvout._g_fields(np.nextafter(ties, 0.0))[1].any()  # 19 digits: no ties


def test_tables_are_built_on_first_use():
    code = ("import sys; sys.path[:0] = sys.argv[1:]; from stealthreach import cli, csvout; "
            "assert csvout._tables.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code, str(Path(csvout.__file__).parents[1])], check=True)


@pytest.mark.parametrize("rows, fmt", [
    (np.ones((3, 2)), "%.3f"), (np.ones((3, 2)), ["%d", "%s"]),
    (np.ones((3, 2), np.int64), "%d"), (np.ones((3, 2), np.float32), "%.17g"),
], ids=["format", "one-format", "int64", "float32"])
def test_other_format_or_dtype_raises(tmp_path, rows, fmt):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "got.csv", None, ["a", "b"], rows, fmt)
    assert not (tmp_path / "got.csv").exists()
