import numpy as np
import pytest

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
