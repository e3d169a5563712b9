import hashlib
import json
import math
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdsim import dataset
from ccdsim.dataset import Dataset, _render, config_hash, emit_dataset, write_dataset
from ccdsim.experiments import AxisDef


def sample_dataset():
    return Dataset(
        meta={"scheme": "cm", "seed": 7},
        axes=(
            AxisDef("detuning", "rad/s", np.array([-1.0, 1.0])),
            AxisDef("duration", "s", np.array([0.5, 1.5])),
        ),
        value_names=("p_up",),
        values=np.array([[[0.1], [0.2]], [[0.3], [0.4]]]),
        config_text="scheme = cm\n",
    )


class TestCsv:
    def test_two_by_two_grid_has_four_rows(self):
        payload = emit_dataset(sample_dataset(), "csv").decode()
        lines = payload.strip().splitlines()
        data_rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(data_rows) == 4
        assert data_rows[0].split(",") == ["-1.0", "0.5", "0.1"]
        assert data_rows[3].split(",") == ["1.0", "1.5", "0.4"]

    def test_header_carries_meta_and_config(self):
        payload = emit_dataset(sample_dataset(), "csv").decode()
        assert "# meta.scheme=cm" in payload
        assert "# meta.seed=7" in payload
        assert "# version=ccdsim" in payload
        assert "# config.000=scheme = cm" in payload
        assert "# config_hash=" in payload

    def test_byte_identical_for_identical_inputs(self):
        assert emit_dataset(sample_dataset(), "csv") == emit_dataset(sample_dataset(), "csv")
        assert emit_dataset(sample_dataset(), "json") == emit_dataset(sample_dataset(), "json")

    def test_no_timestamp_without_source_date_epoch(self, monkeypatch):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        assert b"created_epoch" not in emit_dataset(sample_dataset(), "csv")
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        assert b"# created_epoch=1700000000" in emit_dataset(sample_dataset(), "csv")


class TestJson:
    def test_structure(self):
        doc = json.loads(emit_dataset(sample_dataset(), "json"))
        assert set(doc) == {"meta", "axes", "value_names", "values"}
        assert doc["axes"][0]["name"] == "detuning"
        assert doc["values"][1][0] == [0.3]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_dataset(sample_dataset(), "parquet")


class TestWrite:
    def test_atomic_write_and_reload(self, tmp_path):
        path = tmp_path / "out.csv"
        write_dataset(sample_dataset(), str(path), "csv")
        assert path.read_bytes() == emit_dataset(sample_dataset(), "csv")
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".ccdsim-")]
        assert leftovers == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_file_mode_is_the_mode_open_gives(self, tmp_path, umask, mode):
        path = tmp_path / "out.csv"
        before = os.umask(umask)
        try:
            write_dataset(sample_dataset(), str(path), "csv")
            after = os.umask(umask)
        finally:
            os.umask(before)
        assert after == umask  # the write leaves the umask as it found it
        assert stat.S_IMODE(path.stat().st_mode) == mode

    def test_failure_leaves_no_partial_file(self, tmp_path):
        bad = sample_dataset()
        path = tmp_path / "missing-dir" / "out.csv"
        with pytest.raises(OSError):
            write_dataset(bad, str(path), "csv")
        assert not path.exists()


def test_config_hash_is_git_blob_sha1():
    # sha1("blob 12\0hello world\n") for the classic content
    assert config_hash("hello world\n") == "3b18e512dba79e4c8300dd08aeb37f8e728b8dad"


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.text())
def test_config_hash_matches_hashlib_on_any_text(text):
    # the built-in _sha1 behind config_hash must give hashlib's git-blob digest
    payload = text.encode("utf-8")
    expected = hashlib.sha1(b"blob %d\0" % len(payload) + payload).hexdigest()
    assert config_hash(text) == expected


def test_shape_validation():
    with pytest.raises(ValueError):
        Dataset(
            meta={},
            axes=(AxisDef("x", "s", np.array([1.0, 2.0])),),
            value_names=("y",),
            values=np.zeros((3, 1)),
        )


@pytest.mark.parametrize(
    "meta, key",
    [({"program": "a\nx=1,2"}, "meta.program"), ({"note": "a\rb"}, "meta.note"),
     ({"bad\nkey": 1}, "meta.bad\nkey")],
)
def test_line_break_in_metadata_rejected(meta, key):
    data = Dataset(meta=meta, axes=(), value_names=("y",), values=np.zeros(1))
    for fmt in ("csv", "json"):
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            emit_dataset(data, fmt)


def emit_csv_by_rows(data):
    """The CSV emitter as one ``_render`` call per cell, row by row: the oracle."""
    lines = [f"# {key}={value}" for key, value in sorted(data.header().items())]
    columns = [f"{ax.name}_{ax.units}".replace("/", "_per_") for ax in data.axes]
    columns += list(data.value_names)
    lines.append(",".join(columns))
    grids = np.meshgrid(*[ax.values for ax in data.axes], indexing="ij") if data.axes else []
    flat_axes = [g.reshape(-1) for g in grids]
    flat_values = data.values.reshape(-1, len(data.value_names))
    for i in range(flat_values.shape[0]):
        cells = [_render(col[i]) for col in flat_axes]
        cells += [_render(v) for v in flat_values[i]]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]
cells = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


@st.composite
def datasets(draw):
    """0-3 float or integer axes of length 0-6 and 1-3 value columns."""
    lengths = draw(st.lists(st.integers(0, 6), max_size=3))
    axes = []
    for j, n in enumerate(lengths):
        if draw(st.booleans()):
            values = np.array(draw(st.lists(st.integers(-(2**62), 2**62), min_size=n, max_size=n)),
                              dtype=np.int64)
        else:
            values = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=float)
        axes.append(AxisDef(f"x{j}", "rad/s", values))
    names = tuple(f"v{i}" for i in range(draw(st.integers(1, 3))))
    shape = (*lengths, len(names))
    flat = draw(st.lists(cells, min_size=math.prod(shape), max_size=math.prod(shape)))
    return Dataset(meta={"seed": 3}, axes=tuple(axes), value_names=names,
                   values=np.array(flat, dtype=float).reshape(shape), config_text="seed = 3\n")


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(datasets())
def test_csv_matches_the_row_by_row_emitter(data):
    assert emit_dataset(data, "csv") == emit_csv_by_rows(data)


def test_csv_over_several_row_blocks_matches_the_row_by_row_emitter():
    rows = 2 * dataset._BLOCK_ROWS + 26  # two full blocks and a remainder
    durations = np.arange(rows // 2) * 1.5e-9
    data = Dataset(
        meta={"scheme": "cm"},
        axes=(AxisDef("detuning", "rad/s", np.array([-1.0, 1.0])),
              AxisDef("duration", "s", durations)),
        value_names=("p_up", "x"),
        values=np.sin(np.arange(2 * rows) * 0.37).reshape(2, rows // 2, 2),
    )
    assert emit_dataset(data, "csv") == emit_csv_by_rows(data)
