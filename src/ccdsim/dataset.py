"""Dataset container and deterministic CSV/JSON serialization.

CSV files carry ``# key=value`` metadata lines, then a header row, then one
row per grid point (axis columns followed by value columns), with the first
axis varying slowest. JSON files are a single object {meta, axes,
value_names, values}. Numbers are written as shortest round-trip decimals and
metadata keys are sorted, so identical inputs serialize to identical bytes; a
metadata key or value may not hold a line break. Files are written to a
temporary name and atomically renamed, so partial output is never left behind.

The CSV body is rendered column by column: each axis value is rendered once
and repeated into row order, and each value column is rendered in blocks of
``_BLOCK_ROWS`` rows, which are joined into lines and encoded block by block.
The config hash comes from CPython's built-in ``_sha1``, which ``hashlib``
itself falls back to: ``hashlib`` loads OpenSSL, about 3.5 MB of resident
memory. numpy's random generators are imported with OpenSSL blocked
(``experiments._numpy_random``), so no run maps it; a later
``import hashlib`` in the same process loads it as usual.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
from _sha1 import sha1
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import ConfigError
from .experiments import AxisDef

__all__ = ["Dataset", "FORMATS", "emit_dataset", "write_dataset", "config_hash", "TOOL_VERSION"]

TOOL_VERSION = "ccdsim 0.1.0"
#: the serializations, by their ``format`` config value
FORMATS = ("csv", "json")

#: CSV rows rendered, joined and encoded together
_BLOCK_ROWS = 1024


def config_hash(config_text: str) -> str:
    """Git-blob-style SHA-1 of the canonical configuration text."""
    payload = config_text.encode("utf-8")
    return sha1(b"blob %d\0" % len(payload) + payload).hexdigest()


def _render(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _render_column(values: np.ndarray) -> list[str]:
    """``_render`` of each element of a 1-D array, without a call per element
    for float and integer dtypes."""
    if values.dtype.kind in "fiu" and values.dtype.itemsize <= 8:
        # tolist gives Python floats and ints, whose repr is what _render writes
        return list(map(repr, values.tolist()))
    return [_render(v) for v in values]


@dataclass(frozen=True)
class Dataset:
    """Tabular result: a value hypercube over named axes plus metadata.

    ``values`` has shape (*axis lengths, len(value_names)). Metadata always
    includes the tool version and, when built from a run configuration, the
    full canonical config and its content hash. A creation timestamp is
    recorded only when ``SOURCE_DATE_EPOCH`` is set, keeping outputs
    byte-identical across repeated runs.
    """

    meta: dict
    axes: tuple[AxisDef, ...]
    value_names: tuple[str, ...]
    values: np.ndarray
    config_text: str = ""

    def __post_init__(self) -> None:
        expected = tuple(ax.values.size for ax in self.axes) + (len(self.value_names),)
        if self.values.shape != expected:
            raise ConfigError(f"values shape {self.values.shape} != {expected}")

    def header(self) -> dict[str, str]:
        out = {"version": TOOL_VERSION}
        if self.config_text:
            out["config_hash"] = config_hash(self.config_text)
        if epoch := os.environ.get("SOURCE_DATE_EPOCH"):
            out["created_epoch"] = epoch
        for key, value in self.meta.items():
            out[f"meta.{key}"] = _render(value)
        for lineno, line in enumerate(self.config_text.splitlines()):
            out[f"config.{lineno:03d}"] = line
        for key, value in out.items():
            if any(brk in key or brk in value for brk in "\r\n"):
                raise ConfigError(f"metadata {key!r} holds a line break")
        return out


def emit_dataset(data: Dataset, fmt: str = "csv") -> bytes:
    """Serialize to bytes; byte-identical for identical inputs."""
    if fmt not in FORMATS:
        raise ConfigError(f"unknown dataset format {fmt!r}")
    return _emit_csv(data) if fmt == "csv" else _emit_json(data)


def _emit_csv(data: Dataset) -> bytes:
    lines = [f"# {key}={value}" for key, value in sorted(data.header().items())]
    columns = [f"{ax.name}_{ax.units}".replace("/", "_per_") for ax in data.axes]
    columns += list(data.value_names)
    lines.append(",".join(columns))
    parts = [("\n".join(lines) + "\n").encode("utf-8")]
    flat_values = data.values.reshape(-1, len(data.value_names))
    # axis j in indexing="ij" row order: each value repeated once per point of
    # the later axes, the whole run once per point of the earlier ones
    lengths = [ax.values.size for ax in data.axes]
    axis_columns = []
    for j, ax in enumerate(data.axes):
        inner, outer = math.prod(lengths[j + 1 :]), math.prod(lengths[:j])
        rendered = _render_column(ax.values.reshape(-1))
        axis_columns.append(list(chain.from_iterable(repeat(r, inner) for r in rendered)) * outer)
    for start in range(0, flat_values.shape[0], _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        cells = [col[start:stop] for col in axis_columns]
        cells += [_render_column(col) for col in flat_values[start:stop].T]
        parts.append(("\n".join(map(",".join, zip(*cells))) + "\n").encode("utf-8"))
    return b"".join(parts)


def _emit_json(data: Dataset) -> bytes:
    doc = {
        "meta": {k: v for k, v in sorted(data.header().items())},
        "axes": [
            {"name": ax.name, "units": ax.units, "values": [float(v) for v in ax.values]}
            for ax in data.axes
        ],
        "value_names": list(data.value_names),
        "values": data.values.tolist(),
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def write_dataset(data: Dataset, path: str, fmt: str = "csv") -> None:
    """Atomic write: serialize, write a temp file of mode 0o666 less the umask, rename."""
    payload = emit_dataset(data, fmt)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(prefix=".ccdsim-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.umask(umask := os.umask(0o022))  # reading the umask means setting it
        os.chmod(tmp_path, 0o666 & ~umask)
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise
