"""Parameter checkpoints: a self-describing binary container.

Layout: magic "WMHCKPT1", uint32 format version, uint32 JSON length, a
JSON index (network spec + parameter names/shapes/dtypes in payload
order), then the concatenated little-endian C-order parameter payloads.
Writing is byte-deterministic for identical parameters.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .architectures import Network, NetworkSpec

MAGIC = b"WMHCKPT1"
FORMAT_VERSION = 1


def _index(network: Network) -> dict:
    """The JSON index written for `network`."""
    le = network.dtype.newbyteorder("<").str
    return {
        "format_version": FORMAT_VERSION,
        "spec": asdict(network.spec),
        "dtype": le,
        "params": [
            {"name": p.name, "shape": list(p.value.shape), "dtype": le}
            for p in network.parameters()
        ],
    }


def save_checkpoint(path: str | Path, network: Network) -> None:
    blob = json.dumps(_index(network), sort_keys=True, separators=(",", ":")).encode()
    le = network.dtype.newbyteorder("<")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, len(blob)))
        f.write(blob)
        for p in network.parameters():
            f.write(np.ascontiguousarray(p.value, dtype=le).tobytes())


def load_checkpoint(path: str | Path) -> Network:
    """Build the indexed network with zero parameters and read the payload
    into it. Raises ValueError for a file it cannot trust: a short header,
    a wrong magic or version, a malformed index or spec, a payload dtype
    other than float32 or float64, an index other than the one the writer
    makes for the built network (parameter names, shapes, dtypes and their
    order), a truncated payload, or trailing bytes after it."""
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise ValueError(f"not a checkpoint file: {raw[:8]!r}")
    if len(raw) < 16:
        raise ValueError(f"truncated checkpoint header: {len(raw)} bytes")
    version, blob_len = struct.unpack_from("<II", raw, 8)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    offset = 16 + blob_len
    try:
        index = json.loads(raw[16:offset])
        dtype = np.dtype(index["dtype"]).newbyteorder("=")
        net = Network(NetworkSpec(**index["spec"]), dtype)  # float32 or float64
    except (KeyError, TypeError, ValueError) as e:  # ValueError: JSON that does not decode
        raise ValueError(f"{path}: malformed checkpoint index or spec: {e}") from e
    if index != _index(net):
        raise ValueError("the index differs from the one written for its network: "
                         "a parameter name, shape, dtype or order, or a key")
    params = net.parameters()
    size, need = len(raw) - offset, sum(p.value.nbytes for p in params)
    if size != need:
        what = "is truncated" if size < need else "has trailing bytes"
        raise ValueError(f"checkpoint payload {what}: {size} bytes, {need} expected")
    for p in params:
        w = p.value
        w[...] = np.frombuffer(raw, index["dtype"], w.size, offset).reshape(w.shape)
        offset += w.nbytes
    return net
