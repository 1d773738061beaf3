"""Shared fixtures."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture
def rewrite_checkpoint():
    """Edit a saved checkpoint's tensors in place and write it back.

    `edit` receives a dict from tensor name to a mutable [directory entry,
    array] pair, in file order; entries may be changed, added or removed.
    """

    def rewrite(path, edit):
        blob = Path(path).read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12:12 + header_len])
        offset = 12 + header_len
        tensors = {}
        for entry in header["tensors"]:
            n = int(np.prod(entry["shape"]))
            arr = np.frombuffer(blob[offset:offset + 8 * n], dtype="<f8").reshape(entry["shape"])
            tensors[entry["name"]] = [entry, arr.copy()]
            offset += 8 * n
        edit(tensors)
        header["tensors"] = [entry for entry, _ in tensors.values()]
        encoded = json.dumps(header, sort_keys=True).encode("utf-8")
        payload = b"".join(arr.astype("<f8").tobytes() for _, arr in tensors.values())
        Path(path).write_bytes(blob[:8] + struct.pack("<I", len(encoded)) + encoded + payload)

    return rewrite
