"""The one artifact writer, and the binary container shared by checkpoints
and history indexes.

Every file dialret writes goes through :func:`write_artifact`: its chunks
stream to a temporary file beside the destination that then replaces it,
so a failed write, or an error raised while the chunks are produced,
leaves the previous file intact and no temporary file behind.

Container bytes, version 3:

    bytes 0..5      magic, six bytes naming the format
    bytes 6..7      format version, uint16 little-endian
    bytes 8..15     header length L, uint64 little-endian
    bytes 16..16+L  UTF-8 JSON header, keys sorted
    then the header's tensors in order, float64 little-endian, row-major,
    no padding, and nothing after the last one.

Beside each format's own keys, the writer lists the payload in the header
as ``"tensors": [[name, shape], ...]`` in file order, with its SHA-256 as
``"payload_sha256"``, checked on every load. So the SHA-256 of the bytes
before the payload, which ``write_container`` returns, pins the whole
file. A malformed file, a payload that does not match its hash or holds
a non-finite value, and a header digest other than the caller expects
raise :class:`DataError`. The reader hashes each byte once and decodes
each tensor in the array it reads it into. Versions 1 and 2 are not
read: re-run ``train`` or ``grid`` to regenerate such a file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import DataError

VERSION = 3
_PREFIX_BYTES = 16


def write_artifact(path, chunks: Iterable) -> None:
    """Write ``chunks`` (``str`` as UTF-8, or bytes-like) to ``path``, all or nothing."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_container(path, magic: bytes, header: dict, tensors: Mapping[str, np.ndarray]) -> str:
    """Write ``header`` and the ``tensors`` (name -> array, in file order) to
    ``path``; return the SHA-256 of the bytes before the payload."""
    arrays = {name: np.ascontiguousarray(t, dtype="<f8") for name, t in tensors.items()}
    payload = hashlib.sha256()
    for array in arrays.values():
        payload.update(array)
    header = dict(header, payload_sha256=payload.hexdigest(),
                  tensors=[[name, list(array.shape)] for name, array in arrays.items()])
    blob = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    head = magic + struct.pack("<HQ", VERSION, len(blob)) + blob
    write_artifact(path, [head, *arrays.values()])
    return hashlib.sha256(head).hexdigest()


def _size(shape) -> int:
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape):
        raise ValueError(f"bad tensor shape {shape!r}")
    return math.prod(shape)


def read_container(
    path, magic: bytes, kind: str, build: Callable[[dict, dict], object],
    sha256: str | None = None,
):
    """``build(header, tensors)`` for the container file at ``path``.

    A wrong magic or version, a short or overlong file, a header that is
    not JSON, a prefix and header whose SHA-256 is not ``sha256`` (when
    given), a payload whose SHA-256 is not the header's, a non-finite
    payload value, and a ``KeyError``, ``TypeError`` or ``ValueError``
    raised while reading the header or by ``build`` all become
    :class:`DataError`. The tensors are writable.
    """
    payload = hashlib.sha256()
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(_PREFIX_BYTES)
        if prefix[:6] != magic:
            raise DataError(f"not a {kind} file (magic {prefix[:6]!r})")
        if len(prefix) < _PREFIX_BYTES:
            raise DataError(f"{kind} file truncated in its {_PREFIX_BYTES}-byte prefix")
        version, header_len = struct.unpack_from("<HQ", prefix, 6)
        if version != VERSION:
            raise DataError(f"unsupported {kind} version {version}; re-run train or grid "
                            f"to regenerate it as version {VERSION}")
        # Every length is checked against the file size before it is read,
        # so a corrupt length never asks for more memory than the file holds.
        offset = _PREFIX_BYTES + header_len
        if file_size < offset:
            raise DataError(f"{kind} file truncated in its header")
        blob = fh.read(header_len)
        if sha256 and (actual := hashlib.sha256(prefix + blob).hexdigest()) != sha256:
            raise DataError(f"{kind} {path} header hash {actual[:12]}... does not match "
                            f"the recorded {sha256[:12]}...")
        try:
            header = json.loads(blob.decode("utf-8"))
            tensors: dict[str, np.ndarray] = {}
            for name, shape in header["tensors"]:
                size = 8 * _size(shape)
                if name in tensors:
                    raise ValueError(f"tensor {name!r} listed twice")
                if file_size < offset + size:
                    raise DataError(f"{kind} truncated while reading {name!r}")
                tensor = np.empty(shape, "<f8")
                fh.readinto(tensor)
                payload.update(tensor)
                tensors[name] = tensor.astype(np.float64, copy=False)
                offset += size
            if file_size != offset:
                raise DataError(f"{kind} file has {file_size - offset} bytes after its payload")
            if payload.hexdigest() != header["payload_sha256"]:
                raise DataError(f"{kind} {path} payload hash {payload.hexdigest()[:12]}... "
                                f"does not match its header")
            for name, tensor in tensors.items():
                if not np.all(np.isfinite(tensor)):
                    raise DataError(f"{kind} tensor {name!r} holds non-finite values")
            return build(header, tensors)
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            # JSON and UTF-8 decode errors are ValueErrors too.
            raise DataError(f"malformed {kind} file: {type(exc).__name__}: {exc}") from None
