"""Framed, versioned, delta-encoded wire format for the remote rung.

The remote engine (:mod:`repro.core.remote`) shards destination columns
across TCP workers.  Everything that crosses the socket goes through
this module, which defines

* a **frame layout** — an 11-byte header ``!4sHBI`` carrying a magic
  marker, the protocol version, a message type, and the payload length,
  then the payload and its CRC-32, so a malformed peer (bad magic,
  torn frame, absurd length, a flipped payload byte) or a
  version-skewed peer fails loudly with a typed error instead of a
  silent desync;
* a **column-update codec** — per-round state summaries are
  *delta-encoded* (a changed-column bitmask plus per-column diffs
  against the receiver's last acknowledged state) and *quantized*
  (values travel in the narrowest unsigned carrier that can hold the
  algebra's finite encoding, extending the batched engine's
  narrow-dtype trick to the wire), and its **chain** form for δ
  checkpoints (length-prefixed updates, each against the one before);
  a δ window's active nodes and read-backs travel in the same narrow
  dtypes (:func:`wire_dtype` reads the names its head gives); and
* **byte accounting** — :class:`WireStats` tracks bytes, commands, and
  protocol rounds, plus the naive-equivalent byte count (full-block
  ``int32`` transfer) so the compression ratio is measurable and
  regression-gated in the benchmark harness.

The codec is lossless: "quantized" here means dtype narrowing of exact
integer codes, never value truncation, so remote results stay
bit-identical to the single-process engines.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WIRE_VERSION",
    "MAGIC",
    "WireError",
    "WireFormatError",
    "WireVersionError",
    "WireClosedError",
    "MSG_LOAD",
    "MSG_SIGMA_INIT",
    "MSG_SIGMA_ROUND",
    "MSG_DELTA_INIT",
    "MSG_DELTA_STEPS",
    "MSG_FETCH",
    "MSG_STOP",
    "MSG_PING",
    "MSG_CKPT",
    "MSG_ACK",
    "MSG_UPDATE",
    "MSG_FLAGS",
    "MSG_ERROR",
    "encode_frame",
    "decode_frame_bytes",
    "FrameConnection",
    "pack_payload",
    "unpack_payload",
    "carrier_dtype",
    "wire_dtype",
    "encode_update",
    "decode_update",
    "encode_chain",
    "decode_chain",
    "naive_update_bytes",
    "WireStats",
]

#: Protocol version.  Bump on any incompatible change to the frame
#: layout, message vocabulary, payload fields, or update-blob encoding;
#: peers with a different version are rejected with
#: :class:`WireVersionError`.  docs/wire.md lists what each version
#: changed.
WIRE_VERSION = 4

#: Frame magic.  Anything else at a frame boundary is a malformed peer.
MAGIC = b"RSDW"

#: ``magic (4s) | version (H) | msg type (B) | payload length (I)``
_HEADER = struct.Struct("!4sHBI")

#: The payload's CRC-32 (:func:`zlib.crc32`), after the payload.
_CHECKSUM = struct.Struct("!I")

#: Sanity bound on a single payload (1 GiB).  A length above this at a
#: frame boundary means the stream is garbage, not a big message.
MAX_PAYLOAD = 1 << 30

# Coordinator -> worker commands.
MSG_LOAD = 1          # topology snapshot (tables, sources, degrees, block)
MSG_SIGMA_INIT = 2    # install a starting state (delta vs. all-invalid)
MSG_SIGMA_ROUND = 3   # run one synchronous round over the dirty columns
MSG_DELTA_INIT = 4    # install a delta ring (window size + start state)
MSG_DELTA_STEPS = 5   # execute a window of activation steps (binary tail)
MSG_FETCH = 6         # ship the block at ring slot t (delta vs. acked)
MSG_STOP = 7          # end of session
MSG_PING = 8          # liveness probe (probation re-admission hello)
MSG_CKPT = 9          # capture a delta checkpoint (ring tail vs baseline)

# Worker -> coordinator replies.
MSG_ACK = 16          # command done, nothing to report
MSG_UPDATE = 17       # delta-encoded column update (+ JSON summary)
MSG_FLAGS = 18        # per-step changed flags for a delta window
MSG_ERROR = 19        # worker-side failure, relayed as text


class WireError(RuntimeError):
    """Base class for wire-protocol failures."""


class WireFormatError(WireError):
    """Malformed peer: bad magic, truncated frame, absurd length, or a
    payload that fails its checksum."""


class WireVersionError(WireError):
    """Version-skewed peer: frame header carries a different version."""


class WireClosedError(WireError):
    """Peer closed the connection (possibly mid-frame)."""


# ---------------------------------------------------------------------------
# Framing


def encode_frame(msg_type: int, payload: bytes = b"") -> bytes:
    """Serialise one frame: header, the raw payload, its checksum."""
    return (_HEADER.pack(MAGIC, WIRE_VERSION, msg_type, len(payload))
            + payload + _CHECKSUM.pack(zlib.crc32(payload)))


def _parse_header(header: bytes) -> tuple[int, int]:
    """Validate an 11-byte header; return ``(msg_type, payload_len)``."""
    magic, version, msg_type, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireFormatError(
            f"bad frame magic {magic!r} (expected {MAGIC!r}); "
            "peer is not speaking the repro wire protocol")
    if version != WIRE_VERSION:
        raise WireVersionError(
            f"peer speaks wire version {version}, this side speaks "
            f"{WIRE_VERSION}; refusing to continue")
    if length > MAX_PAYLOAD:
        raise WireFormatError(
            f"frame declares a {length}-byte payload (> {MAX_PAYLOAD}); "
            "stream is corrupt")
    return msg_type, length


def _check_payload(msg_type: int, payload: bytes, checksum: bytes) -> None:
    """Raise :class:`WireFormatError` unless the CRC-32 matches."""
    (expected,) = _CHECKSUM.unpack(checksum)
    if zlib.crc32(payload) != expected:
        raise WireFormatError(
            f"frame type {msg_type}: the {len(payload)}-byte payload fails "
            "its CRC-32; the frame was damaged in transit")


def decode_frame_bytes(data: bytes) -> tuple[int, bytes, bytes]:
    """Decode one frame from a byte string.

    Returns ``(msg_type, payload, remainder)``.  Raises
    :class:`WireFormatError` on a torn (truncated) frame or a checksum
    mismatch and :class:`WireVersionError` on version skew.
    """
    if len(data) < _HEADER.size:
        raise WireFormatError(
            f"torn frame: {len(data)} bytes is shorter than the "
            f"{_HEADER.size}-byte header")
    msg_type, length = _parse_header(data[:_HEADER.size])
    end = _HEADER.size + length
    if len(data) < end + _CHECKSUM.size:
        raise WireFormatError(
            f"torn frame: header declares {length} payload bytes and a "
            f"{_CHECKSUM.size}-byte checksum but only "
            f"{len(data) - _HEADER.size} bytes follow it")
    payload = data[_HEADER.size:end]
    _check_payload(msg_type, payload, data[end:end + _CHECKSUM.size])
    return msg_type, payload, data[end + _CHECKSUM.size:]


def _recv_exact(sock, size: int) -> bytes:
    """Read exactly ``size`` bytes or raise :class:`WireClosedError`."""
    chunks = []
    got = 0
    while got < size:
        chunk = sock.recv(size - got)
        if not chunk:
            if got:
                raise WireClosedError(
                    f"peer closed mid-frame after {got}/{size} bytes "
                    "(torn frame)")
            raise WireClosedError("peer closed the connection")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


class FrameConnection:
    """A framed, counted view of one TCP socket.

    Owns byte counters (``bytes_sent`` / ``bytes_received``) so the
    coordinator can report wire volume per run without instrumenting
    call sites.

    ``injector`` (a :class:`repro.core.faults.FaultInjector`) is the
    chaos hook: every frame passes through it at the boundary, in both
    directions, so seeded fault plans can drop, delay, corrupt,
    truncate or sever exactly one deterministic frame.  ``None`` (the
    default) is a zero-overhead straight-through path.
    """

    def __init__(self, sock, injector=None):
        self.sock = sock
        self.injector = injector
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, msg_type: int, payload: bytes = b"") -> None:
        frame = encode_frame(msg_type, payload)
        if self.injector is not None:
            frame, close_after = self.injector.send_frame(msg_type, frame)
            if frame is not None:
                self.sock.sendall(frame)
                self.bytes_sent += len(frame)
            if close_after:
                self.close()
                raise WireClosedError(
                    "fault injection severed the connection at a send "
                    "boundary")
            return
        self.sock.sendall(frame)
        self.bytes_sent += len(frame)

    def recv(self) -> tuple[int, bytes]:
        # the checksum is checked after the injector's hook, so a
        # payload it damages is caught like one damaged in transit
        while True:
            header = _recv_exact(self.sock, _HEADER.size)
            msg_type, length = _parse_header(header)
            body = _recv_exact(self.sock, length + _CHECKSUM.size)
            self.bytes_received += _HEADER.size + len(body)
            payload, checksum = body[:length], body[length:]
            if self.injector is not None:
                verdict, payload = self.injector.recv_frame(msg_type,
                                                            payload)
                if verdict == "close":
                    self.close()
                    raise WireClosedError(
                        "fault injection severed the connection at a recv "
                        "boundary")
                if verdict == "drop":
                    continue             # discard it, wait for the next one
            _check_payload(msg_type, payload, checksum)
            return msg_type, payload

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Payload helpers: JSON head + raw binary tail


def pack_payload(obj, tail: bytes = b"") -> bytes:
    """``json-length (uint32) | json | tail`` — control head + bulk tail."""
    head = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return struct.pack("!I", len(head)) + head + tail


def unpack_payload(payload: bytes):
    """Inverse of :func:`pack_payload`: returns ``(obj, tail)``."""
    if len(payload) < 4:
        raise WireFormatError("payload shorter than its JSON length prefix")
    (hlen,) = struct.unpack_from("!I", payload)
    if len(payload) < 4 + hlen:
        raise WireFormatError("payload truncated inside its JSON head")
    try:
        obj = json.loads(payload[4:4 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError(f"undecodable JSON head: {exc}") from None
    return obj, payload[4 + hlen:]


# ---------------------------------------------------------------------------
# Delta-encoded, quantized column updates

#: ``rows (I) | cols (I) | value-dtype code (B)``
_UPDATE_HEADER = struct.Struct("!IIB")

#: Per-column mode byte.
_MODE_SPARSE = 0
_MODE_DENSE = 1

_VALUE_DTYPES = (np.dtype("<u1"), np.dtype("<u2"), np.dtype("<i4"))


def carrier_dtype(carrier_size: int) -> np.dtype:
    """Narrowest unsigned dtype that can hold codes ``0..carrier_size-1``.

    This is the wire-level analogue of the batched engine's narrow-dtype
    trick: hop-count-16 codes travel as one byte, not four.
    """
    if carrier_size <= 1 << 8:
        return _VALUE_DTYPES[0]
    if carrier_size <= 1 << 16:
        return _VALUE_DTYPES[1]
    return _VALUE_DTYPES[2]


def wire_dtype(name) -> np.dtype:
    """The wire value dtype a JSON head names (its ``dtype.str``, as
    :func:`carrier_dtype` gives it), or :class:`WireFormatError`."""
    for dtype in _VALUE_DTYPES:
        if dtype.str == name:
            return dtype
    raise WireFormatError(f"unknown wire value dtype {name!r}")


def _dtype_code(dtype: np.dtype) -> int:
    for code, d in enumerate(_VALUE_DTYPES):
        if d == dtype:
            return code
    raise ValueError(f"unsupported wire value dtype {dtype}")


def encode_update(prev: np.ndarray, cur: np.ndarray,
                  carrier_size: int) -> bytes:
    """Delta-encode ``cur`` against ``prev`` for one column block.

    Layout: update header, changed-column bitmask
    (``ceil(cols/8)`` bytes), then for each changed column in ascending
    order a mode byte followed by either the full column (dense) or a
    changed-row bitmask plus the changed values (sparse), values in the
    narrowest carrier dtype.  The per-column mode is chosen by exact
    byte cost, so the encoding is never larger than dense-narrow.
    """
    prev = np.asarray(prev)
    cur = np.asarray(cur)
    if prev.shape != cur.shape or prev.ndim != 2:
        raise ValueError(
            f"update blocks must be matching 2-D arrays, got "
            f"{prev.shape} vs {cur.shape}")
    rows, cols = cur.shape
    vdtype = carrier_dtype(carrier_size)
    diff = prev != cur
    col_changed = diff.any(axis=0)
    parts = [
        _UPDATE_HEADER.pack(rows, cols, _dtype_code(vdtype)),
        np.packbits(col_changed).tobytes(),
    ]
    row_mask_bytes = (rows + 7) // 8
    dense_cost = rows * vdtype.itemsize
    for c in np.nonzero(col_changed)[0]:
        mask = diff[:, c]
        k = int(mask.sum())
        if row_mask_bytes + k * vdtype.itemsize < dense_cost:
            parts.append(bytes((_MODE_SPARSE,)))
            parts.append(np.packbits(mask).tobytes())
            parts.append(np.ascontiguousarray(
                cur[mask, c], dtype=vdtype).tobytes())
        else:
            parts.append(bytes((_MODE_DENSE,)))
            parts.append(np.ascontiguousarray(
                cur[:, c], dtype=vdtype).tobytes())
    return b"".join(parts)


def decode_update(blob: bytes, out: np.ndarray) -> int:
    """Apply a delta-encoded update to ``out`` in place.

    ``out`` must hold the state the update was encoded against (the
    last acknowledged block).  Returns the number of changed columns.
    Raises :class:`WireFormatError` if the blob is truncated or its
    shape disagrees with ``out``.
    """
    if len(blob) < _UPDATE_HEADER.size:
        raise WireFormatError("update blob shorter than its header")
    rows, cols, dcode = _UPDATE_HEADER.unpack_from(blob)
    if dcode >= len(_VALUE_DTYPES):
        raise WireFormatError(f"unknown update value-dtype code {dcode}")
    vdtype = _VALUE_DTYPES[dcode]
    if out.shape != (rows, cols):
        raise WireFormatError(
            f"update is for a {rows}x{cols} block but the receiver holds "
            f"{out.shape[0]}x{out.shape[1]}")
    pos = _UPDATE_HEADER.size
    col_mask_bytes = (cols + 7) // 8
    row_mask_bytes = (rows + 7) // 8
    if len(blob) < pos + col_mask_bytes:
        raise WireFormatError("update blob truncated in its column bitmask")
    col_changed = np.unpackbits(
        np.frombuffer(blob, dtype=np.uint8, count=col_mask_bytes,
                      offset=pos))[:cols].astype(bool)
    pos += col_mask_bytes
    changed_cols = np.nonzero(col_changed)[0]
    for c in changed_cols:
        if len(blob) < pos + 1:
            raise WireFormatError("update blob truncated at a column mode")
        mode = blob[pos]
        pos += 1
        if mode == _MODE_DENSE:
            end = pos + rows * vdtype.itemsize
            if len(blob) < end:
                raise WireFormatError(
                    "update blob truncated inside a dense column")
            out[:, c] = np.frombuffer(blob, dtype=vdtype, count=rows,
                                      offset=pos)
            pos = end
        elif mode == _MODE_SPARSE:
            if len(blob) < pos + row_mask_bytes:
                raise WireFormatError(
                    "update blob truncated in a row bitmask")
            mask = np.unpackbits(
                np.frombuffer(blob, dtype=np.uint8, count=row_mask_bytes,
                              offset=pos))[:rows].astype(bool)
            pos += row_mask_bytes
            k = int(mask.sum())
            end = pos + k * vdtype.itemsize
            if len(blob) < end:
                raise WireFormatError(
                    "update blob truncated inside a sparse column")
            out[mask, c] = np.frombuffer(blob, dtype=vdtype, count=k,
                                         offset=pos)
            pos = end
        else:
            raise WireFormatError(f"unknown column mode byte {mode}")
    if pos != len(blob):
        raise WireFormatError(
            f"{len(blob) - pos} trailing bytes after the last column")
    return int(changed_cols.size)


def encode_chain(base: np.ndarray, blocks, carrier_size: int) -> bytes:
    """The checkpoint chain: ``blocks[0]`` delta-encoded against
    ``base``, each next block against the one before, every update blob
    prefixed with its ``!I`` length and concatenated."""
    parts = []
    prev = base
    for block in blocks:
        blob = encode_update(prev, block, carrier_size)
        parts.append(struct.pack("!I", len(blob)) + blob)
        prev = block
    return b"".join(parts)


def decode_chain(tail: bytes, base: np.ndarray, outs) -> None:
    """Inverse of :func:`encode_chain`: decode one blob into each of
    ``outs`` in order (block ``k`` is blob ``k`` applied to block
    ``k - 1``, ``base`` first).  Raises :class:`WireFormatError` when
    the tail does not hold exactly ``len(outs)`` well-framed blobs."""
    pos = 0
    prev = base
    for out in outs:
        if pos + 4 > len(tail):
            raise WireFormatError(
                f"checkpoint tail truncated at byte {pos} of {len(tail)}")
        (length,) = struct.unpack_from("!I", tail, pos)
        pos += 4
        if pos + length > len(tail):
            raise WireFormatError(
                f"checkpoint blob overruns tail ({pos + length} > "
                f"{len(tail)})")
        out[...] = prev
        decode_update(tail[pos:pos + length], out)
        pos += length
        prev = out
    if pos != len(tail):
        raise WireFormatError(
            f"{len(tail) - pos} stray byte(s) after {len(outs)} "
            "checkpoint blob(s)")


def naive_update_bytes(rows: int, cols: int) -> int:
    """Bytes a naive protocol would ship: the full block as ``int32``."""
    return rows * cols * 4


# ---------------------------------------------------------------------------
# Byte accounting


@dataclass
class WireStats:
    """Wire-volume counters for one remote run (a σ run, a δ run or a
    whole grid).

    ``rounds`` counts protocol barriers (σ rounds, δ windows, fetches —
    every broadcast/collect cycle).  ``update_bytes`` is the
    delta-encoded size of state-update payloads in either direction;
    ``naive_bytes`` is what the same updates would cost as full-block
    ``int32`` transfers, so ``compression_ratio`` measures the codec.
    """

    bytes_sent: int = 0
    bytes_received: int = 0
    commands: int = 0
    rounds: int = 0
    update_bytes: int = 0
    naive_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received

    @property
    def bytes_per_round(self) -> float:
        return self.total_bytes / self.rounds if self.rounds else 0.0

    @property
    def commands_per_round(self) -> float:
        return self.commands / self.rounds if self.rounds else 0.0

    @property
    def compression_ratio(self) -> float:
        """How much smaller the delta encoding is than naive transfer."""
        return self.naive_bytes / self.update_bytes if self.update_bytes \
            else 0.0

    def copy(self) -> "WireStats":
        return WireStats(self.bytes_sent, self.bytes_received, self.commands,
                         self.rounds, self.update_bytes, self.naive_bytes)

    def as_dict(self) -> dict:
        return {
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "total_bytes": self.total_bytes,
            "commands": self.commands,
            "rounds": self.rounds,
            "bytes_per_round": round(self.bytes_per_round, 2),
            "commands_per_round": round(self.commands_per_round, 3),
            "update_bytes": self.update_bytes,
            "naive_bytes": self.naive_bytes,
            "compression_ratio": round(self.compression_ratio, 2),
        }
