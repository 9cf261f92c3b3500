"""Wire format for status updates and their ACKs.

Both packet kinds ride in single UDP datagrams, big-endian, fixed header:

    update:  magic(4) | version(1) | seq(4) | gen_ts(8) | payload_len(2) | payload
    ack:     magic(4) | version(1) | seq(4) | gen_ts(8)

`gen_ts` is the sender-clock generation instant in nanoseconds. All
round-trip math happens on the sender's clock, so the two ends never need
synchronized clocks. An ACK echoes the acknowledged update's (seq, gen_ts)
verbatim.

Packets are namedtuples rather than dataclasses, so the live endpoints
load no `dataclasses`, nor the `inspect`, `ast` and `dis` it pulls in.
They are immutable, hashable and equal by value. Being tuples, a packet
also equals the plain tuple of its fields; an ACK never equals an update,
whose tuple is one field longer.
"""

import struct
from collections import namedtuple

UPDATE_MAGIC = b"AGEU"
ACK_MAGIC = b"AGEA"
VERSION = 1

_UPDATE_HEADER = struct.Struct(">4sBIQH")
_ACK_FORMAT = struct.Struct(">4sBIQ")

UPDATE_HEADER_SIZE = _UPDATE_HEADER.size  # 19
ACK_SIZE = _ACK_FORMAT.size  # 17

# UDP payload bound for IPv4: 65535 - 20 (IP) - 8 (UDP).
MAX_DATAGRAM = 65507
MAX_PAYLOAD = MAX_DATAGRAM - UPDATE_HEADER_SIZE

DEFAULT_PAYLOAD_BYTES = 1024


def update_bits(payload_bytes: int) -> int:
    """Size in bits of an update datagram carrying `payload_bytes` of payload."""
    if payload_bytes < 0:
        raise ValueError(f"payload_bytes must be >= 0, got {payload_bytes}")
    return 8 * (UPDATE_HEADER_SIZE + payload_bytes)


class WireError(Exception):
    """Base class for encode/decode failures."""


class Truncated(WireError):
    """Buffer shorter than the fixed header."""


class BadMagic(WireError):
    """Leading tag is not the expected magic."""


class UnsupportedVersion(WireError):
    """Version byte does not match this implementation."""


class LengthMismatch(WireError):
    """Declared payload length disagrees with the buffer size."""


class PayloadTooLarge(WireError):
    """Payload would not fit in a single datagram."""


class OutOfRange(WireError):
    """seq (32 bits) or gen_ts (64 bits) does not fit its header field."""


class UpdatePacket(namedtuple("UpdatePacket", "seq gen_ts payload", defaults=(b"",))):
    """A status update: monotone sequence number plus generation timestamp.

    `gen_ts` is assigned once, at the generation instant, and never reused;
    `seq` strictly increases within a source session. `repr` leaves out
    the payload.
    """

    __slots__ = ()

    @property
    def payload_len(self) -> int:
        return len(self.payload)

    def __repr__(self):
        return f"UpdatePacket(seq={self.seq!r}, gen_ts={self.gen_ts!r})"


class AckPacket(namedtuple("AckPacket", "seq gen_ts")):
    """Acknowledgment echoing one update's (seq, gen_ts) pair."""

    __slots__ = ()


def encode_update(pkt: UpdatePacket) -> bytes:
    if pkt.payload_len > MAX_PAYLOAD:
        raise PayloadTooLarge(
            f"payload of {pkt.payload_len} bytes exceeds {MAX_PAYLOAD}"
        )
    try:
        header = _UPDATE_HEADER.pack(UPDATE_MAGIC, VERSION, pkt.seq, pkt.gen_ts, pkt.payload_len)
    except struct.error:
        raise OutOfRange(f"seq {pkt.seq} or gen_ts {pkt.gen_ts} out of range") from None
    return header + pkt.payload


def decode_update(buf: bytes) -> UpdatePacket:
    if len(buf) < UPDATE_HEADER_SIZE:
        raise Truncated(f"{len(buf)} bytes, need at least {UPDATE_HEADER_SIZE}")
    magic, version, seq, gen_ts, payload_len = _UPDATE_HEADER.unpack_from(buf)
    if magic != UPDATE_MAGIC:
        raise BadMagic(repr(magic))
    if version != VERSION:
        raise UnsupportedVersion(f"version {version}, expected {VERSION}")
    if len(buf) != UPDATE_HEADER_SIZE + payload_len:
        raise LengthMismatch(
            f"declared {payload_len} payload bytes, buffer holds "
            f"{len(buf) - UPDATE_HEADER_SIZE}"
        )
    return UpdatePacket(seq=seq, gen_ts=gen_ts, payload=bytes(buf[UPDATE_HEADER_SIZE:]))


def encode_ack(ack: AckPacket) -> bytes:
    try:
        return _ACK_FORMAT.pack(ACK_MAGIC, VERSION, ack.seq, ack.gen_ts)
    except struct.error:
        raise OutOfRange(f"seq {ack.seq} or gen_ts {ack.gen_ts} out of range") from None


def decode_ack(buf: bytes) -> AckPacket:
    if len(buf) < ACK_SIZE:
        raise Truncated(f"{len(buf)} bytes, need {ACK_SIZE}")
    magic, version, seq, gen_ts = _ACK_FORMAT.unpack_from(buf)
    if magic != ACK_MAGIC:
        raise BadMagic(repr(magic))
    if version != VERSION:
        raise UnsupportedVersion(f"version {version}, expected {VERSION}")
    if len(buf) != ACK_SIZE:
        raise LengthMismatch(f"ack must be exactly {ACK_SIZE} bytes, got {len(buf)}")
    return AckPacket(seq=seq, gen_ts=gen_ts)
