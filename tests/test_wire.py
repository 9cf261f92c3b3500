import pytest
from hypothesis import given, strategies as st

from agectl.wire import (
    ACK_SIZE,
    UPDATE_HEADER_SIZE,
    AckPacket,
    BadMagic,
    LengthMismatch,
    OutOfRange,
    PayloadTooLarge,
    Truncated,
    UnsupportedVersion,
    UpdatePacket,
    WireError,
    decode_ack,
    decode_update,
    encode_ack,
    encode_update,
    update_bits,
)


def test_zero_update_is_bare_header():
    buf = encode_update(UpdatePacket(seq=0, gen_ts=0, payload=b""))
    assert len(buf) == 19
    assert buf[-2:] == b"\x00\x00"  # zero payload length field


def test_update_layout_offsets():
    buf = encode_update(UpdatePacket(seq=1, gen_ts=10**9, payload=bytes(1024)))
    assert len(buf) == 19 + 1024
    assert buf[4] == 1  # version byte
    assert buf[5:9] == (1).to_bytes(4, "big")
    assert buf[9:17] == (10**9).to_bytes(8, "big")
    assert buf[17:19] == (1024).to_bytes(2, "big")


def test_ack_layout():
    buf = encode_ack(AckPacket(seq=7, gen_ts=42))
    assert len(buf) == ACK_SIZE == 17
    assert decode_ack(buf) == AckPacket(seq=7, gen_ts=42)


@given(
    seq=st.integers(0, 2**32 - 1),
    gen_ts=st.integers(0, 2**64 - 1),
    payload=st.binary(max_size=2048),
)
def test_update_round_trip(seq, gen_ts, payload):
    pkt = UpdatePacket(seq=seq, gen_ts=gen_ts, payload=payload)
    buf = encode_update(pkt)
    assert len(buf) == UPDATE_HEADER_SIZE + len(payload)
    assert decode_update(buf) == pkt


@given(seq=st.integers(0, 2**32 - 1), gen_ts=st.integers(0, 2**64 - 1))
def test_ack_round_trip(seq, gen_ts):
    ack = AckPacket(seq=seq, gen_ts=gen_ts)
    buf = encode_ack(ack)
    assert decode_ack(buf) == ack
    assert encode_ack(decode_ack(buf)) == buf


def test_short_buffer_truncated():
    with pytest.raises(Truncated):
        decode_update(b"\x00" * 10)
    with pytest.raises(Truncated):
        decode_ack(b"\x00" * 16)


def test_bad_magic():
    buf = bytearray(encode_update(UpdatePacket(seq=0, gen_ts=0)))
    buf[0] ^= 0xFF
    with pytest.raises(BadMagic):
        decode_update(bytes(buf))
    ack = bytearray(encode_ack(AckPacket(seq=0, gen_ts=0)))
    ack[0] ^= 0xFF
    with pytest.raises(BadMagic):
        decode_ack(bytes(ack))


def test_version_mismatch():
    buf = bytearray(encode_update(UpdatePacket(seq=0, gen_ts=0)))
    buf[4] = 99
    with pytest.raises(UnsupportedVersion):
        decode_update(bytes(buf))


def test_payload_length_mismatch():
    buf = encode_update(UpdatePacket(seq=0, gen_ts=0, payload=b"abcd"))
    with pytest.raises(LengthMismatch):
        decode_update(buf + b"x")  # extra byte beyond the declared length
    with pytest.raises(LengthMismatch):
        decode_update(buf[:-1])  # declared length not fully present
    with pytest.raises(LengthMismatch):
        decode_ack(encode_ack(AckPacket(seq=0, gen_ts=0)) + b"x")


def test_oversize_payload_rejected():
    with pytest.raises(PayloadTooLarge):
        encode_update(UpdatePacket(seq=0, gen_ts=0, payload=bytes(65507 - 19 + 1)))


def test_ack_bytes_do_not_decode_as_update():
    with pytest.raises(Truncated):
        decode_update(encode_ack(AckPacket(seq=1, gen_ts=2)))


@pytest.mark.parametrize("seq, gen_ts", [(2**32, 0), (-1, 0), (0, 2**64), (0, -1)])
def test_fields_out_of_range_raise_a_wire_error(seq, gen_ts):
    for encode, pkt in ((encode_update, UpdatePacket(seq=seq, gen_ts=gen_ts)),
                        (encode_ack, AckPacket(seq=seq, gen_ts=gen_ts))):
        with pytest.raises(OutOfRange) as exc:
            encode(pkt)
        assert isinstance(exc.value, WireError)
    # the largest values still encode
    assert decode_ack(encode_ack(AckPacket(seq=2**32 - 1, gen_ts=2**64 - 1))).seq == 2**32 - 1


def test_update_bits_counts_header_and_payload():
    assert update_bits(1024) == 8 * (UPDATE_HEADER_SIZE + 1024) == 8344


def test_packets_are_immutable_values():
    pkt = UpdatePacket(seq=3, gen_ts=7, payload=b"secret")
    same = UpdatePacket(seq=3, gen_ts=7, payload=b"secret")
    assert pkt == same and len({pkt, same}) == 1
    assert len({AckPacket(3, 7), AckPacket(seq=3, gen_ts=7)}) == 1
    for packet in (pkt, AckPacket(3, 7)):
        with pytest.raises(AttributeError):
            packet.seq = 4
    assert repr(pkt) == "UpdatePacket(seq=3, gen_ts=7)"
    assert UpdatePacket(3, 7).payload == b"" and UpdatePacket(3, 7).payload_len == 0
    assert AckPacket(3, 7) != UpdatePacket(3, 7)
    assert UpdatePacket(3, 7) != AckPacket(3, 7)
