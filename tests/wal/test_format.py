"""Frame/segment encoding and the torn-vs-corrupt scanner verdicts."""

import struct
import zlib

import pytest

from repro.core.errors import WalCorrupt
from repro.wal.format import (
    HEADER_SIZE,
    decode_segment_header,
    encode_frame,
    encode_segment_header,
    parse_segment_name,
    scan_segment,
    segment_name,
)

#: ``encode_segment_header(0) + encode_frame(1, b"x")``, as written
#: when segments could also be framed with CRC-32C: the format is
#: byte-identical since.
GOLDEN_SEGMENT = bytes.fromhex(
    "5257414c00015a00000000000000000000000000d517bb91"
    "0000000aa58dca0e00000000000000010178")
#: ``encode_segment_header(0)`` as written with the retired CRC-32C.
RETIRED_CRC32C_HEADER = bytes.fromhex(
    "5257414c000143000000000000000000000000002b8be77f")


def segment(frames, base_lsn=0):
    return encode_segment_header(base_lsn) + b"".join(frames)


class TestNames:
    def test_round_trip(self):
        assert parse_segment_name(segment_name(17)) == 17

    @pytest.mark.parametrize("name", [
        "seg-003.wal", "ckpt-0.rckp", "seg-a-b.wal", "seg-1-2.log"])
    def test_non_segments_parse_to_none(self, name):
        assert parse_segment_name(name) is None


class TestHeader:
    def test_round_trip(self):
        assert decode_segment_header(encode_segment_header(99)) == 99

    def test_flipped_byte_is_refused(self):
        data = bytearray(encode_segment_header(99))
        data[9] ^= 0xFF
        with pytest.raises(WalCorrupt):
            decode_segment_header(bytes(data))

    def test_short_header_is_refused(self):
        with pytest.raises(WalCorrupt):
            decode_segment_header(b"RWAL")

    def test_the_retired_crc32c_id_is_refused_typed(self):
        # A header as written with CRC-32C (id 0x43) when that was
        # selectable: refused for its id, not for its checksum.
        with pytest.raises(WalCorrupt, match="algorithm id 0x43"):
            decode_segment_header(RETIRED_CRC32C_HEADER)


class TestScan:
    def test_clean_segment_yields_every_frame(self):
        frames = [encode_frame(lsn, f"op-{lsn}".encode())
                  for lsn in (1, 2, 5)]
        result = scan_segment(segment(frames))
        assert [f.lsn for f in result.frames] == [1, 2, 5]
        assert [f.payload for f in result.frames] == [
            b"op-1", b"op-2", b"op-5"]
        assert not result.torn

    def test_bytes_are_the_golden_segment(self):
        data = encode_segment_header(0) + encode_frame(1, b"x")
        assert data == GOLDEN_SEGMENT
        assert scan_segment(GOLDEN_SEGMENT).frames[0].payload == b"x"

    def test_partial_final_frame_is_a_torn_tail(self):
        frames = [encode_frame(1, b"first"),
                  encode_frame(2, b"second")]
        data = segment(frames)
        result = scan_segment(data[:-3])
        assert result.torn
        assert [f.lsn for f in result.frames] == [1]
        assert result.valid_end == HEADER_SIZE + len(frames[0])

    def test_every_cut_point_is_torn_never_corrupt(self):
        # A prefix cut anywhere inside the final frame must always read
        # as a torn tail: there is nothing valid after the damage.
        frames = [encode_frame(1, b"first"),
                  encode_frame(2, b"second")]
        data = segment(frames)
        start = HEADER_SIZE + len(frames[0])
        for cut in range(start + 1, len(data)):
            result = scan_segment(data[:cut])
            assert result.torn
            assert len(result.frames) == 1

    def test_interior_damage_before_live_data_is_corrupt(self):
        frames = [encode_frame(1, b"first"),
                  encode_frame(2, b"second"),
                  encode_frame(3, b"third")]
        data = bytearray(segment(frames))
        data[HEADER_SIZE + len(frames[0]) + 10] ^= 0xFF
        with pytest.raises(WalCorrupt) as excinfo:
            scan_segment(bytes(data))
        assert "possibly-acknowledged" in str(excinfo.value)

    def test_lsn_running_backwards_is_corrupt(self):
        frames = [encode_frame(5, b"first"),
                  encode_frame(3, b"second")]
        with pytest.raises(WalCorrupt) as excinfo:
            scan_segment(segment(frames))
        assert "not above predecessor" in str(excinfo.value)

    def test_wrong_shard_is_refused(self):
        head = struct.pack("!4sHBBIQ", b"RWAL", 1, 0x5A, 0, 1, 0)
        with pytest.raises(WalCorrupt, match="log 1"):
            scan_segment(head + struct.pack("!I", zlib.crc32(head)))
