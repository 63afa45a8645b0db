"""Frame/segment encoding and the torn-vs-corrupt scanner verdicts."""

import struct

import pytest

from repro.core.errors import WalCorrupt
from repro.wal.checksum import ALGORITHMS, algorithm_id, checksum_fn
from repro.wal.format import (
    HEADER_SIZE,
    decode_segment_header,
    encode_frame,
    encode_segment_header,
    parse_segment_name,
    scan_segment,
    segment_name,
)

ALG = algorithm_id("crc32")


def segment(frames, base_lsn=0):
    return encode_segment_header(base_lsn, "crc32") + b"".join(frames)


class TestNames:
    def test_round_trip(self):
        assert parse_segment_name(segment_name(17)) == 17

    @pytest.mark.parametrize("name", [
        "seg-003.wal", "ckpt-0.rckp", "seg-a-b.wal", "seg-1-2.log"])
    def test_non_segments_parse_to_none(self, name):
        assert parse_segment_name(name) is None


class TestHeader:
    def test_round_trip(self):
        header = decode_segment_header(encode_segment_header(99, "crc32"))
        assert header.base_lsn == 99

    def test_flipped_byte_is_refused(self):
        data = bytearray(encode_segment_header(99, "crc32"))
        data[9] ^= 0xFF
        with pytest.raises(WalCorrupt):
            decode_segment_header(bytes(data))

    def test_short_header_is_refused(self):
        with pytest.raises(WalCorrupt):
            decode_segment_header(b"RWAL")


class TestScan:
    def test_clean_segment_yields_every_frame(self):
        frames = [encode_frame(lsn, f"op-{lsn}".encode(), ALG)
                  for lsn in (1, 2, 5)]
        result = scan_segment(segment(frames))
        assert [f.lsn for f in result.frames] == [1, 2, 5]
        assert [f.payload for f in result.frames] == [
            b"op-1", b"op-2", b"op-5"]
        assert not result.torn

    @pytest.mark.parametrize(
        "algorithm", sorted(name for name, _ in ALGORITHMS.values()))
    def test_every_checksum_algorithm_round_trips(self, algorithm):
        alg = algorithm_id(algorithm)
        data = (encode_segment_header(0, algorithm)
                + encode_frame(1, b"payload", alg))
        result = scan_segment(data)
        assert result.frames[0].payload == b"payload"

    def test_partial_final_frame_is_a_torn_tail(self):
        frames = [encode_frame(1, b"first", ALG),
                  encode_frame(2, b"second", ALG)]
        data = segment(frames)
        result = scan_segment(data[:-3])
        assert result.torn
        assert [f.lsn for f in result.frames] == [1]
        assert result.valid_end == HEADER_SIZE + len(frames[0])

    def test_every_cut_point_is_torn_never_corrupt(self):
        # A prefix cut anywhere inside the final frame must always read
        # as a torn tail: there is nothing valid after the damage.
        frames = [encode_frame(1, b"first", ALG),
                  encode_frame(2, b"second", ALG)]
        data = segment(frames)
        start = HEADER_SIZE + len(frames[0])
        for cut in range(start + 1, len(data)):
            result = scan_segment(data[:cut])
            assert result.torn
            assert len(result.frames) == 1

    def test_interior_damage_before_live_data_is_corrupt(self):
        frames = [encode_frame(1, b"first", ALG),
                  encode_frame(2, b"second", ALG),
                  encode_frame(3, b"third", ALG)]
        data = bytearray(segment(frames))
        data[HEADER_SIZE + len(frames[0]) + 10] ^= 0xFF
        with pytest.raises(WalCorrupt) as excinfo:
            scan_segment(bytes(data))
        assert "possibly-acknowledged" in str(excinfo.value)

    def test_lsn_running_backwards_is_corrupt(self):
        frames = [encode_frame(5, b"first", ALG),
                  encode_frame(3, b"second", ALG)]
        with pytest.raises(WalCorrupt) as excinfo:
            scan_segment(segment(frames))
        assert "not above predecessor" in str(excinfo.value)

    def test_wrong_shard_is_refused(self):
        head = struct.pack("!4sHBBIQ", b"RWAL", 1, ALG, 0, 1, 0)
        with pytest.raises(WalCorrupt, match="log 1"):
            scan_segment(head + struct.pack("!I", checksum_fn(ALG)(head)))
