"""Codec layer tests: both codecs move any IEEE-754 payload bit-exactly.

The contract under test (PR 10): a codec is pure marshalling.  Whatever
float64 pattern goes in — NaN payloads, infinities, negative zero — the
identical bits come out, on both the ``json+b64`` and ``binary`` codecs,
and the two codecs decode each other's semantic content identically.
Server-side policy (finite coordinates only) lives in
``require_finite_coords``, *not* in the codecs, so these property tests
and the servers' rejection tests do not fight.
"""

import base64
import json
import struct

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ReproError
from repro.registry import CODECS, register_codec
from repro.serving.codecs import (
    BinaryCodec,
    Codec,
    JsonB64Codec,
    codec_names,
    decode_b64_array,
    encode_b64_array,
    require_finite_coords,
    resolve_codec,
)

CODEC_INSTANCES = [JsonB64Codec(), BinaryCodec()]


def _weird_floats(rng, n=257):
    """Coordinates exercising every awkward IEEE-754 corner."""
    values = rng.uniform(-1e6, 1e6, size=n)
    values[:8] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-308, 1.7976931348623157e308, -5e-324]
    return values


class TestRoundTrips:
    @pytest.mark.parametrize("codec", CODEC_INSTANCES, ids=lambda c: c.name)
    def test_request_roundtrip_is_bit_exact_including_nan_inf(self, codec):
        rng = np.random.default_rng(3)
        xs, ys = _weird_floats(rng), _weird_floats(rng)
        decoded = codec.decode_request(
            codec.encode_request("la", xs, ys, strict=True, version=7)
        )
        # tobytes comparison: NaN != NaN, so semantic equality must be
        # checked at the bit level.
        assert decoded.xs.tobytes() == xs.tobytes()
        assert decoded.ys.tobytes() == ys.tobytes()
        assert decoded.deployment == "la"
        assert decoded.strict is True
        assert decoded.version == 7

    @pytest.mark.parametrize("codec", CODEC_INSTANCES, ids=lambda c: c.name)
    @pytest.mark.parametrize("strict", [None, True, False])
    @pytest.mark.parametrize("version", [None, 1, 2**40, "latest"])
    def test_strict_and_version_survive(self, codec, strict, version):
        xs = np.array([0.5]); ys = np.array([0.25])
        decoded = codec.decode_request(
            codec.encode_request("d", xs, ys, strict=strict, version=version)
        )
        assert decoded.strict is strict
        assert decoded.version == version or (version is None and decoded.version is None)

    @pytest.mark.parametrize("codec", CODEC_INSTANCES, ids=lambda c: c.name)
    def test_response_roundtrip_keeps_off_map_sentinels(self, codec):
        regions = np.array([0, -1, 5, -1, 2**40], dtype=np.int64)
        version, decoded = codec.decode_response(
            codec.encode_response("la", 3, regions)
        )
        assert version == 3
        assert decoded.dtype == np.dtype("<i8")
        assert np.array_equal(decoded, regions)

    @pytest.mark.parametrize("codec", CODEC_INSTANCES, ids=lambda c: c.name)
    def test_empty_batch_roundtrip(self, codec):
        empty = np.empty(0, dtype=float)
        decoded = codec.decode_request(codec.encode_request("d", empty, empty))
        assert decoded.xs.size == 0 and decoded.ys.size == 0
        version, regions = codec.decode_response(
            codec.encode_response("d", 1, np.empty(0, dtype=np.int64))
        )
        assert version == 1 and regions.size == 0

    def test_codecs_agree_with_each_other(self):
        """Same request through either codec decodes to the same content."""
        rng = np.random.default_rng(9)
        xs, ys = _weird_floats(rng), _weird_floats(rng)
        a = JsonB64Codec().decode_request(
            JsonB64Codec().encode_request("la", xs, ys, strict=False, version=2)
        )
        b = BinaryCodec().decode_request(
            BinaryCodec().encode_request("la", xs, ys, strict=False, version=2)
        )
        assert a.xs.tobytes() == b.xs.tobytes()
        assert a.ys.tobytes() == b.ys.tobytes()
        assert (a.deployment, a.strict, a.version) == (b.deployment, b.strict, b.version)


class TestJsonB64WireCompat:
    """The json+b64 codec IS the PR 5/6 HTTP dense format, byte for byte."""

    def test_request_bytes_match_the_historical_hand_assembled_body(self):
        xs = np.array([0.1, 0.2, np.nan])
        ys = np.array([1.5, -2.5, np.inf])
        body = JsonB64Codec().encode_request("la", xs, ys, strict=True, version=4)
        expected = (
            '{"deployment":"la"'
            + ',"xs_b64":"' + base64.b64encode(xs.astype("<f8").tobytes()).decode()
            + '","ys_b64":"' + base64.b64encode(ys.astype("<f8").tobytes()).decode()
            + '","strict":true,"version":4}'
        ).encode()
        assert body == expected

    def test_response_bytes_match_the_historical_server_body(self):
        regions = np.array([1, -1, 3], dtype=np.int64)
        body = JsonB64Codec().encode_response("la", 2, regions)
        expected = (
            '{"deployment":"la","version":2,"kind":"locate","regions_b64":"'
            + base64.b64encode(regions.astype("<i8").tobytes()).decode()
            + '","n":3}'
        ).encode()
        assert body == expected

    def test_request_body_is_valid_json_with_exact_field_set(self):
        data = json.loads(JsonB64Codec().encode_request(
            "d", np.array([1.0]), np.array([2.0])
        ))
        assert set(data) == {"deployment", "xs_b64", "ys_b64"}

    def test_decode_rejects_unknown_fields_and_mixed_forms(self):
        with pytest.raises(ConfigurationError, match="unknown locate field"):
            JsonB64Codec.decode_request_fields(
                {"deployment": "d", "xs_b64": "", "ys_b64": "", "xs": [1.0]}
            )

    def test_decode_rejects_unpaired_coordinates(self):
        xs = encode_b64_array(np.array([1.0, 2.0]), "<f8")
        ys = encode_b64_array(np.array([1.0]), "<f8")
        with pytest.raises(ConfigurationError, match="paired"):
            JsonB64Codec.decode_request_fields(
                {"deployment": "d", "xs_b64": xs, "ys_b64": ys}
            )


class TestBinaryFraming:
    def test_truncated_prefix_is_a_typed_error(self):
        codec = BinaryCodec()
        with pytest.raises(ConfigurationError, match="shorter"):
            codec.decode_request(b"\x01\x02")
        with pytest.raises(ConfigurationError, match="shorter"):
            codec.decode_response(b"\x01")

    def test_truncated_payload_is_a_typed_error(self):
        codec = BinaryCodec()
        request = codec.encode_request("la", np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        with pytest.raises(ConfigurationError, match="declares"):
            codec.decode_request(request[:-1])
        response = codec.encode_response("la", 1, np.array([1, 2], dtype=np.int64))
        with pytest.raises(ConfigurationError, match="declares"):
            codec.decode_response(response[:-1])

    def test_oversized_payload_is_a_typed_error(self):
        codec = BinaryCodec()
        request = codec.encode_request("la", np.array([1.0]), np.array([2.0]))
        with pytest.raises(ConfigurationError, match="declares"):
            codec.decode_request(request + b"\x00" * 8)

    def test_zero_copy_views_over_the_payload(self):
        """Decoded coordinate arrays are views over the request bytes —
        the no-copy contract the wire hot path is built on."""
        codec = BinaryCodec()
        xs = np.arange(64, dtype=float)
        payload = codec.encode_request("la", xs, xs)
        decoded = codec.decode_request(payload)
        assert decoded.xs.base is not None  # frombuffer view, not a copy
        assert not decoded.xs.flags.writeable


class TestRegistry:
    def test_canonical_names_and_aliases_resolve(self):
        assert resolve_codec("json+b64").name == "json+b64"
        assert resolve_codec("json").name == "json+b64"
        assert resolve_codec("dense").name == "json+b64"
        assert resolve_codec("binary").name == "binary"
        assert resolve_codec("bin").name == "binary"
        assert resolve_codec("raw").name == "binary"

    def test_codec_instances_pass_through(self):
        codec = BinaryCodec()
        assert resolve_codec(codec) is codec

    def test_unknown_codec_fails_with_suggestion(self):
        with pytest.raises(ReproError, match="did you mean 'binary'"):
            resolve_codec("binnary")

    def test_codec_names_lists_both_builtins_in_order(self):
        names = codec_names()
        assert names[:2] == ["json+b64", "binary"]

    def test_register_codec_extends_the_registry(self):
        @register_codec("test-null", summary="test-only")
        class NullCodec(Codec):
            name = "test-null"

        try:
            assert resolve_codec("test-null").name == "test-null"
            assert "test-null" in codec_names()
        finally:
            del CODECS._entries["test-null"]  # test-only cleanup


class TestFiniteGate:
    def test_non_finite_coordinates_are_rejected_server_side(self):
        codec = BinaryCodec()
        decoded = codec.decode_request(
            codec.encode_request("d", np.array([np.nan]), np.array([1.0]))
        )
        with pytest.raises(ConfigurationError, match="finite"):
            require_finite_coords(decoded)

    def test_finite_coordinates_pass(self):
        codec = BinaryCodec()
        decoded = codec.decode_request(
            codec.encode_request("d", np.array([1.0]), np.array([2.0]))
        )
        require_finite_coords(decoded)  # no raise


class TestB64Helpers:
    def test_helpers_live_here_and_roundtrip(self):
        values = np.array([1.5, np.nan, -np.inf])
        decoded = decode_b64_array(encode_b64_array(values, "<f8"), "<f8", "xs_b64")
        assert decoded.tobytes() == values.astype("<f8").tobytes()


class TestDenseDecodeValidation:
    """Malformed dense locate requests fail as typed configuration errors."""

    @staticmethod
    def _fields(**overrides):
        one = encode_b64_array(np.array([0.5]), "<f8")
        return {"deployment": "d", "xs_b64": one, "ys_b64": one, **overrides}

    def test_b64_field_must_be_a_string(self):
        with pytest.raises(ConfigurationError, match="base64 string"):
            decode_b64_array([0.5], "<f8", "xs_b64")

    def test_b64_field_must_hold_whole_items(self):
        text = base64.b64encode(b"\x00" * 12).decode("ascii")
        with pytest.raises(ConfigurationError, match="not a multiple"):
            decode_b64_array(text, "<f8", "xs_b64")

    def test_empty_deployment_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            JsonB64Codec.decode_request_fields(self._fields(deployment=""))

    def test_non_bool_strict_rejected(self):
        with pytest.raises(ConfigurationError, match="strict"):
            JsonB64Codec.decode_request_fields(self._fields(strict="yes"))

    def test_wrong_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="expected 'locate'"):
            JsonB64Codec.decode_request_fields(self._fields(kind="range"))

    @pytest.mark.parametrize("payload", [b"{not json", b"\xff", b"[1, 2]"])
    def test_payload_must_be_a_json_object(self, payload):
        with pytest.raises(ConfigurationError, match="payload"):
            JsonB64Codec().decode_request(payload)

    def test_binary_name_longer_than_its_field_rejected(self):
        with pytest.raises(ConfigurationError, match="65535-byte"):
            BinaryCodec().encode_request("d" * 0x10000, np.array([0.5]), np.array([0.5]))

    def test_binary_non_bool_strict_rejected(self):
        with pytest.raises(ConfigurationError, match="strict"):
            BinaryCodec().encode_request("d", np.array([0.5]), np.array([0.5]), strict="yes")

    def test_binary_unpaired_coordinates_rejected(self):
        with pytest.raises(ConfigurationError, match="paired"):
            BinaryCodec().encode_request("d", np.array([0.5, 0.6]), np.array([0.5]))

    def test_binary_name_must_be_utf8(self):
        payload = bytearray(BinaryCodec().encode_request("dd", np.array([0.5]), np.array([0.5])))
        name_at = payload.index(b"dd")
        payload[name_at:name_at + 2] = b"\xff\xfe"
        with pytest.raises(ConfigurationError, match="not UTF-8"):
            BinaryCodec().decode_request(bytes(payload))

    def test_binary_negative_version_code_rejected(self):
        payload = BinaryCodec().encode_request("d", np.array([0.5]), np.array([0.5]))
        name_len, strict_code, _, n = struct.unpack_from("<HBqI", payload)
        forged = struct.pack("<HBqI", name_len, strict_code, -2, n) + payload[15:]
        with pytest.raises(ConfigurationError, match="version code -2"):
            BinaryCodec().decode_request(forged)
