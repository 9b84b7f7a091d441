"""Tests for the typed serving protocol (requests/results + JSON round-trips)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.serving import LATEST, LocateRequest, QueryResult, RangeRequest
from repro.spatial.geometry import BoundingBox


class TestLocateRequest:
    def test_coordinates_stored_as_read_only_float64_copies(self):
        caller_xs = np.array([1.0, 2.0])
        request = LocateRequest(deployment="la", xs=caller_xs, ys=(3, 4.5))
        for stored, values in ((request.xs, [1.0, 2.0]), (request.ys, [3.0, 4.5])):
            assert isinstance(stored, np.ndarray)
            assert stored.dtype == np.float64 and stored.ndim == 1
            assert not stored.flags.writeable
            assert stored.tolist() == values
        with pytest.raises(ValueError):
            request.xs[0] = 9.0
        # Copied once on construction: the caller's array stays its own.
        assert not np.shares_memory(request.xs, caller_xs)
        caller_xs[0] = 9.0
        assert request.xs.tolist() == [1.0, 2.0]
        assert len(request) == 2

    def test_integer_and_big_endian_inputs_become_native_float64(self):
        request = LocateRequest(
            deployment="la", xs=np.array([1, 2], dtype=np.int32),
            ys=np.array([0.5, 0.25], dtype=">f8"),
        )
        assert request.xs.dtype == np.float64 and request.xs.dtype.isnative
        assert request.ys.dtype == np.float64 and request.ys.dtype.isnative
        assert request.xs.tolist() == [1.0, 2.0]
        assert request.ys.tolist() == [0.5, 0.25]

    def test_equality_compares_every_field_by_value(self):
        base = dict(deployment="la", xs=(0.25, 0.5), ys=(0.75, 1.0))
        request = LocateRequest(**base)
        assert request == LocateRequest(**{**base, "xs": np.array([0.25, 0.5])})
        assert request == LocateRequest(**{**base, "xs": [0.25, 0.5]})
        for change in (
            {"deployment": "sf"},
            {"xs": (0.25, 0.5000001)},
            {"ys": (0.75,), "xs": (0.25,)},
            {"strict": True},
            {"version": 1},
            {"version": LATEST},
        ):
            assert request != LocateRequest(**{**base, **change}), change
        assert request != (("la",), (0.25, 0.5), (0.75, 1.0))

    def test_hash_agrees_with_equality(self):
        positive = LocateRequest(deployment="la", xs=(0.0, 1.0), ys=(0.0, 2.0))
        negative = LocateRequest(deployment="la", xs=(-0.0, 1.0), ys=(-0.0, 2.0))
        assert np.signbit(negative.xs[0]) and not np.signbit(positive.xs[0])
        assert positive == negative
        assert hash(positive) == hash(negative)
        same = LocateRequest(deployment="la", xs=[0.0, 1.0], ys=np.array([0.0, 2.0]))
        assert hash(same) == hash(positive)
        assert len({positive, negative, same}) == 1
        assert LocateRequest(deployment="la", xs=(), ys=()) in {
            LocateRequest(deployment="la", xs=[], ys=[])
        }
        # The caller's -0.0 is kept: hashing does not rewrite the request.
        assert np.signbit(negative.xs[0])

    def test_json_round_trip_is_bit_exact(self):
        xs = (0.1, -0.0, 5e-324, np.nextafter(1.0, 2.0), -1e300)
        ys = (1.0 / 3.0, 2.0 ** -1074, 0.0, -2.5, 1e-300)
        request = LocateRequest(deployment="la", xs=xs, ys=ys, strict=False, version=4)
        assert request.to_json() == (
            '{"deployment": "la", "kind": "locate", "strict": false, "version": 4, '
            '"xs": [0.1, -0.0, 5e-324, 1.0000000000000002, -1e+300], '
            '"ys": [0.3333333333333333, 5e-324, 0.0, -2.5, 1e-300]}'
        )
        restored = LocateRequest.from_json(request.to_json())
        assert restored == request
        assert restored.xs.tobytes() == request.xs.tobytes()
        assert restored.ys.tobytes() == request.ys.tobytes()
        data = request.to_dict()
        assert all(type(value) is float for value in data["xs"] + data["ys"])

    def test_overlarge_integer_coordinates_rejected_typed(self):
        # A JSON int beyond float64 range must fail as ConfigurationError,
        # not leak numpy's OverflowError through the transport as a 500.
        with pytest.raises(ConfigurationError, match="numeric"):
            LocateRequest(deployment="la", xs=(10**400,), ys=(0.5,))

    def test_json_round_trip(self):
        request = LocateRequest(
            deployment="la", xs=(0.25, 0.5), ys=(0.75, 1.0), strict=True, version=3
        )
        assert LocateRequest.from_json(request.to_json()) == request

    def test_none_fields_omitted_from_dict(self):
        data = LocateRequest(deployment="la", xs=(0.0,), ys=(0.0,)).to_dict()
        assert "strict" not in data
        assert "version" not in data
        assert data["kind"] == "locate"

    def test_latest_version_alias_accepted(self):
        request = LocateRequest(deployment="la", xs=(0.0,), ys=(0.0,), version=LATEST)
        assert LocateRequest.from_json(request.to_json()).version == LATEST

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError, match="paired"):
            LocateRequest(deployment="la", xs=(0.0, 1.0), ys=(0.0,))

    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(ConfigurationError, match="finite"):
            LocateRequest(deployment="la", xs=(float("nan"),), ys=(0.0,))

    def test_non_numeric_coordinates_rejected(self):
        with pytest.raises(ConfigurationError, match="numeric"):
            LocateRequest(deployment="la", xs=("abc",), ys=(0.0,))
        with pytest.raises(ConfigurationError, match="numeric"):
            LocateRequest.from_json(
                '{"kind": "locate", "deployment": "la", "xs": ["abc"], "ys": [0.5]}'
            )

    def test_nested_coordinates_rejected(self):
        with pytest.raises(ConfigurationError, match="flat sequences"):
            LocateRequest(deployment="la", xs=((0.0, 1.0),), ys=((0.0, 1.0),))

    def test_non_bool_strict_rejected(self):
        with pytest.raises(ConfigurationError, match="strict"):
            LocateRequest(deployment="la", xs=(0.0,), ys=(0.0,), strict="yes")

    def test_string_coordinates_rejected_not_iterated(self):
        with pytest.raises(ConfigurationError, match="not strings"):
            LocateRequest(deployment="la", xs="123", ys=(1.0, 2.0, 3.0))

    def test_empty_deployment_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            LocateRequest(deployment="", xs=(0.0,), ys=(0.0,))

    def test_bad_version_rejected(self):
        for version in (0, -2, "newest", True):
            with pytest.raises(ConfigurationError, match="version"):
                LocateRequest(deployment="la", xs=(0.0,), ys=(0.0,), version=version)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            LocateRequest.from_dict(
                {"deployment": "la", "xs": [0.0], "ys": [0.0], "timeout": 5}
            )

    def test_wrong_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            LocateRequest.from_dict(
                {"kind": "range", "deployment": "la", "xs": [0.0], "ys": [0.0]}
            )

    def test_missing_required_field_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            LocateRequest.from_dict({"deployment": "la"})


class TestRangeRequest:
    def test_json_round_trip(self):
        request = RangeRequest(
            deployment="la", min_x=0.0, min_y=0.1, max_x=0.5, max_y=0.6, version=2
        )
        assert RangeRequest.from_json(request.to_json()) == request

    def test_bounds_property(self):
        request = RangeRequest(deployment="la", min_x=0.0, min_y=0.1, max_x=0.5, max_y=0.6)
        assert request.bounds == BoundingBox(0.0, 0.1, 0.5, 0.6)

    def test_inverted_box_rejected(self):
        with pytest.raises(ConfigurationError, match="inverted"):
            RangeRequest(deployment="la", min_x=1.0, min_y=0.0, max_x=0.0, max_y=1.0)

    def test_degenerate_box_allowed(self):
        request = RangeRequest(deployment="la", min_x=0.5, min_y=0.5, max_x=0.5, max_y=0.5)
        assert request.bounds.width == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigurationError, match="finite"):
            RangeRequest(
                deployment="la", min_x=0.0, min_y=0.0, max_x=float("inf"), max_y=1.0
            )

    def test_non_numeric_rejected(self):
        with pytest.raises(ConfigurationError, match="numeric"):
            RangeRequest(deployment="la", min_x="a", min_y=0.0, max_x=1.0, max_y=1.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            RangeRequest.from_dict({"deployment": "la", "box": [0, 0, 1, 1]})


def int64_forms():
    """``{name: (array, list)}``: 1-D int64 arrays the way readers and
    codecs hand them over, each with its values as a list."""
    ids = np.array([7, -1, 0, 2**62, -(2**63), 3, 3, -1], dtype=np.int64)
    read_only = ids.copy()
    read_only.flags.writeable = False
    wire = np.frombuffer(ids.tobytes(), dtype="<i8")  # a codec's view
    return {
        "contiguous": (ids, ids.tolist()),
        "strided": (ids[::3], ids[::3].tolist()),
        "reversed": (ids[::-1], ids[::-1].tolist()),
        "read_only": (read_only, ids.tolist()),
        "frombuffer": (wire, ids.tolist()),
        "empty": (np.empty(0, dtype=np.int64), []),
    }


class TestQueryResult:
    def test_json_round_trip(self):
        result = QueryResult(deployment="la", version=2, kind="locate", regions=(3, -1, 0))
        assert QueryResult.from_json(result.to_json()) == result

    def test_regions_canonicalised_to_int_tuple(self):
        import numpy as np

        result = QueryResult(
            deployment="la", version=1, kind="range", regions=np.array([1, 2])
        )
        assert result.regions == (1, 2)
        assert all(isinstance(region, int) for region in result.regions)

    def test_overlarge_region_ids_rejected_typed(self):
        # json.loads parses arbitrarily large ints; the int64 cast must
        # fail as ConfigurationError, not a bare OverflowError (HTTP 500)
        # — and the uint64 range (2**63..2**64-1), which numpy would wrap
        # to negative ids, must be rejected rather than corrupted.
        for overlarge in (2**70, 2**63):
            with pytest.raises(ConfigurationError, match="regions"):
                QueryResult(
                    deployment="la", version=1, kind="locate",
                    regions=(1, overlarge),
                )

    def test_non_finite_regions_rejected(self):
        # json.loads admits NaN/Infinity literals, and the vectorised
        # float->int cast would otherwise fold them to INT64_MIN silently.
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError, match="regions"):
                QueryResult(
                    deployment="la", version=1, kind="locate", regions=(1, bad)
                )

    @pytest.mark.parametrize("form", sorted(int64_forms()))
    def test_int64_array_equals_its_list_form(self, form):
        array, listed = int64_forms()[form]
        from_array = QueryResult(deployment="la", version=3, kind="locate", regions=array)
        from_list = QueryResult(deployment="la", version=3, kind="locate", regions=listed)
        assert type(from_array.regions) is tuple
        assert all(type(region) is int for region in from_array.regions)
        assert from_array.regions == tuple(listed)
        assert from_array == from_list
        assert hash(from_array) == hash(from_list)
        assert from_array.to_dict() == from_list.to_dict()
        assert from_array.to_json() == from_list.to_json()

    @pytest.mark.parametrize(
        "regions",
        [
            np.arange(6, dtype=np.int64).reshape(2, 3),
            np.array([1, 2**63], dtype=np.uint64),
            np.array([1.0, np.nan]),
            np.array([1.0, np.inf]),
        ],
        ids=["two_d_int64", "uint64_above_int64", "nan", "inf"],
    )
    def test_arrays_off_the_fast_path_are_still_checked(self, regions):
        with pytest.raises(ConfigurationError, match="regions"):
            QueryResult(deployment="la", version=1, kind="locate", regions=regions)

    @pytest.mark.parametrize(
        "regions",
        [
            np.array([4, -1], dtype=np.int32),
            np.array([4, 0], dtype=np.uint64),
            np.array([4.0, -1.0]),
            np.array([4, -1], dtype=">i8"),
        ],
        ids=["int32", "uint64", "float", "big_endian_int64"],
    )
    def test_other_integral_arrays_keep_their_values(self, regions):
        result = QueryResult(deployment="la", version=1, kind="locate", regions=regions)
        assert result.regions == tuple(int(region) for region in regions)
        assert all(type(region) is int for region in result.regions)

    def test_len_counts_every_entry(self):
        result = QueryResult(deployment="la", version=1, kind="locate", regions=(3, -1, 0))
        assert len(result) == 3

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            QueryResult(deployment="la", version=1, kind="knn", regions=())

    def test_bad_version_rejected(self):
        with pytest.raises(ConfigurationError, match="version"):
            QueryResult(deployment="la", version=0, kind="locate", regions=())

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            QueryResult.from_dict(
                {"deployment": "la", "version": 1, "kind": "locate",
                 "regions": [], "elapsed": 0.1}
            )


class TestShardRequests:
    def test_swap_json_round_trip(self):
        from repro.serving import ShardSwapRequest

        request = ShardSwapRequest(
            deployment="la", row=0, col=1, artifact="/data/v2"
        )
        assert request.to_dict()["kind"] == "swap-shard"
        assert ShardSwapRequest.from_json(request.to_json()) == request

    def test_rollback_json_round_trip(self):
        from repro.serving import ShardRollbackRequest

        request = ShardRollbackRequest(deployment="la", row=2, col=0)
        assert request.to_dict()["kind"] == "rollback-shard"
        assert ShardRollbackRequest.from_json(request.to_json()) == request

    def test_bad_shard_coords_rejected(self):
        from repro.serving import ShardRollbackRequest, ShardSwapRequest

        for bad in (-1, 1.5, "0", True, None):
            with pytest.raises(ConfigurationError, match="non-negative integer"):
                ShardSwapRequest(deployment="la", row=bad, col=0, artifact="/b")
            with pytest.raises(ConfigurationError, match="non-negative integer"):
                ShardRollbackRequest(deployment="la", row=0, col=bad)

    def test_empty_artifact_rejected(self):
        from repro.serving import ShardSwapRequest

        with pytest.raises(ConfigurationError, match="non-empty bundle path"):
            ShardSwapRequest(deployment="la", row=0, col=0, artifact="")

    def test_unknown_key_and_wrong_kind_rejected(self):
        from repro.serving import ShardRollbackRequest, ShardSwapRequest

        with pytest.raises(ConfigurationError, match="unknown"):
            ShardSwapRequest.from_dict(
                {"deployment": "la", "row": 0, "col": 0, "artifact": "/b",
                 "force": True}
            )
        with pytest.raises(ConfigurationError, match="kind"):
            ShardRollbackRequest.from_dict(
                {"kind": "swap-shard", "deployment": "la", "row": 0, "col": 0}
            )


class TestEnvelope:
    """The PR 10 versioned envelope: one wrapper, four ops, zero wire drift."""

    def _requests(self):
        from repro.serving import ShardRollbackRequest, ShardSwapRequest

        return [
            LocateRequest(deployment="la", xs=(0.25,), ys=(0.5,), strict=True,
                          version=2),
            RangeRequest(deployment="la", min_x=0.0, min_y=0.0, max_x=1.0,
                         max_y=1.0),
            ShardSwapRequest(deployment="la", row=1, col=2, artifact="/b"),
            ShardRollbackRequest(deployment="la", row=0, col=0),
        ]

    def test_wrap_covers_all_four_request_types(self):
        from repro.serving import Envelope

        ops = [Envelope.wrap(request).op for request in self._requests()]
        assert ops == ["locate", "range", "swap-shard", "rollback-shard"]

    def test_envelope_json_is_byte_identical_to_legacy_request_json(self):
        # The compatibility invariant: at the current protocol version an
        # envelope serialises to exactly the bare request dict, so old
        # servers cannot tell the difference.
        from repro.serving import Envelope

        for request in self._requests():
            assert Envelope.wrap(request).to_json() == request.to_json()

    def test_parse_round_trips_and_dispatches_by_kind(self):
        from repro.serving import Envelope

        for request in self._requests():
            envelope = Envelope.parse(request.to_dict())
            assert envelope.payload == request
            assert envelope.version == 1

    def test_explicit_current_version_accepted(self):
        from repro.serving import PROTOCOL_VERSION, Envelope

        data = dict(LocateRequest(deployment="la", xs=(0.0,), ys=(0.0,)).to_dict())
        data["v"] = PROTOCOL_VERSION
        assert Envelope.parse(data).op == "locate"

    def test_future_version_fails_typed(self):
        from repro.serving import Envelope

        data = dict(LocateRequest(deployment="la", xs=(0.0,), ys=(0.0,)).to_dict())
        data["v"] = 99
        with pytest.raises(ConfigurationError, match="protocol version 99"):
            Envelope.parse(data)

    def test_malformed_version_and_kind_fail_typed(self):
        from repro.serving import Envelope

        base = LocateRequest(deployment="la", xs=(0.0,), ys=(0.0,)).to_dict()
        with pytest.raises(ConfigurationError, match="positive integer"):
            Envelope.parse({**base, "v": "1"})
        with pytest.raises(ConfigurationError, match="kind"):
            Envelope.parse({"kind": "ingest", "deployment": "la"})
        with pytest.raises(ConfigurationError, match="mapping"):
            Envelope.parse([1, 2, 3])

    def test_wrap_rejects_foreign_objects(self):
        from repro.serving import Envelope

        with pytest.raises(ConfigurationError, match="Envelope.wrap"):
            Envelope.wrap({"kind": "locate"})

    def test_mismatched_payload_type_rejected(self):
        from repro.serving import Envelope

        request = LocateRequest(deployment="la", xs=(0.0,), ys=(0.0,))
        with pytest.raises(ConfigurationError, match="requires a RangeRequest"):
            Envelope(op="range", payload=request)

    def test_unknown_op_rejected(self):
        from repro.serving import Envelope

        request = LocateRequest(deployment="la", xs=(0.0,), ys=(0.0,))
        with pytest.raises(ConfigurationError, match="Envelope.op"):
            Envelope(op="ingest", payload=request)

    @pytest.mark.parametrize("version", [0, True, "1"])
    def test_constructed_with_malformed_version_rejected(self, version):
        from repro.serving import Envelope

        request = LocateRequest(deployment="la", xs=(0.0,), ys=(0.0,))
        with pytest.raises(ConfigurationError, match="positive integer"):
            Envelope(op="locate", payload=request, version=version)

    def test_constructed_with_future_version_rejected(self):
        from repro.serving import PROTOCOL_VERSION, Envelope

        request = LocateRequest(deployment="la", xs=(0.0,), ys=(0.0,))
        with pytest.raises(ConfigurationError, match="not supported"):
            Envelope(op="locate", payload=request, version=PROTOCOL_VERSION + 1)

    def test_from_dict_is_parse(self):
        from repro.serving import Envelope

        for request in self._requests():
            assert Envelope.from_dict(request.to_dict()) == Envelope.parse(request.to_dict())
