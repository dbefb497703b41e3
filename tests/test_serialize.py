import json

import numpy as np
import pytest

import chanspec as cs
from chanspec import serialize
from chanspec.exceptions import MalformedSpectrumError, StructuralError

from conftest import amplitude_damping_kraus


class TestChannelRoundTrips:
    def test_kraus(self):
        ks = amplitude_damping_kraus(0.3)
        payload = serialize.channel_to_dict(ks)
        assert payload["format"] == "kraus"
        back = serialize.channel_from_dict(json.loads(json.dumps(payload)))
        for a, b in zip(ks.operators, back.operators):
            np.testing.assert_array_equal(a, b)

    def test_superoperator(self):
        phi = cs.kraus_to_superoperator(cs.sample_cptp(2, 3, seed=0))
        payload = serialize.channel_to_dict(phi)
        back = serialize.channel_from_dict(payload)
        np.testing.assert_array_equal(phi.matrix, back.matrix)

    def test_transfer(self):
        tm = cs.superoperator_to_transfer(
            cs.kraus_to_superoperator(cs.sample_cptp(2, 3, seed=1))
        )
        payload = serialize.channel_to_dict(tm)
        assert set(payload["data"]) == {"k", "T"}
        back = serialize.channel_from_dict(payload)
        np.testing.assert_array_equal(tm.translation, back.translation)
        np.testing.assert_array_equal(tm.bloch_map, back.bloch_map)

    def test_dim_mismatch_rejected(self):
        payload = serialize.channel_to_dict(cs.Superoperator.from_matrix(np.eye(4)))
        payload["dim"] = 3
        with pytest.raises(StructuralError):
            serialize.channel_from_dict(payload)

    def test_unknown_format_rejected(self):
        with pytest.raises(StructuralError):
            serialize.channel_from_dict({"dim": 2, "format": "chi", "data": []})


class TestSpectrumPayload:
    def test_round_trip(self):
        sp = cs.build_spectrum([1.0, 0.3 + 0.1j, 0.3 - 0.1j, -0.2], 2)
        payload = serialize.spectrum_to_dict(sp)
        back = serialize.spectrum_from_dict(payload)
        np.testing.assert_array_equal(sp.values, back.values)
        assert back.dim == 2

    def test_bad_length_rejected(self):
        with pytest.raises(StructuralError):
            serialize.spectrum_from_dict({"spectrum": [[1.0, 0.0]] * 3})

    def test_closure_is_an_exact_matching(self):
        # taking nearest free partners in turn pairs indices 5 and 7, which leaves 6
        # only 8, 1.7e-8 away; the matching 5-8, 6-7 stays within 1e-8
        values = [1, 0.5, 0.4, 0.3, 0.2, 0.13933137520170036 - 0.4220219287445409j,
                  0.13933138741446965 - 0.42202193504316493j,
                  0.13933138006658785 + 0.42202193325800386j,
                  0.13933137017386366 + 0.42202193478433253j]
        pairs = [[complex(v).real, complex(v).imag] for v in values]
        assert serialize.spectrum_from_dict({"spectrum": pairs}).dim == 3
        pairs[-1] = [0.13933137017386366, 0.43]
        with pytest.raises(MalformedSpectrumError):
            serialize.spectrum_from_dict({"spectrum": pairs})


class TestDeterministicDumps:
    def test_seventeen_digit_floats_round_trip(self):
        values = [1 / 3, np.pi, 1e-17, -0.0, 5.0, 2**-52]
        text = serialize.dumps({"values": values})
        parsed = json.loads(text)
        assert parsed["values"] == values

    def test_byte_identical(self):
        payload = serialize.channel_to_dict(
            cs.kraus_to_superoperator(cs.sample_cptp(2, 4, seed=3))
        )
        assert serialize.dumps(payload) == serialize.dumps(payload)

    def test_nested_structures(self):
        obj = {"a": [1, 2.5, True, None, "s"], "b": {"c": []}}
        parsed = json.loads(serialize.dumps(obj))
        assert parsed == obj

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            serialize.dumps({"x": float("inf")})
