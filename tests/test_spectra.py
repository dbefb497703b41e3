import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chanspec as cs
from chanspec.exceptions import MalformedSpectrumError, UnsupportedDimensionError

from conftest import bit_flip_kraus


class TestSpectrum:
    def test_identity(self):
        sp = cs.spectrum(cs.Superoperator.from_matrix(np.eye(4)))
        np.testing.assert_allclose(sp.values, np.ones(4), atol=1e-14)
        assert sp.gap == 0.0
        assert not sp.flagged

    def test_bit_flip_values_read_off_diagonal(self):
        phi = cs.kraus_to_superoperator(bit_flip_kraus(0.25))
        sp = cs.spectrum(phi)
        np.testing.assert_allclose(
            sorted(sp.values.real), [0.5, 0.5, 1.0, 1.0], atol=1e-12
        )
        np.testing.assert_allclose(sp.values.imag, 0, atol=1e-12)
        assert sp.gap < 1e-12  # the second unit eigenvalue keeps the gap at zero

    def test_mixture_spectrum_closed_form(self):
        phi = cs.mixture_channel(0.5, 0.4, np.pi / 3)
        sp = cs.spectrum(phi)
        expected = np.array(
            [1.0, 0.4, 0.5 * np.exp(1j * np.pi / 3), 0.5 * np.exp(-1j * np.pi / 3)]
        )
        assert cs.matched_spectral_distance(sp.values, expected) < 1e-10

    def test_flagged_when_no_unit_eigenvalue(self):
        sp = cs.build_spectrum([0.5, 0.2, 0.1, 0.0], 2)
        assert sp.flagged

    def test_peripheral_count(self):
        # a unitary channel has its whole spectrum on the unit circle; the
        # phase unitary is therefore not primitive
        assert cs.spectrum(cs.phase_unitary_channel(0.9)).peripheral_count() == 4
        assert cs.build_spectrum([1.0, 0.3, 0.2, 0.1], 2).peripheral_count() == 1
        assert cs.build_spectrum([1.0, -1.0, 0.2, 0.1], 2).peripheral_count() == 2

    def test_unit_disk_and_conjugation_closure(self, qubit_pool):
        for _, phi, _ in qubit_pool[:100]:
            sp = cs.spectrum(phi)
            assert np.max(np.abs(sp.values)) <= 1 + 1e-9
            assert abs(sp.values[sp.unit_index] - 1) <= 1e-9
            cs.spectra.check_conjugation_closed(sp.values)  # the spectrum of a real block form


class TestClassification:
    def test_all_real(self):
        sp = cs.build_spectrum([1.0, 0.5, 0.5, 0.5], 2)
        cls = cs.classify_qubit_spectrum(sp)
        assert isinstance(cls, cs.AllReal)
        assert cls.values == (0.5, 0.5, 0.5)

    def test_conjugate_pair(self):
        z = 0.5 * np.exp(1j * np.pi / 3)
        sp = cs.build_spectrum([1.0, 0.4, z, np.conj(z)], 2)
        cls = cs.classify_qubit_spectrum(sp)
        assert isinstance(cls, cs.ConjugatePair)
        assert cls.x == pytest.approx(0.4)
        assert cls.z == pytest.approx(z)
        assert cls.z.imag > 0

    def test_det_saturating_class(self):
        sp = cs.spectrum(cs.det_saturating_channel())
        cls = cs.classify_qubit_spectrum(sp)
        assert isinstance(cls, cs.AllReal)
        np.testing.assert_allclose(cls.values, [-1 / 3] * 3, atol=1e-12)

    def test_malformed_spectrum_rejected(self):
        sp = cs.build_spectrum([1.0, 0.5 + 0.2j, 0.5 + 0.2j, 0.1], 2)
        with pytest.raises(MalformedSpectrumError):
            cs.classify_qubit_spectrum(sp)

    def test_wrong_dimension_rejected(self):
        sp = cs.build_spectrum(np.ones(9), 3)
        with pytest.raises(UnsupportedDimensionError):
            cs.classify_qubit_spectrum(sp)


class TestTriples:
    def test_eta_triple_array(self):
        np.testing.assert_allclose(
            cs.EtaTriple(0.1, -0.2, 0.3).as_array(), [0.1, -0.2, 0.3]
        )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=6,
    )
)
def test_real_matrix_spectra_are_conjugation_closed(values):
    # build a real matrix whose eigenvalues include the closure of `values`
    closed = []
    for v in values:
        if abs(v.imag) < 1e-12:
            closed.append([complex(v.real)])
        else:
            closed.append([v, np.conj(v)])
    flat = [v for pair in closed for v in pair]
    cs.spectra.check_conjugation_closed(flat)


def test_matched_spectral_distance_is_the_bottleneck():
    # values drawn from a small lattice, so sets repeat values and distances tie
    rng = np.random.default_rng(20261020)
    lattice = np.array([complex(re, im) for re in (-0.5, 0, 0.5, 1) for im in (-0.5, 0, 0.5)])
    for _ in range(300):
        n = int(rng.integers(1, 7))
        a, b = (rng.choice(lattice, n) + rng.choice([0, 1e-9], n) for _ in range(2))
        cost = np.abs(a[:, None] - b[None, :])
        perms = np.array(list(itertools.permutations(range(n))))
        brute = cost[np.arange(n), perms].max(axis=1).min()
        assert cs.matched_spectral_distance(a, b) == brute
    # every pair ties: a depth-first augmenting search would nest 1,099 calls deep
    assert cs.matched_spectral_distance(np.zeros(1100), np.zeros(1100)) == 0.0
