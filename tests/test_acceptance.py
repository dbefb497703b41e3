"""Acceptance suite: one test per release criterion, tolerances pinned inline.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import json
import time

import numpy as np
import pytest

import chanspec as cs
from chanspec.cli import main
from chanspec.gauge import GaugeTransform

from conftest import bit_flip_kraus, depolarizing_kraus


def _report(number, text, elapsed, budget=None):
    """One PASS line with the criterion's elapsed time and, under a budget, the headroom left."""
    timing = f"{elapsed:.1f} s"
    if budget is not None:
        timing += f" of a {budget:.0f} s budget, {budget - elapsed:.1f} s left"
    print(f"\n[criterion {number}] PASS — {text} ({timing})")


@pytest.fixture(scope="module")
def rank4_pool():
    """10^4 Haar rank-4 qubit channels: spectrum values, translation, Bloch map."""
    pool = []
    for i in range(10_000):
        phi = cs.kraus_to_superoperator(cs.sample_cptp(2, 4, seed=i))
        tm = cs.superoperator_to_transfer(phi)
        sp = cs.spectrum(tm)
        pool.append((sp, tm))
    return pool


def test_criterion_1_soundness():
    """Zero refutations over 10^4 rank-4 and 10^4 unital CP channels in <= 60 s."""
    start = time.perf_counter()
    refutations = 0
    for i in range(10_000):
        phi = cs.kraus_to_superoperator(cs.sample_cptp(2, 4, seed=i))
        tm = cs.superoperator_to_transfer(phi)
        assert cs.is_completely_positive(phi).completely_positive
        sp = cs.spectrum(tm)
        k_sq = float(tm.translation @ tm.translation)
        bound = cs.k_norm_bound(sp)
        ok = (
            cs.theorem1(sp).margin >= -1e-9
            and cs.det_range_check(sp).margin >= -1e-9
            and k_sq <= bound + 1e-9
            and cs.z_feasibility(sp).feasible
        )
        refutations += not ok
    for i in range(10_000):
        tm = cs.sample_unital_qubit(seed=i)
        phi = cs.transfer_to_superoperator(tm)
        assert cs.is_completely_positive(phi, tol=1e-9).completely_positive
        sp = cs.spectrum(tm)
        bound = cs.k_norm_bound(sp)
        ok = (
            cs.theorem1(sp).margin >= -1e-9
            and cs.det_range_check(sp).margin >= -1e-9
            and 0.0 <= bound + 1e-9
            and cs.z_feasibility(sp).feasible
        )
        refutations += not ok
    elapsed = time.perf_counter() - start
    assert refutations == 0
    assert elapsed <= 60.0, f"soundness sweep took {elapsed:.1f} s"
    _report(1, "0 refutations over 2x10^4 CP channels", elapsed, budget=60.0)


def test_criterion_2_sign_table_equivalence():
    """Exact boolean agreement of the two FA forms over 10^5 random triples."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(100_000):
        eta = rng.uniform(-1.0, 1.0, size=3)
        direct = cs.fa_conditions(eta).satisfied
        s = np.sort(np.abs(eta))[::-1]
        via_singulars = cs.fa_singular(s, det_sign=np.sign(np.prod(eta))).satisfied
        assert direct == via_singulars, eta
    _report(2, "fa_conditions == fa_singular on 10^5 sign-table samples", time.perf_counter() - start)


def test_criterion_3_determinant_extremes(rank4_pool):
    """det T >= -1/27 - 1e-9 over the pool; the saturating channel is exact."""
    start = time.perf_counter()
    min_det = min(float(np.linalg.det(tm.bloch_map)) for _, tm in rank4_pool)
    assert min_det >= -1 / 27 - 1e-9
    exact = cs.det_saturating_transfer()
    assert np.linalg.det(exact.bloch_map) == -1.0 / 27.0
    report = cs.is_completely_positive(cs.det_saturating_channel())
    assert report.completely_positive
    assert abs(report.min_eigenvalue) <= 1e-10
    _report(
        3,
        f"min sampled det T = {min_det:.6f} >= -1/27; saturating channel exact",
        time.perf_counter() - start,
    )


def test_criterion_4_region_reproduction(tmp_path):
    """Region CSVs at x = +-0.4, grid 201: correct radii, boundary-band-only mismatches."""
    start = time.perf_counter()
    for x, radius in ((0.4, 0.7), (-0.4, 0.3)):
        out = tmp_path / f"region_{x}.csv"
        assert main(["region", "--x", str(x), "--grid", "201", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 201 * 201
        feasible_cells = 0
        for line in lines[1:]:
            re_s, im_s, disc, oracle = line.split(",")
            z = complex(float(re_s), float(im_s))
            inside = abs(z) <= radius + 1e-12
            assert disc == ("1" if inside else "0"), (x, z)
            feasible_cells += disc == "1"
            if oracle and (oracle == "1") != (disc == "1"):
                assert abs(abs(z) - radius) <= 2.0 / 201, (x, z, disc, oracle)
        expected_area = np.pi * radius**2 / 4.0 * 201 * 201
        assert feasible_cells == pytest.approx(expected_area, rel=0.05)
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0, f"region sweep took {elapsed:.1f} s"
    _report(4, "discs of radius 0.7 / 0.3 reproduced", elapsed, budget=30.0)


def test_criterion_5_synthesis_exactness():
    """10^4 mixtures and 10^4 normal channels: CPTP, spectra to 1e-9, normality 1e-12."""
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    done = 0
    while done < 10_000:
        x = rng.uniform(-1.0, 1.0)
        radius = rng.uniform(0.0, (1.0 + x) / 2.0)
        angle = rng.uniform(0.0, np.pi)
        z = radius * np.exp(1j * angle)
        if abs(z.imag) < 1e-12:
            continue
        phi = cs.synthesize_from_complex_pair(x, z)
        assert cs.is_completely_positive(phi, tol=1e-10).completely_positive
        target = np.array([1.0, x, z, np.conj(z)])
        assert cs.matched_spectral_distance(cs.spectrum(phi).values, target) <= 1e-9
        done += 1
    done = 0
    while done < 10_000:
        lam = rng.uniform(-1.0, 1.0, size=3)
        if not cs.real_tetrahedron(*lam).satisfied:
            continue
        phi = cs.xi_from_real_spectrum(*lam)
        m = phi.matrix
        assert np.max(np.abs(m @ m.conj().T - m.conj().T @ m)) <= 1e-12
        assert cs.is_completely_positive(phi, tol=1e-10).completely_positive
        target = np.array([1.0, *lam])
        assert cs.matched_spectral_distance(cs.spectrum(phi).values, target) <= 1e-9
        done += 1
    _report(5, "2x10^4 synthesized channels CPTP and spectrally exact", time.perf_counter() - start)


def test_criterion_6_gauge_invariance():
    """10^3 (gate set, gauge) pairs: probability and spectral deviations bounded."""
    start = time.perf_counter()
    worst_prob_scaled = 0.0
    worst_spectral = 0.0
    for seed in range(1_000):
        rng = np.random.default_rng(100_000 + seed)
        gates = [
            cs.kraus_to_superoperator(cs.sample_cptp(2, int(rng.integers(1, 5)), 7 * seed + g))
            for g in range(2)
        ]
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        effect = u @ np.diag(rng.uniform(0, 1, size=2)) @ u.conj().T
        gs = cs.gateset_from_density(gates, rho, effect)
        x = cs.random_gauge(2, rng.uniform(0.0, 0.5), seed=seed)
        report = cs.verify_orbit_invariance(gs, x, max_len=3)
        assert report.max_prob_deviation <= 1e-9 * max(1.0, x.condition_estimate), seed
        assert report.max_spectral_deviation <= 1e-8, seed
        worst_prob_scaled = max(
            worst_prob_scaled, report.max_prob_deviation / max(1.0, x.condition_estimate)
        )
        worst_spectral = max(worst_spectral, report.max_spectral_deviation)
    # negative control: breaking the first-row condition must be detected
    gates = [cs.kraus_to_superoperator(bit_flip_kraus(0.25))]
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = 1.0
    gs = cs.gateset_from_density(gates, rho, rho)
    x = cs.random_gauge(2, 0.3, seed=1)
    broken_matrix = np.array(x.matrix)
    broken_matrix[0, 1] += 0.05
    broken = GaugeTransform(dim=2, matrix=broken_matrix, condition_estimate=x.condition_estimate)
    assert cs.verify_orbit_invariance(gs, broken, max_len=3).max_prob_deviation > 1e-6
    _report(
        6,
        f"10^3 orbits invariant (worst scaled prob dev {worst_prob_scaled:.2e}, "
        f"worst spectral dev {worst_spectral:.2e}); broken gauge detected",
        time.perf_counter() - start,
    )


def test_criterion_7_metric_formulas():
    """Closed forms for the named channels; Monte Carlo within 3 sigma on 200 seeds."""
    start = time.perf_counter()
    bit_flip = bit_flip_kraus(0.25)
    phi_bf = cs.kraus_to_superoperator(bit_flip)
    assert cs.avg_gate_fidelity(phi_bf) == pytest.approx(5 / 6, abs=1e-12)
    depolarizing = depolarizing_kraus(0.5)
    phi_dep = cs.kraus_to_superoperator(depolarizing)
    tm_dep = cs.superoperator_to_transfer(phi_dep)
    assert cs.avg_gate_fidelity(phi_dep) == pytest.approx(0.75, abs=1e-12)
    u_dep = cs.unitarity_exact(tm_dep)
    assert u_dep == pytest.approx(0.25, abs=1e-12)
    r_dep = 1.0 - cs.avg_gate_fidelity(phi_dep)
    assert abs(u_dep - cs.unitarity_lower_from_r(r_dep, 2)) <= 1e-12

    u_bf = cs.unitarity_exact(cs.superoperator_to_transfer(phi_bf))
    expectations = [
        ("bit-flip fidelity", lambda s: cs.mc_avg_gate_fidelity(bit_flip, 100_000, s), 5 / 6),
        ("bit-flip unitarity", lambda s: cs.mc_unitarity(bit_flip, 100_000, s), u_bf),
        ("depolarizing fidelity", lambda s: cs.mc_avg_gate_fidelity(depolarizing, 100_000, s), 0.75),
        ("depolarizing unitarity", lambda s: cs.mc_unitarity(depolarizing, 100_000, s), 0.25),
    ]
    for name, runner, truth in expectations:
        failures = 0
        for seed in range(200):
            est = runner(seed)
            if abs(est.estimate - truth) > 3.0 * est.std_error + 1e-12:
                failures += 1
        assert failures <= 2, f"{name}: {failures} of 200 seeds outside 3 sigma"
    _report(7, "closed forms exact; MC within 3 sigma in >= 99% of 200 seeds", time.perf_counter() - start)


def test_criterion_8_bound_ordering(rank4_pool):
    """u >= both lower bounds, diamond lower <= upper, Wallman bound finite."""
    start = time.perf_counter()
    checked = 0
    pools = [rank4_pool]
    extra = []
    for d in (3, 4):
        for i in range(500):
            phi = cs.kraus_to_superoperator(cs.sample_cptp(d, 3, seed=40_000 + i))
            tm = cs.superoperator_to_transfer(phi)
            extra.append((cs.spectrum(tm), tm))
    pools.append(extra)
    for pool in pools:
        for sp, tm in pool:
            d = sp.dim
            u = cs.unitarity_exact(tm)
            r = max(1.0 - cs.avg_gate_fidelity_from_spectrum(sp), 0.0)
            assert u >= cs.unitarity_lower_from_r(r, d) - 1e-10
            assert u >= cs.unitarity_lower_from_spectrum(sp) - 1e-10
            lower, upper = cs.diamond_bounds_from_r(r, d)
            assert lower <= upper + 1e-12
            wallman = cs.diamond_lower_wallman(u, r, d)
            assert np.isfinite(wallman)
            checked += 1
    assert checked >= 10_000
    _report(8, f"bound ordering verified on {checked} channels, zero violations", time.perf_counter() - start)


def test_criterion_9_information_loss():
    """Two channels with identical spectra but superoperator distance >= 1e-3."""
    start = time.perf_counter()
    found = None
    for seed in range(200):
        phi = cs.kraus_to_superoperator(cs.sample_cptp(2, 4, seed))
        sp = cs.spectrum(phi)
        try:
            cls = cs.classify_qubit_spectrum(sp)
        except cs.ChanspecError:
            continue
        if not isinstance(cls, cs.ConjugatePair):
            continue
        mixture = cs.synthesize_from_complex_pair(cls.x, cls.z)
        spectral_distance = cs.matched_spectral_distance(cs.spectrum(mixture).values, sp.values)
        operator_distance = float(np.linalg.norm(mixture.matrix - phi.matrix))
        if spectral_distance <= 1e-9 and operator_distance >= 1e-3:
            found = (seed, spectral_distance, operator_distance)
            break
    assert found is not None
    seed, spectral_distance, operator_distance = found
    assert cs.is_completely_positive(
        cs.kraus_to_superoperator(cs.sample_cptp(2, 4, found[0]))
    ).completely_positive
    _report(
        9,
        f"seed {seed}: spectra match to {spectral_distance:.1e}, "
        f"superoperators differ by {operator_distance:.2e}",
        time.perf_counter() - start,
    )
