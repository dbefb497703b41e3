"""Output checks for the benchmark, computed apart from chanspec.

Every function here takes plain numbers and arrays (never chanspec objects)
and returns a list of problems; an empty list means the output passed.  The
reference values are recomputed from the inputs with numpy alone (Pauli
transfer matrices, Choi matrices, trace formulas, closed-form Monte Carlo
variances) or follow from a property any correct implementation must have.
"""

import math

import numpy as np

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# criterion 1 of the acceptance suite: margins may dip this far below zero
CRITERION_1_ATOL = 1e-9
# agreement of two exact identities evaluated in floating point
IDENTITY_ATOL = 1e-9
# a correct Monte Carlo mean lies this many standard deviations from its truth
# with probability below 1e-14 (normal approximation), so a miss is a fault
MC_BAND_SIGMAS = 8.0
MC_BAND_ATOL = 1e-9
DET_T_MIN_QUBIT = -1.0 / 27.0


# ----------------------------------------------------------------------------
# independent linear algebra


def pauli_transfer(kraus) -> np.ndarray:
    """4x4 real Pauli transfer matrix ``R_ij = Tr[s_i E(s_j)] / 2`` of a qubit Kraus set."""
    r = np.empty((4, 4))
    for j, sj in enumerate(PAULI):
        image = sum(k @ sj @ k.conj().T for k in kraus)
        for i, si in enumerate(PAULI):
            r[i, j] = 0.5 * np.trace(si @ image).real
    return r


def choi_from_kraus(kraus) -> np.ndarray:
    """``sum_n vec(K_n) vec(K_n)^dag``."""
    vecs = np.array([np.asarray(k, dtype=complex).reshape(-1) for k in kraus])
    return vecs.T @ vecs.conj()


def choi_from_transfer(r) -> np.ndarray:
    """``sum_ab |a><b| (x) E(|a><b|)`` of the qubit map with Pauli transfer matrix ``r``."""
    choi = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[a, b] = 1.0
            coeffs = [0.5 * np.trace(s @ unit) for s in PAULI]
            image = sum(r[i, j] * coeffs[j] * PAULI[i] for i in range(4) for j in range(4))
            choi[2 * a : 2 * a + 2, 2 * b : 2 * b + 2] = image
    return choi


def fidelity_from_trace(trace: float, d: int) -> float:
    """Average gate fidelity ``(Tr Phi + d) / (d (d + 1))`` of a trace-preserving map."""
    return (float(np.real(trace)) + d) / (d * (d + 1))


def fidelity_truth(kraus) -> float:
    """Average gate fidelity from a Kraus set, with ``Tr Phi = sum_n |Tr K_n|^2``."""
    return fidelity_from_trace(sum(abs(np.trace(k)) ** 2 for k in kraus), len(kraus[0]))


def _quadratic_form_variance(s: np.ndarray) -> float:
    """Variance of ``r^T S r`` for ``r`` uniform on the unit 2-sphere, ``S`` symmetric."""
    tr = float(np.trace(s))
    return (tr * tr + 2.0 * float(np.sum(s * s))) / 15.0 - tr * tr / 9.0


def fidelity_sigma(r: np.ndarray, n: int) -> float:
    """Standard deviation of the n-sample Monte Carlo fidelity mean.

    One sample is ``(1 + k.r + r^T T r) / 2`` for a Haar state with Bloch
    vector ``r``; the linear and quadratic terms are uncorrelated.
    """
    k, t = r[1:, 0], r[1:, 1:]
    var = 0.25 * (float(k @ k) / 3.0 + _quadratic_form_variance(0.5 * (t + t.T)))
    return math.sqrt(max(var, 0.0) / n)


def unitarity_truth(r: np.ndarray) -> float:
    """Unitarity ``||T||_F^2 / 3`` of a qubit channel (Wallman et al.)."""
    return float(np.sum(r[1:, 1:] ** 2)) / 3.0


def unitarity_sigma(r: np.ndarray, n: int) -> float:
    """Standard deviation of the n-sample Monte Carlo unitarity mean (sample ``|T r|^2``)."""
    t = r[1:, 1:]
    return math.sqrt(max(_quadratic_form_variance(t.T @ t), 0.0) / n)


# ----------------------------------------------------------------------------
# soundness


def soundness(rec: dict) -> list:
    """Checks of one criterion-1 pipeline pass over a channel that is CP by construction.

    ``rec`` holds the input channel (``kraus`` operators, or the Pauli
    transfer matrix ``transfer`` of a unital channel) and the program's
    outputs: ``cp`` and ``cp_tol`` of its Choi test, the eigenvalues
    ``values`` with ``unit_index``, the margins ``theorem1`` and
    ``det_range``, ``k_bound`` and ``z_feasible``.
    """
    problems = []
    if rec.get("kraus") is not None:
        r = pauli_transfer(rec["kraus"])
        choi = choi_from_kraus(rec["kraus"])
        trace_sum = sum(abs(np.trace(k)) ** 2 for k in rec["kraus"])
        k_sq = float(r[1:, 0] @ r[1:, 0])
    else:
        r = np.asarray(rec["transfer"], dtype=float)
        choi = choi_from_transfer(r)
        vec_id = np.eye(2).reshape(-1)
        trace_sum = float((vec_id @ choi @ vec_id).real)
        k_sq = 0.0
    own_cp = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0]) >= -rec["cp_tol"]
    if not own_cp:
        problems.append("input channel fails the benchmark's own Choi test")
    if bool(rec["cp"]) != own_cp:
        problems.append(f"is_completely_positive says {rec['cp']}, own Choi test says {own_cp}")
    if rec["theorem1"] < -CRITERION_1_ATOL:
        problems.append(f"theorem1 refutes a CP channel (margin {rec['theorem1']:.3e})")
    if rec["det_range"] < -CRITERION_1_ATOL:
        problems.append(f"det_range_check refutes a CP channel (margin {rec['det_range']:.3e})")
    if k_sq > rec["k_bound"] + CRITERION_1_ATOL:
        problems.append(f"k_norm_bound {rec['k_bound']:.6g} below |k|^2 = {k_sq:.6g}")
    if not rec["z_feasible"]:
        problems.append("z_feasibility refutes a CP channel")
    values = np.asarray(rec["values"], dtype=complex)
    if abs(complex(np.sum(values)) - trace_sum) > IDENTITY_ATOL:
        problems.append(f"eigenvalue sum {np.sum(values)} != sum |Tr K|^2 = {trace_sum:.12g}")
    product = complex(np.prod(np.delete(values, rec["unit_index"])))
    det_t = float(np.linalg.det(r[1:, 1:]))
    if abs(product - det_t) > IDENTITY_ATOL:
        problems.append(f"non-unit eigenvalue product {product} != det T = {det_t:.12g}")
    return problems


# ----------------------------------------------------------------------------
# population


def population(rc: int, report, n: int, d: int) -> list:
    """Checks of one ``chanspec sample`` report over ``n`` CPTP channels of dimension ``d``."""
    if rc != 0 or report is None:
        return [f"sample exited {rc} with report {report is not None}"]
    problems = []
    if report.get("n") != n or report.get("dim") != d:
        problems.append(f"report is for n={report.get('n')} d={report.get('dim')}")
    gap_total = sum(report["gap"]["histogram"])
    if gap_total != n:
        problems.append(f"gap histogram holds {gap_total} of {n} channels")
    det_min, det_max = report["det_T"]["min"], report["det_T"]["max"]
    lowest = DET_T_MIN_QUBIT if d == 2 else -1.0  # |det T| <= 1: spectrum in the unit disc
    if det_min < lowest - CRITERION_1_ATOL or det_max > 1.0 + CRITERION_1_ATOL:
        problems.append(f"det T range [{det_min:.6g}, {det_max:.6g}] outside [{lowest:.6g}, 1]")
    if d == 2:
        rates = report.get("criteria_pass_rates", {})
        if len(rates) != 3 or any(rate != 1.0 for rate in rates.values()):
            problems.append(f"qubit criteria pass rates {rates} are not all 1.0")
    return problems


# ----------------------------------------------------------------------------
# montecarlo


def montecarlo(estimate: float, std_error: float, truth: float, sigma: float) -> list:
    """Checks of one Monte Carlo estimate against its closed-form truth.

    ``sigma`` is the estimator's standard deviation, computed independently
    of the program's own ``std_error``.
    """
    problems = []
    if not std_error > 0.0:
        problems.append(f"std_error {std_error} is not positive")
    band = MC_BAND_SIGMAS * sigma + MC_BAND_ATOL
    if not abs(estimate - truth) <= band:
        problems.append(f"estimate {estimate:.8f} is {abs(estimate - truth):.3e} from truth {truth:.8f} (band {band:.3e})")
    return problems


# ----------------------------------------------------------------------------
# cli_tools


def analyze(rc: int, report, expect_rc: int, f_truth: float) -> list:
    """Exit code and average gate fidelity of one ``chanspec analyze`` report."""
    if rc != expect_rc or report is None:
        return [f"analyze exited {rc} with report {report is not None}, expected exit {expect_rc}"]
    f_avg = report["metrics"]["f_avg"]["value"]
    if abs(f_avg - f_truth) > IDENTITY_ATOL:
        return [f"f_avg {f_avg:.12g} != trace formula {f_truth:.12g}"]
    return []


def region(rc: int, lines, x: float, grid: int) -> list:
    """Checks of one ``chanspec region`` CSV, read as an iterable of lines.

    The disc column must equal the benchmark's own membership test
    ``|z| <= (1 + x) / 2`` on the lattice, and the Choi oracle may disagree
    with the disc only within ``2 / grid`` of its boundary.
    """
    if rc != 0:
        return [f"region exited {rc}"]
    axis = np.linspace(-1.0, 1.0, grid)
    radius = (1.0 + x) / 2.0
    problems = []
    count = 0
    disc_cells = own_cells = 0
    lines = iter(lines)
    if next(lines, "").strip() != "re_z,im_z,disc,oracle":
        problems.append("missing CSV header")
    for count, line in enumerate(lines, start=1):
        if count > grid * grid:
            continue
        fields = line.rstrip("\n").split(",")
        row, col = divmod(count - 1, grid)
        re_z, im_z = axis[col], axis[row]
        if len(fields) != 4 or float(fields[0]) != re_z or float(fields[1]) != im_z:
            problems.append(f"line {count} is not lattice point ({re_z}, {im_z}): {line.strip()}")
            continue
        inside = re_z * re_z + im_z * im_z <= radius * radius + 1e-9
        own_cells += inside
        disc_cells += fields[2] == "1"
        if fields[2] != ("1" if inside else "0"):
            problems.append(f"disc column {fields[2]} at ({re_z}, {im_z}) for radius {radius}")
        if fields[3] != ("1" if inside else ""):
            if abs(math.hypot(re_z, im_z) - radius) > 2.0 / grid:
                problems.append(f"oracle {fields[3]!r} at ({re_z}, {im_z}) far from the boundary")
    if count != grid * grid:
        problems.append(f"CSV has {count + 1} lines, expected {1 + grid * grid}")
    if disc_cells != own_cells:
        problems.append(f"{disc_cells} disc cells, own lattice count {own_cells}")
    return problems[:5]


def gauge(rc: int, report, broken: bool, n_gates: int, max_len: int) -> list:
    """Checks of one ``chanspec gauge`` report (``broken`` marks the negative control)."""
    report = report or {}
    if broken:
        if rc != 2 or report.get("invariant") is not False:
            return [f"broken gauge exited {rc} with invariant={report.get('invariant')}"]
        return []
    if rc != 0 or report.get("invariant") is not True:
        return [f"gauge exited {rc} with invariant={report.get('invariant')}"]
    expected = sum(n_gates**length for length in range(max_len + 1))
    if report.get("n_sequences") != expected:
        return [f"n_sequences {report.get('n_sequences')} != {expected}"]
    return []
