"""Coincidence simulation, density reconstruction, metrics, serialization."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from topospec import tomography
from topospec.fields import GridSpec
from topospec.spectrum import compute_spectrum
from topospec.states import inject_subspace, make_state, sample_perturbation
from topospec.tomography import (GRAD_TOL, BiphotonDensity,
                                 CoincidenceMatrix, _chi_square,
                                 _chi_square_gradient, _factored_inversion,
                                 _joint_amplitudes, _sqrtm_psd, check_epsilon,
                                 concurrence, density_from_json,
                                 density_to_json,
                                 epsilon_from_crosstalk, fidelity,
                                 load_density, metrics, projection_count,
                                 projection_set, purity,
                                 read_coincidences_csv, reconstruct,
                                 save_density, simulate_coincidences,
                                 spectrum_from_density,
                                 write_coincidences_csv)

import sources

# the frozen spectra's script, for its mixed density
_spec = importlib.util.spec_from_file_location(
    "freeze_spectra",
    Path(__file__).resolve().parent.parent / "scripts" / "freeze_spectra.py")
freeze = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(freeze)

st_d = st.integers(2, 4)


def _haar_state(d, rng):
    c = rng.normal(size=d) + 1j * rng.normal(size=d)
    return make_state(tuple(range(-(d // 2), d - d // 2)), c)


def _pure_density(state):
    vec = np.asarray(state.amps, dtype=complex).reshape(-1)
    return np.outer(vec, vec.conj())


def _kron_settings(pset):
    # reference joint projectors: column m*K + n of V is kron(p_m, p_n)
    P, K = pset.projectors, pset.K
    V = np.empty((pset.d ** 2, K * K), dtype=complex)
    for m in range(K):
        for n in range(K):
            V[:, m * K + n] = np.kron(P[m], P[n])
    return V


@given(st_d)
def test_projection_count_formula(d):
    pset = projection_set(d, tuple(range(d)))
    assert pset.K == projection_count(d) == 4 * d * (d - 1) // 2 + d
    assert_allclose(np.linalg.norm(pset.projectors, axis=1), 1.0, atol=1e-12)


def test_projection_set_labels():
    pset = projection_set(2, (-1, 1))
    assert pset.labels[0] == "b-1" and pset.labels[1] == "b1"
    assert pset.labels[2].startswith("p-1_1_t")
    with pytest.raises(ValueError):
        projection_set(2, (1, 1))


def test_noiseless_counts_are_deterministic():
    state = make_state((-1, 0, 1), np.ones(3))
    pset = projection_set(3, state.l)
    a = simulate_coincidences(state, pset, noise=None)
    b = simulate_coincidences(state, pset, noise="none")
    assert_allclose(a.counts, b.counts, atol=1e-12)
    assert a.counts.shape == (pset.K, pset.K)
    assert np.all(a.counts >= 0)


def test_poisson_noise_uses_seeded_rng():
    state = make_state((0, 1), [1, 1])
    pset = projection_set(2, state.l)
    a = simulate_coincidences(state, pset, noise="poisson",
                              rng=np.random.default_rng(3))
    b = simulate_coincidences(state, pset, noise="poisson",
                              rng=np.random.default_rng(3))
    c = simulate_coincidences(state, pset, noise="poisson",
                              rng=np.random.default_rng(4))
    assert_allclose(a.counts, b.counts)
    assert np.any(a.counts != c.counts)


def test_crosstalk_populates_forbidden_settings():
    state = make_state((-1, 0, 1), np.ones(3))
    pset = projection_set(3, state.l)
    clean = simulate_coincidences(state, pset, noise=None)
    leaky = simulate_coincidences(state, pset, noise="crosstalk",
                                  rng=np.random.default_rng(1))
    assert epsilon_from_crosstalk(clean, pset) == 0.0
    assert epsilon_from_crosstalk(leaky, pset) > 0.0


def test_settings_must_carry_the_projection_set_labels_in_order():
    # the fit and the crosstalk estimate index settings by position, so
    # permuted settings (labels moved with their rows and columns) and
    # another subspace's settings are refused, not fit to the wrong projectors
    state = make_state((-1, 0, 1), np.ones(3))
    pset = projection_set(3, state.l)
    C = simulate_coincidences(state, pset, noise=None)
    order = np.random.default_rng(0).permutation(pset.K)
    permuted = CoincidenceMatrix(C.counts[np.ix_(order, order)],
                                 tuple(C.labels[k] for k in order))
    other = projection_set(3, (-2, 0, 2))
    for counts, target in ((permuted, pset), (C, other)):
        with pytest.raises(ValueError, match="labels"):
            reconstruct(counts, target)
        with pytest.raises(ValueError, match="labels"):
            epsilon_from_crosstalk(counts, target)


@pytest.mark.parametrize("d, census_d", [(4, 2), (3, 4)],
                         ids=["state-larger", "state-smaller"])
def test_a_state_of_another_size_than_the_census_is_rejected(d, census_d):
    state = make_state(range(d), np.ones(d))
    pset = projection_set(census_d, tuple(range(census_d)))
    with pytest.raises(ValueError,
                       match="state size does not match the census"):
        simulate_coincidences(state, pset)


def test_unknown_noise_name_is_rejected():
    state = make_state((0, 1), [1, 1])
    pset = projection_set(2, state.l)
    with pytest.raises(ValueError, match="unknown noise model"):
        simulate_coincidences(state, pset, noise="gaussian")


def test_an_empty_noise_name_is_rejected():
    # only None means no noise
    state = make_state((0, 1), [1, 1])
    pset = projection_set(2, state.l)
    with pytest.raises(ValueError, match=r"^unknown noise model: ''$"):
        simulate_coincidences(state, pset, noise="")


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_joint_amplitudes_equal_the_kron_loop(d):
    # the fit's forward pass: each row of G against every joint projector
    rng = np.random.default_rng(30 + d)
    pset = projection_set(d, tuple(range(d)))
    G = rng.normal(size=(3, d * d)) + 1j * rng.normal(size=(3, d * d))
    X = _joint_amplitudes(pset.projectors, G)
    assert X.shape == (3, pset.K, pset.K)
    assert_allclose(X.reshape(3, -1), G @ _kron_settings(pset),
                    rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_noiseless_counts_read_the_settings_matrix(d):
    # simulation reads the joint projectors kron(p_m, p_n), the columns of V
    rng = np.random.default_rng(40 + d)
    pset = projection_set(d, tuple(range(d)))
    V = _kron_settings(pset)
    total = 1e4
    for _ in range(3):
        state = _haar_state(d, rng)
        psi = np.asarray(state.amps, dtype=complex).reshape(-1)
        want = total * np.abs(np.einsum("ik,i->k", V.conj(), psi)) ** 2
        got = simulate_coincidences(state, pset, total_counts=total).counts
        assert_allclose(got.reshape(-1), want, rtol=1e-12, atol=0)

        rho = sources.source("mixed", range(d), rng).rho
        want = total * np.einsum("ik,ij,jk->k", V.conj(), rho, V).real
        got = simulate_coincidences(BiphotonDensity(rho), pset,
                                    total_counts=total).counts
        assert_allclose(got.reshape(-1), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_factored_inversion_equals_lstsq_on_the_dense_design(d):
    # the design row of setting (m, n) is conj(v_mn) x v_mn over rho's entries
    rng = np.random.default_rng(50 + d)
    pset = projection_set(d, tuple(range(d)))
    V = _kron_settings(pset)
    design = np.einsum("ai,bi->iab", V.conj(), V).reshape(pset.K ** 2, d ** 4)
    noisy = simulate_coincidences(_haar_state(d, rng), pset, noise="poisson",
                                  rng=rng).counts
    mixed = sources.source("mixed", range(d), rng)
    exact = simulate_coincidences(BiphotonDensity(mixed.rho), pset).counts
    for counts in (noisy, exact):
        y = counts.reshape(-1) / counts.sum()
        want, *_ = np.linalg.lstsq(design, y.astype(complex), rcond=None)
        got = _factored_inversion(pset.projectors, y)
        assert_allclose(got, want.reshape(d * d, d * d), rtol=0, atol=1e-12)


def test_coincidence_matrix_validation():
    labels = ["a", "b"]
    with pytest.raises(ValueError):
        CoincidenceMatrix(np.array([[1.0, -2.0], [0.0, 1.0]]), labels)
    with pytest.raises(ValueError):
        CoincidenceMatrix(np.ones((3, 3)), labels)


def test_coincidence_matrix_rejects_non_square_counts():
    with pytest.raises(ValueError, match="^counts must be a square matrix$"):
        CoincidenceMatrix(np.ones((2, 3)), ("a", "b"))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_coincidence_matrix_rejects_a_non_finite_count(bad):
    counts = np.ones((2, 2))
    counts[1, 0] = bad
    with pytest.raises(ValueError, match=rf"counts must be finite, got {bad} "
                                         r"at setting \(b, a\)"):
        CoincidenceMatrix(counts, ("a", "b"))


def test_reading_a_nan_count_names_it(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("setting,a,b\na,1,2\nb,3,nan\n")
    with pytest.raises(ValueError, match=r"got nan at setting \(b, b\)"):
        read_coincidences_csv(path)


@pytest.mark.parametrize("l, c", [((-1, 0, 1), (1, 1, 1)),
                                  ((-2, -1, 1, 0), (1, 1, 1, 1)),
                                  ((-3, -1, 0, 2, 5), (1, 2, 1, 3, 1))])
def test_square_root_of_a_pure_density_is_the_density(l, c):
    # the rounding residue of its zero eigenvalues (about 1e-17) is zeroed,
    # not rooted to about 1e-9, so simulation from a pure density keeps
    # the state route's exact zeros
    rho = _pure_density(make_state(l, c))
    assert_allclose(_sqrtm_psd(rho), rho, rtol=0, atol=1e-14)


def test_density_route_equals_pure_route():
    state = make_state((-1, 0, 1), np.ones(3))
    pset = projection_set(3, state.l)
    rho = _pure_density(state)
    a = simulate_coincidences(state, pset, noise=None)
    b = simulate_coincidences(BiphotonDensity(rho), pset, noise=None)
    assert_allclose(b.counts, a.counts, atol=1e-8)


def test_a_raw_density_array_simulates_like_its_biphoton_density():
    pure = _pure_density(make_state((-1, 0, 1), [1, 2, 3]))
    rho = 0.9 * pure + 0.1 * np.eye(9) / 9
    pset = projection_set(3, (-1, 0, 1))
    raw = simulate_coincidences(rho, pset)
    wrapped = simulate_coincidences(BiphotonDensity(rho), pset)
    assert np.array_equal(raw.counts, wrapped.counts)
    with pytest.raises(ValueError,
                       match="^density matrix size does not match the census$"):
        simulate_coincidences(np.eye(4) / 4, pset)


def test_check_epsilon_rejects_none():
    with pytest.raises(ValueError, match="^epsilon must be finite and "
                                         "nonnegative, got None$"):
        check_epsilon(None)


def test_a_dark_basis_diagonal_gives_a_zero_epsilon():
    pset = projection_set(2, (0, 1))
    counts = np.ones((pset.K, pset.K))
    counts[0, 0] = counts[1, 1] = 0.0
    C = CoincidenceMatrix(counts, pset.labels)
    assert epsilon_from_crosstalk(C, pset) == 0.0


def test_reconstruct_rejects_all_zero_counts():
    pset = projection_set(2, (0, 1))
    C = CoincidenceMatrix(np.zeros((pset.K, pset.K)), pset.labels)
    with pytest.raises(ValueError, match="^coincidence matrix is all zero$"):
        reconstruct(C, pset)


def test_a_threshold_above_every_entry_collapses_the_projection():
    state = make_state((0, 1), [1, 1])
    pset = projection_set(2, state.l)
    C = simulate_coincidences(state, pset)
    with pytest.raises(ValueError,
                       match="^density projection collapsed to zero$"):
        reconstruct(C, pset, epsilon=1.0)


def test_chi_square_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    state = _haar_state(2, rng)
    pset = projection_set(2, state.l)
    C = simulate_coincidences(state, pset, noise="poisson", rng=rng)
    y = C.counts.reshape(-1) / C.counts.sum()
    P = pset.projectors
    G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))

    def chi(Gm):
        return _chi_square(P, y, Gm)[-1]

    # the forward pass and gradient that reconstruct calls
    grad = _chi_square_gradient(P, y, *_chi_square(P, y, G)[:-1])

    h = 1e-7
    for (i, j) in ((0, 0), (1, 3), (2, 1)):
        e = np.zeros_like(G)
        e[i, j] = 1.0
        fd_re = (chi(G + h * e) - chi(G - h * e)) / (2 * h)
        fd_im = (chi(G + 1j * h * e) - chi(G - 1j * h * e)) / (2 * h)
        assert_allclose(grad[i, j].real, fd_re, rtol=1e-4, atol=1e-8)
        assert_allclose(grad[i, j].imag, fd_im, rtol=1e-4, atol=1e-8)


def test_noiseless_round_trip_high_fidelity():
    for d, seed in ((2, 0), (3, 1), (5, 2)):
        state = _haar_state(d, np.random.default_rng(seed))
        pset = projection_set(d, state.l)
        C = simulate_coincidences(state, pset, noise=None)
        result = reconstruct(C, pset)
        m = metrics(_pure_density(state), result.rho)
        assert m.fidelity > 0.999


def test_descent_never_worsens_chi_square():
    rng = np.random.default_rng(9)
    state = _haar_state(2, rng)
    pset = projection_set(2, state.l)
    C = simulate_coincidences(state, pset, noise="poisson", rng=rng)
    coarse = reconstruct(C, pset, max_iters=0)
    fine = reconstruct(C, pset, max_iters=300)
    assert fine.chi2 <= coarse.chi2 + 1e-9


def _tomo_anchor_counts(seed):
    # tomo run's order on one rng: perturb (-1,0,1), then simulate 1e4 counts
    rng = np.random.default_rng(seed)
    state = make_state((-1, 0, 1), np.ones(3))
    state = inject_subspace(state, sample_perturbation(state.d, rng))
    pset = projection_set(state.d, state.l)
    return state, pset, simulate_coincidences(state, pset, total_counts=1e4,
                                              noise="poisson", rng=rng)


def test_tomo_anchor_fit_converges_in_few_iterations():
    # steepest descent needed 6760 iterations here and stopped on a stall
    state, pset, C = _tomo_anchor_counts(0)
    result = reconstruct(C, pset, epsilon=0.02)
    assert result.n_iter <= 500
    assert result.chi2 <= 185.907914997 + 1e-6
    assert_allclose(metrics(_pure_density(state), result.rho).fidelity,
                    0.9973639, atol=1e-6)


def _qutrit_counts(total_counts, seed):
    state = make_state((-1, 0, 1), np.ones(3))
    pset = projection_set(3, state.l)
    noise = "poisson" if seed is not None else None
    return pset, simulate_coincidences(state, pset, total_counts, noise=noise,
                                       rng=np.random.default_rng(seed))


@pytest.mark.parametrize("total_counts, seed, max_iters, stop", [
    (1e4, None, 10_000, "gradient"),  # exact rates: chi-square goes to 0
    (30, 2, 10_000, "stall"),         # sparse counts stall near |grad| 4e-7
    (1e4, 0, 5, "budget"),
    (1e4, 0, 0, "budget"),
])
def test_fit_reports_why_it_stopped(total_counts, seed, max_iters, stop):
    pset, C = _qutrit_counts(total_counts, seed)
    result = reconstruct(C, pset, max_iters=max_iters)
    assert result.stop == stop
    assert result.converged is (stop != "budget")
    if stop == "gradient":
        assert result.grad_norm < GRAD_TOL
    else:
        assert result.grad_norm >= GRAD_TOL
    if stop == "budget":
        assert result.n_iter == max_iters


def test_no_usable_step_on_the_last_iteration_is_converged(monkeypatch):
    # a direction too long for every halved step leaves no improving step;
    # spending the last allowed iteration on that is not a budget stop
    monkeypatch.setattr("topospec.tomography._lbfgs_direction",
                        lambda grad, pairs: -1e40 * grad)
    _, pset, C = _tomo_anchor_counts(0)
    result = reconstruct(C, pset, max_iters=1)
    assert (result.stop, result.n_iter, result.converged) == ("no_step", 1, True)
    assert result.chi2_trace == (result.chi2,)


def test_an_uphill_direction_restarts_from_steepest_descent(monkeypatch):
    # every direction built from a non-empty memory is turned uphill; the
    # fit must clear its memory and take the -0.1 grad step instead
    lbfgs, memory = tomography._lbfgs_direction, []

    def uphill(grad, pairs):
        memory.append(len(pairs))
        direction = lbfgs(grad, pairs)
        return -direction if pairs else direction

    monkeypatch.setattr(tomography, "_lbfgs_direction", uphill)
    pset, C = _qutrit_counts(1e4, 0)
    result = reconstruct(C, pset)
    assert result.stop != "no_step"
    assert np.all(np.diff(result.chi2_trace) <= 0.0)
    assert any(memory)
    assert all(memory[k + 1] == 0 for k, n in enumerate(memory) if n)


@pytest.mark.parametrize("seed", range(4))
def test_chi_square_trace_never_increases_and_ends_at_chi2(seed):
    _, pset, C = _tomo_anchor_counts(seed)
    result = reconstruct(C, pset)
    trace = np.array(result.chi2_trace)
    # the start plus one value per accepted step; a gradient or no-step
    # stop ends its iteration without a step
    assert trace.size == result.n_iter + (result.stop in ("stall", "budget"))
    assert np.all(np.diff(trace) <= 0.0)
    assert trace[-1] == result.chi2


def test_epsilon_zero_keeps_optimizer_output():
    state = make_state((0, 1), [1, 1])
    pset = projection_set(2, state.l)
    C = simulate_coincidences(state, pset, noise="poisson",
                              rng=np.random.default_rng(2))
    plain = reconstruct(C, pset, epsilon=0.0)
    # a noisy fit leaves small but nonzero clutter everywhere
    assert np.count_nonzero(plain.rho.rho) == 16
    cleaned = reconstruct(C, pset, epsilon=0.02)
    assert np.count_nonzero(cleaned.rho.rho) < 16
    assert_allclose(np.trace(cleaned.rho.rho).real, 1.0, atol=1e-9)


def test_biphoton_density_validation():
    with pytest.raises(ValueError):
        BiphotonDensity(np.eye(4) * 0.5)          # trace 2
    with pytest.raises(ValueError):
        BiphotonDensity(np.array([[1.0, 1.0], [0.0, 0.0]]))   # not Hermitian
    BiphotonDensity(np.eye(4) / 4)                # a valid density


def test_biphoton_density_rejects_a_non_square_or_non_psd_matrix():
    with pytest.raises(ValueError, match="^rho must be square$"):
        BiphotonDensity(np.ones((2, 3)))
    with pytest.raises(ValueError, match="^rho must be positive semidefinite$"):
        BiphotonDensity(np.diag([1.5, -0.5]))


def test_fidelity_purity_concurrence_properties():
    rng = np.random.default_rng(6)
    a = np.diag(rng.uniform(0.1, 1.0, size=4))
    a /= np.trace(a)
    b = np.diag(rng.uniform(0.1, 1.0, size=4))
    b /= np.trace(b)
    assert_allclose(fidelity(a, b), fidelity(b, a), atol=1e-10)
    assert_allclose(fidelity(a, a), 1.0, atol=1e-10)
    assert 1.0 / 16 <= purity(np.eye(4) / 4) + 1e-12
    assert_allclose(purity(np.eye(4) / 4), 0.25, atol=1e-12)

    bell = np.zeros((4, 4), dtype=complex)
    vec = np.array([1, 0, 0, 1]) / np.sqrt(2)
    bell = np.outer(vec, vec)
    assert_allclose(concurrence(bell), 1.0, atol=1e-10)
    sep = np.zeros((4, 4))
    sep[0, 0] = 1.0
    assert_allclose(concurrence(sep), 0.0, atol=1e-10)
    with pytest.raises(ValueError):
        concurrence(np.eye(9) / 9)


@pytest.mark.parametrize("n", [4, 9])
def test_fidelity_of_a_pure_target_is_its_overlap(n):
    # F(|psi><psi|, rho) = <psi|rho|psi> exactly; square roots of the
    # target's rounding-level eigenvalues would add about 1e-8
    rng = np.random.default_rng(n)
    for _ in range(20):
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
        target = np.outer(psi, psi.conj())
        assert_allclose(fidelity(target, rho), np.real(psi.conj() @ rho @ psi),
                        rtol=0.0, atol=1e-12)
        assert fidelity(target, target) <= 1.0 + 1e-12
    pure = _pure_density(make_state((-1, 0, 1), np.ones(3)))
    assert fidelity(pure, pure) <= 1.0 + 1e-12


def test_metrics_reports_concurrence_only_for_qubit_pairs():
    rho2 = np.eye(4) / 4
    rho3 = np.eye(9) / 9
    assert metrics(rho2, rho2).concurrence is not None
    assert metrics(rho3, rho3).concurrence is None


def test_metrics_take_the_fit_s_density_as_its_matrix():
    state = _haar_state(2, np.random.default_rng(0))
    pset = projection_set(2, state.l)
    fit = reconstruct(simulate_coincidences(state, pset), pset).rho
    target = _pure_density(state)
    assert fidelity(target, fit) == fidelity(target, fit.rho)
    assert fidelity(fit, target) == fidelity(fit.rho, target)
    assert purity(fit) == purity(fit.rho)
    assert concurrence(fit) == concurrence(fit.rho)
    assert metrics(target, fit) == metrics(target, fit.rho)


def test_a_density_gives_its_matrix_as_numpy_1_and_2_ask_for_it():
    rho = BiphotonDensity(np.eye(4) / 4)
    # numpy 1.x passes no copy argument, numpy 2 passes copy=None/True/False
    assert rho.__array__() is rho.rho
    assert rho.__array__(None, None) is rho.rho
    assert rho.__array__(None, False) is rho.rho
    assert_allclose(rho.__array__(np.complex64), np.eye(4) / 4)
    assert rho.__array__(np.complex64).dtype == np.complex64
    copied = rho.__array__(None, True)
    assert copied is not rho.rho
    assert_allclose(copied, rho.rho)
    assert np.asarray(rho) is rho.rho


def test_metrics_rejects_densities_of_different_sizes():
    with pytest.raises(ValueError, match="^density matrices differ in size$"):
        metrics(np.eye(4) / 4, np.eye(9) / 9)


def test_spectrum_from_density_matches_state_route():
    state = make_state((-1, 0, 1), np.ones(3))
    rho = _pure_density(state)
    grid = GridSpec(n_r=256, n_phi=64)
    sp_state = compute_spectrum(state, "canonical18", grid=grid, workers=1)
    sp_rho = spectrum_from_density(rho, state.l, mode="canonical18", grid=grid)
    assert sp_rho.labels == sp_state.labels
    assert_allclose(sp_rho.values("glued"), sp_state.values("glued"), atol=1e-9)
    # closed forms apply to amplitude states only
    assert np.all(np.isnan(sp_rho.values("analytic")))


def test_spectrum_from_density_by_default_equals_one_worker():
    # the default is compute_spectrum's: all cores, capped by TOPOSPEC_THREADS
    rho = freeze._mixed_density()
    assert (spectrum_from_density(rho, (-1, 0, 1)).entries ==
            spectrum_from_density(rho, (-1, 0, 1), workers=1).entries)


def test_spectrum_from_density_validates_shape():
    with pytest.raises(ValueError):
        spectrum_from_density(np.eye(4) / 4, (-1, 0, 1))


def test_coincidence_csv_round_trip(tmp_path):
    state = make_state((0, 1), [1, 1])
    pset = projection_set(2, state.l)
    C = simulate_coincidences(state, pset, noise="poisson",
                              rng=np.random.default_rng(5))
    path = tmp_path / "counts.csv"
    write_coincidences_csv(C, path)
    back = read_coincidences_csv(path)
    assert back.labels == C.labels
    assert_allclose(back.counts, C.counts, rtol=1e-9)


@pytest.mark.parametrize("text", ["", "setting,b0,b1\n"])
def test_a_coincidence_file_without_rows_is_rejected(tmp_path, text):
    path = tmp_path / "counts.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="empty coincidence file$"):
        read_coincidences_csv(path)


def test_a_coincidence_file_whose_rows_are_swapped_is_refused(tmp_path):
    state = make_state((0, 1), [1, 1])
    pset = projection_set(2, state.l)
    path = tmp_path / "counts.csv"
    write_coincidences_csv(simulate_coincidences(state, pset), path)
    lines = path.read_text().splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: the first column must name the header's settings")):
        read_coincidences_csv(path)


@pytest.mark.parametrize("row, message", [
    ("b,3\n", "row 'b' holds 1 counts, not 2"),
    ("b,3,x\n", "row 'b': could not convert string to float: 'x'"),
])
def test_a_coincidence_row_it_cannot_read_is_named(tmp_path, row, message):
    # numpy's inhomogeneous-shape error or float's once named neither
    path = tmp_path / "counts.csv"
    path.write_text("setting,a,b\na,1,2\n" + row)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        read_coincidences_csv(path)


def test_density_json_round_trip(tmp_path):
    rho = np.eye(4) / 4 + 0.05j * (np.eye(4, k=1) - np.eye(4, k=-1)) / 4
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    doc = density_to_json(BiphotonDensity(rho), meta={"seed": 1})
    back = density_from_json(doc)
    assert_allclose(back.rho, rho, atol=1e-12)
    path = tmp_path / "density.json"
    save_density(path, BiphotonDensity(rho))
    assert_allclose(load_density(path).rho, rho, atol=1e-12)


@pytest.mark.parametrize("cut, message", [
    (lambda text: text[:len(text) // 2], "Expecting"),
    (lambda text: text.replace('"meta"', '"extra"'), "unknown density keys"),
])
def test_load_density_names_the_file_it_refuses(tmp_path, cut, message):
    # a truncated file, and a document with a key outside rho and meta
    path = tmp_path / "density.json"
    save_density(path, BiphotonDensity(np.eye(4) / 4))
    path.write_text(cut(path.read_text()))
    with pytest.raises(ValueError) as info:
        load_density(path)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)


@pytest.mark.parametrize("pair", [[True, 0], ["0.25", 0], [0.25]])
def test_a_malformed_density_pair_is_rejected_as_in_a_state(pair):
    doc = density_to_json(np.eye(4) / 4)
    doc["rho"][1][1] = pair
    with pytest.raises(ValueError, match=r"malformed \[re, im\] pairs"):
        density_from_json(doc)


@pytest.mark.parametrize("doc, message", [
    ([], "density document must be a JSON object"),
    ({"rho": 5}, "malformed density document: rho is 5, not rows"),
    ({"meta": {}}, "missing density key: rho"),
    ({"rho": [[[1, 0]]], "extra": 1}, "unknown density keys: ['extra']"),
    # a row holds as many pairs as rho has rows; numpy's ragged-array error
    # once named neither the document nor the row
    ({"rho": [[[1, 0]], [[1, 0], [0, 0]]]},
     "malformed density document: rho row 0 holds 1 pairs, not 2"),
    ({"rho": [[[1, 0], [0, 0]], [[1, 0]]]},
     "malformed density document: rho row 1 holds 1 pairs, not 2"),
    ({"rho": [[[1, 0], [0, 0]]]},
     "malformed density document: rho row 0 holds 2 pairs, not 1"),
])
def test_a_malformed_density_document_is_rejected_as_a_state_one(doc, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        density_from_json(doc)


def test_a_density_document_holds_finite_numbers_only(tmp_path):
    path = tmp_path / "density.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_density(path, np.eye(4) / 4, {"chi2": float("nan")})
    assert not path.exists()
