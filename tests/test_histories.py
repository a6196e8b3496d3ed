import itertools

import numpy as np
import pytest

from qmeasure import (
    DecoherenceFunctional,
    GridSpace,
    Hamiltonian,
    HistorySet,
    InconsistentFamily,
    InvalidIndex,
    LinearOperator,
    PureState,
    SIGMA_Z,
    basis_state,
    born_distribution,
    build_measurement_unitary,
    class_operator,
    coarse_grain,
    collapse,
    decoherence_functional,
    free_hamiltonian,
    gaussian_packet,
    history_probabilities,
    is_consistent,
    propagate,
    region_projector,
    repeated_measurement_joint,
    spectral_decompose,
)
from conftest import random_density, random_hermitian, random_state

OBS_Z = spectral_decompose(SIGMA_Z)
Z_FAMILY = [OBS_Z.projector(0), OBS_Z.projector(1)]


def zero_hamiltonian(dim):
    return Hamiltonian(LinearOperator(np.zeros((dim, dim))))


def random_families(rng, dim, sizes):
    families = []
    for n_blocks in sizes:
        h = random_hermitian(rng, dim)
        _, evecs = np.linalg.eigh(h.matrix)
        cuts = sorted(rng.choice(range(1, dim), size=n_blocks - 1, replace=False))
        bounds = [0] + list(cuts) + [dim]
        family = []
        for lo, hi in zip(bounds, bounds[1:]):
            block = evecs[:, lo:hi]
            family.append(LinearOperator(block @ block.conj().T))
        families.append(family)
    return families


def random_block_families(rng, dim, sizes):
    """Column blocks of a random unitary from QR, cut at random ranks."""
    families = []
    for n_blocks in sizes:
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                            + 1j * rng.standard_normal((dim, dim)))
        cuts = sorted(rng.choice(range(1, dim), size=n_blocks - 1, replace=False))
        bounds = [0] + list(cuts) + [dim]
        families.append([q[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])])
    return families


def taylor_expm(a):
    squarings = max(0, int(np.ceil(np.log2(np.linalg.norm(a, 1) / 0.25))))
    a = a / 2 ** squarings
    term = total = np.eye(len(a), dtype=complex)
    for k in range(1, 25):
        term = term @ a / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


class TestHistorySet:
    def test_rejects_incomplete_family(self, rng):
        H = zero_hamiltonian(2)
        with pytest.raises(ValueError, match="identity"):
            HistorySet(H, basis_state(2, 0), [1.0], [[OBS_Z.projector(0)]])

    def test_rejects_non_projector(self):
        H = zero_hamiltonian(2)
        halves = [LinearOperator(np.eye(2) / 2), LinearOperator(np.eye(2) / 2)]
        with pytest.raises(ValueError, match="projector"):
            HistorySet(H, basis_state(2, 0), [1.0], [halves])

    @pytest.mark.parametrize("entry", [2 * np.eye(2), np.diag([0.0, 2.0])])
    def test_rejects_integer_eigenvalues_other_than_one(self, entry):
        family = [LinearOperator(entry), LinearOperator(np.eye(2) - entry)]
        with pytest.raises(ValueError, match="family 0 entry 0 is not a projector"):
            HistorySet(zero_hamiltonian(2), basis_state(2, 0), [1.0], [family])

    def test_rejects_unordered_times(self):
        H = zero_hamiltonian(2)
        with pytest.raises(ValueError, match="increasing"):
            HistorySet(H, basis_state(2, 0), [2.0, 1.0], [Z_FAMILY, Z_FAMILY])

    @pytest.mark.parametrize("defect, message", [("not_orthonormal", "identity"),
                                                 ("incomplete", "identity"),
                                                 ("wrong_rows", "shape")])
    def test_rejects_bad_block_family(self, rng, defect, message):
        blocks = random_block_families(rng, 4, [2])[0]
        if defect == "not_orthonormal":
            blocks[0] = 1.5 * blocks[0]
        elif defect == "incomplete":
            blocks = blocks[:1]
        else:
            blocks[1] = blocks[1][:-1]
        with pytest.raises(ValueError, match=message):
            HistorySet(zero_hamiltonian(4), random_state(rng, 4), [1.0], [blocks])

    def test_histories_enumeration(self):
        H = zero_hamiltonian(2)
        hs = HistorySet(H, basis_state(2, 0), [1.0, 2.0], [Z_FAMILY, Z_FAMILY])
        assert hs.histories() == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestClassOperator:
    def test_single_time_definition(self, rng):
        H = Hamiltonian(random_hermitian(rng, 2))
        hs = HistorySet(H, basis_state(2, 0), [1.3], [Z_FAMILY])
        C = class_operator(hs, (1,))
        oracle = Z_FAMILY[1].matrix @ propagate(H, 1.3).matrix
        np.testing.assert_allclose(C.matrix, oracle, atol=1e-12)

    def test_identity_families_give_propagator(self, rng):
        H = Hamiltonian(random_hermitian(rng, 3))
        trivial = [LinearOperator(np.eye(3))]
        hs = HistorySet(H, basis_state(3, 0), [0.7, 1.9], [trivial, trivial])
        C = class_operator(hs, (0, 0))
        np.testing.assert_allclose(C.matrix, propagate(H, 1.9).matrix, atol=1e-12)

    def test_class_operators_telescope(self, rng):
        dim = 4
        H = Hamiltonian(random_hermitian(rng, dim))
        families = random_families(rng, dim, [2, 3])
        hs = HistorySet(H, random_state(rng, dim), [0.5, 1.1], families)
        total = np.zeros((dim, dim), dtype=complex)
        for alpha in hs.histories():
            total += class_operator(hs, alpha).matrix
        np.testing.assert_allclose(total, propagate(H, 1.1).matrix, atol=1e-10)

    def test_invalid_index(self):
        hs = HistorySet(zero_hamiltonian(2), basis_state(2, 0), [1.0], [Z_FAMILY])
        with pytest.raises(InvalidIndex):
            class_operator(hs, (2,))
        with pytest.raises(InvalidIndex):
            class_operator(hs, (0, 0))


class TestDecoherenceFunctional:
    def test_single_time_diagonal_is_born(self, rng):
        s = random_state(rng, 2)
        hs = HistorySet(zero_hamiltonian(2), s, [1.0], [Z_FAMILY])
        D = decoherence_functional(hs)
        born = born_distribution(s, OBS_Z)
        np.testing.assert_allclose(D.diagonal(), born.probabilities, atol=1e-12)
        assert np.max(np.abs(D.matrix - np.diag(np.diagonal(D.matrix)))) < 1e-12

    def test_matches_class_operator_trace_oracle(self, rng):
        dim = 4
        H = Hamiltonian(random_hermitian(rng, dim))
        families = random_families(rng, dim, [2, 2])
        rho = random_density(rng, dim)
        hs = HistorySet(H, rho, [0.4, 1.0], families)
        D = decoherence_functional(hs)
        for a, alpha in enumerate(hs.histories()):
            Ca = class_operator(hs, alpha).matrix
            for b, beta in enumerate(hs.histories()):
                Cb = class_operator(hs, beta).matrix
                oracle = np.trace(Ca @ rho.matrix @ Cb.conj().T)
                assert abs(D.matrix[a, b] - oracle) < 1e-10

    def test_pure_state_matches_taylor_branches(self, rng):
        # oracle: branch vectors built with a Taylor-series propagator, no
        # eigendecomposition; D is their Gram matrix
        dim = 5
        h = random_hermitian(rng, dim)
        families = random_families(rng, dim, [2, 3])
        psi = random_state(rng, dim)
        times = [0.3, 1.1]
        hs = HistorySet(Hamiltonian(h), psi, times, families)
        U1 = taylor_expm(-1j * h.matrix * 0.3)
        U2 = taylor_expm(-1j * h.matrix * 0.8)
        branches = [P2.matrix @ U2 @ P1.matrix @ U1 @ psi.amplitudes
                    for P1 in families[0] for P2 in families[1]]
        Y = np.array(branches)
        assert np.max(np.abs(decoherence_functional(hs).matrix - Y @ Y.conj().T)) < 1e-12

    @pytest.mark.parametrize("entry", ["block", "projector"])
    def test_block_families_match_dense_projector_oracle(self, rng, entry):
        # oracle: dense P = B B^dag and a Taylor-series propagator, no
        # eigendecomposition; the set gets the blocks or the projectors
        dim = 6
        h = random_hermitian(rng, dim)
        blocks = random_block_families(rng, dim, [3, 2, 4])
        psi = random_state(rng, dim)
        times = [0.2, 0.7, 1.5]
        families = blocks if entry == "block" else \
            [[LinearOperator(B @ B.conj().T) for B in family] for family in blocks]
        D = decoherence_functional(HistorySet(Hamiltonian(h), psi, times, families))
        steps = [taylor_expm(-1j * h.matrix * dt) for dt in np.diff([0.0] + times)]
        branches = []
        for alpha in itertools.product(*(range(len(f)) for f in blocks)):
            v = psi.amplitudes
            for U, family, a in zip(steps, blocks, alpha):
                v = (family[a] @ family[a].conj().T) @ (U @ v)
            branches.append(v)
        Y = np.array(branches)
        assert np.max(np.abs(D.matrix - Y @ Y.conj().T)) <= 1e-12

    def test_invariants_random(self, rng):
        dim = 5
        H = Hamiltonian(random_hermitian(rng, dim))
        families = random_families(rng, dim, [2, 3])
        hs = HistorySet(H, random_state(rng, dim), [0.3, 0.9], families)
        D = decoherence_functional(hs)
        assert np.max(np.abs(D.matrix - D.matrix.conj().T)) < 1e-10
        diag = np.diagonal(D.matrix)
        assert np.max(np.abs(diag.imag)) < 1e-10
        assert diag.real.min() > -1e-10
        assert abs(D.matrix.sum() - 1.0) < 1e-9


class TestConsistency:
    def test_diagonal_functional_consistent(self, rng):
        s = random_state(rng, 2)
        hs = HistorySet(zero_hamiltonian(2), s, [1.0], [Z_FAMILY])
        ok, ratio = is_consistent(decoherence_functional(hs))
        assert ok
        assert ratio == 0.0

    def test_rotated_second_family_inconsistent(self):
        # z-projectors then x-projectors on a superposition interfere
        plus_x = PureState([1.0, 1.0])
        x_family = [LinearOperator(np.array([[0.5, 0.5], [0.5, 0.5]])),
                    LinearOperator(np.array([[0.5, -0.5], [-0.5, 0.5]]))]
        hs = HistorySet(zero_hamiltonian(2), plus_x, [1.0, 2.0],
                        [Z_FAMILY, x_family])
        D = decoherence_functional(hs)
        ok, ratio = is_consistent(D, 1e-8)
        assert not ok
        assert ratio > 0.1
        with pytest.raises(InconsistentFamily):
            history_probabilities(D, 1e-8)


    def test_zero_weight_history_passes_vacuously(self):
        # history 2 has zero diagonal weight; its off-diagonal entry with
        # history 0 is not a ratio and must not count
        D = DecoherenceFunctional([(0,), (1,), (2,)],
                                  [[0.5, 0.05, 0.1], [0.05, 0.2, 0.0], [0.1, 0.0, 0.0]])
        worst = 0.05 / np.sqrt(0.5 * 0.2)
        assert is_consistent(D, 1.0) == (True, pytest.approx(worst, rel=1e-15))
        assert is_consistent(D, 0.1) == (False, pytest.approx(worst, rel=1e-15))

    def test_worst_ratio_matches_pairwise_loop(self, rng):
        hs = HistorySet(Hamiltonian(random_hermitian(rng, 6)), random_state(rng, 6),
                        [0.3, 0.9], random_families(rng, 6, [3, 4]))
        D = decoherence_functional(hs)
        diag = D.diagonal()
        loop = 0.0
        for a in range(len(diag)):
            for b in range(a + 1, len(diag)):
                scale = np.sqrt(max(diag[a], 0.0) * max(diag[b], 0.0))
                if scale != 0.0:
                    loop = max(loop, abs(D.matrix[a, b]) / scale)
        assert is_consistent(D)[1] == loop


class TestHistoryProbabilities:
    def test_single_time_family_is_born(self, rng):
        s = random_state(rng, 2)
        hs = HistorySet(zero_hamiltonian(2), s, [1.0], [Z_FAMILY])
        probs = history_probabilities(decoherence_functional(hs))
        born = born_distribution(s, OBS_Z)
        assert probs.probability((0,)) == pytest.approx(born.probabilities[0],
                                                        abs=1e-12)

    def test_repeated_measurement_recast_as_two_time_family(self, rng):
        # a static two-time z-family reproduces the modeled joint statistics
        # of a plain (non-disturbing) repeated measurement
        s = random_state(rng, 2)
        hs = HistorySet(zero_hamiltonian(2), s, [1.0, 2.0], [Z_FAMILY, Z_FAMILY])
        probs = history_probabilities(decoherence_functional(hs))
        model = build_measurement_unitary(OBS_Z)
        joint = repeated_measurement_joint(s, model)
        vals = [-1.0, 1.0]
        for i in range(2):
            for j in range(2):
                assert probs.probability((i, j)) == pytest.approx(
                    joint.probability((vals[i], vals[j])), abs=1e-10)
        # diagonal: squared amplitudes of the measured state
        born = born_distribution(s, OBS_Z)
        for i in range(2):
            assert probs.probability((i, i)) == pytest.approx(
                born.probabilities[i], abs=1e-10)

    def test_coarse_graining_merges_with_cross_terms(self, rng):
        dim = 4
        H = Hamiltonian(random_hermitian(rng, dim))
        families = random_families(rng, dim, [2, 2])
        hs = HistorySet(H, random_state(rng, dim), [0.4, 1.0], families)
        D = decoherence_functional(hs)
        merged = coarse_grain(D, [[(0, 0), (0, 1)], [(1, 0), (1, 1)]])
        for a, group in enumerate(((0, 0), (1, 0))):
            i = hs.histories().index((group[0], 0))
            j = hs.histories().index((group[0], 1))
            expected = (D.matrix[i, i] + D.matrix[j, j] + 2 * D.matrix[i, j].real)
            assert merged.matrix[a, a].real == pytest.approx(expected.real,
                                                             abs=1e-12)
        assert abs(merged.matrix.sum() - 1.0) < 1e-9

    def test_coarse_graining_matches_pairwise_block_sums(self, rng):
        hs = HistorySet(Hamiltonian(random_hermitian(rng, 6)), random_state(rng, 6),
                        [0.3, 0.9], random_families(rng, 6, [3, 4]))
        D = decoherence_functional(hs)
        order = rng.permutation(len(D.histories))
        cuts = sorted(rng.choice(range(1, len(order)), size=4, replace=False))
        groups = [[D.histories[i] for i in part] for part in np.split(order, cuts)]
        merged = coarse_grain(D, groups)
        index = [[D.histories.index(h) for h in group] for group in groups]
        loop = np.array([[D.matrix[np.ix_(ia, ib)].sum() for ib in index] for ia in index])
        assert np.max(np.abs(merged.matrix - loop)) <= 1e-15

    def test_coarse_graining_must_partition(self, rng):
        s = random_state(rng, 2)
        hs = HistorySet(zero_hamiltonian(2), s, [1.0], [Z_FAMILY])
        D = decoherence_functional(hs)
        with pytest.raises(InvalidIndex):
            coarse_grain(D, [[(0,)]])
        with pytest.raises(InvalidIndex):
            coarse_grain(D, [[(0,), (1,)], [(1,)]])


class TestConditionalization:
    def test_collapse_then_born_matches_diagonal_conditionals(self, rng):
        # a commuting two-time family is exactly consistent; conditioning its
        # diagonal equals projective collapse followed by the Born rule
        H = Hamiltonian(LinearOperator(np.diag([0.3, -0.7]).astype(complex)))
        s = random_state(rng, 2)
        t1, t2 = 0.9, 2.1
        hs = HistorySet(H, s, [t1, t2], [Z_FAMILY, Z_FAMILY])
        D = decoherence_functional(hs)
        ok, _ = is_consistent(D, 1e-9)
        assert ok
        probs = history_probabilities(D, 1e-9)
        for first in range(2):
            total_first = sum(probs.probability((first, j)) for j in range(2))
            if total_first < 1e-12:
                continue
            psi_t1 = H.evolve(s, t1)
            collapsed = collapse(psi_t1, OBS_Z, float(OBS_Z.eigenvalues[first]))
            evolved = H.evolve(collapsed, t2 - t1)
            born = born_distribution(evolved, OBS_Z)
            for j in range(2):
                conditional = probs.probability((first, j)) / total_first
                assert conditional == pytest.approx(born.probabilities[j],
                                                    abs=1e-9)

    def test_two_slit_interference_and_which_way_restoration(self):
        g = GridSpace(128, 32.0)
        H = free_hamiltonian(g, 1.0)
        a, v, w = 4.0, 0.785, 1.0
        left = gaussian_packet(g, -a, +v, w)
        right = gaussian_packet(g, +a, -v, w)
        psi0 = PureState(left.amplitudes + right.amplitudes)
        slits = [region_projector(g, (0, 64)).projector(1),
                 region_projector(g, (64, 128)).projector(1)]
        cells = [region_projector(g, (c * 8, (c + 1) * 8)).projector(1)
                 for c in range(16)]
        t2 = 6.5
        hs = HistorySet(H, psi0, [0.0, t2], [slits, cells])
        D = decoherence_functional(hs)
        ok, ratio = is_consistent(D, 1e-8)
        assert not ok and ratio > 0.1
        # interference: joint screen probability differs from the sum of
        # single-slit diagonal weights
        psi_t = H.evolve(psi0, t2)
        diag = {h: p for h, p in zip(D.histories, D.diagonal())}
        interference = []
        for c, cell in enumerate(cells):
            joint = np.vdot(psi_t.amplitudes, cell.matrix @ psi_t.amplitudes).real
            interference.append(joint - diag[(0, c)] - diag[(1, c)])
        assert max(abs(x) for x in interference) > 0.05

        # tag the slit in an orthogonal two-level record
        tagged = np.zeros(256, dtype=complex)
        tagged[0::2] = slits[0].matrix @ psi0.amplitudes
        tagged[1::2] = slits[1].matrix @ psi0.amplitudes
        eye2 = np.eye(2, dtype=complex)
        H_tag = Hamiltonian(LinearOperator(np.kron(H.op.matrix, eye2)))
        slits_tag = [LinearOperator(np.kron(p.matrix, eye2)) for p in slits]
        cells_tag = [LinearOperator(np.kron(p.matrix, eye2)) for p in cells]
        hs_tag = HistorySet(H_tag, PureState(tagged), [0.0, t2],
                            [slits_tag, cells_tag])
        D_tag = decoherence_functional(hs_tag)
        ok_tag, ratio_tag = is_consistent(D_tag, 1e-8)
        assert ok_tag
        assert ratio_tag < 1e-8
        assert np.max(np.abs(D_tag.matrix - np.diag(np.diagonal(D_tag.matrix)))) \
            < 1e-10
        # additivity restored: coarse-graining over slits gives the screen
        # marginal of the tagged state
        merged = coarse_grain(D_tag, [[(0, c), (1, c)] for c in range(16)])
        psi_tag_t = H_tag.evolve(PureState(tagged), t2)
        for c, cell in enumerate(cells_tag):
            screen = np.vdot(psi_tag_t.amplitudes,
                             cell.matrix @ psi_tag_t.amplitudes).real
            assert merged.matrix[c, c].real == pytest.approx(screen, abs=2e-8)


def test_completeness_sum_rule(rng):
    dim = 4
    H = Hamiltonian(random_hermitian(rng, dim))
    families = random_families(rng, dim, [3, 2])
    hs = HistorySet(H, random_state(rng, dim), [0.6, 1.4], families)
    D = decoherence_functional(hs)
    diag_total = float(np.sum(D.diagonal()))
    offdiag_total = complex(D.matrix.sum()) - diag_total
    assert abs(diag_total + offdiag_total - 1.0) < 1e-9


def test_two_slit_builds_no_dense_projector(monkeypatch):
    import qmeasure.hilbert as hilbert
    from qmeasure import run_scenario, validate_config

    def no_projector_check(*args, **kwargs):
        raise AssertionError("dense projector checked")

    # HistorySet checks a projector entry through hilbert._projector_range
    monkeypatch.setattr(hilbert, "_projector_defect", no_projector_check)
    cfg = validate_config("scenario: two_slit\nparams:\n  n_points: 32\n"
                          "  n_cells: 4\n  box_length: 10.5\n  separation: 2.0\n")
    assert len(run_scenario(cfg).rows) == 4


def test_two_slit_history_claims_at_narrow_cells():
    # a cell of 2 points holds so little weight that its interference term
    # stays below the 0.05 floor of interference_term_visible; the four
    # history claims do not depend on the cell width
    from qmeasure import run_scenario, validate_config
    cfg = validate_config("scenario: two_slit\nparams:\n  n_points: 512\n"
                          "  n_cells: 256\n")
    verdicts = {a.name: a.passed for a in run_scenario(cfg).assertions}
    assert all(verdicts[name] for name in (
        "bare_family_inconsistent", "tagged_family_offdiagonal_ratio",
        "tagged_coarse_graining_additive", "tagged_marginal_matches_screen"))
