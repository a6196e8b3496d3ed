"""Born-rule statistics, projective collapse, and generalized (POVM) measurements.

Sharp measurements are driven by an Observable's spectral resolution; unsharp
ones by families of positive effects summing to the identity.  There is
deliberately no collapse operation for POVMs: an effect family fixes outcome
statistics but not a post-measurement state, so conditioning is only defined
here for projective outcomes.
"""

from __future__ import annotations

from itertools import product
from typing import Hashable, Sequence

import numpy as np

from .dynamics import GridSpace, gaussian_packet
from .errors import DimensionMismatch, ImpossibleOutcome, IncompleteTiling, \
    InvalidPovm, InvalidSmearing
from .hilbert import LinearOperator, Observable, PureState, State, _FourierBasis, _adjoint, \
    _first, _freeze, _hermitian_within_tol, _identity_defect, hermiticity_defect

NEGATIVE_CLAMP_LIMIT = 1e-9
PSD_TOL = 1e-9
COMPLETENESS_TOL = 1e-8
TILING_TOL = 1e-6
POVM_SUM_TOL = 1e-8  # an outcome distribution from POVM weights sums to 1 within this


class OutcomeDistribution:
    """A probability distribution over a finite list of outcome labels.

    Tiny negative weights (roundoff) are clamped to zero; anything below
    -1e-9 is treated as a genuine invariant violation and rejected.  After
    clamping the weights must sum to 1 within ``sum_tol`` and are then
    renormalized exactly.
    """

    __slots__ = ("outcomes", "probabilities")

    def __init__(self, outcomes: Sequence[Hashable], probabilities,
                 sum_tol: float = 1e-10):
        probs = np.asarray(probabilities, dtype=float)
        if len(outcomes) != probs.shape[0]:
            raise ValueError("one probability per outcome required")
        self.outcomes = tuple(outcomes)
        self.probabilities = _freeze(_normalized(probs[None], sum_tol)[0])

    def probability(self, outcome) -> float:
        return float(self.probabilities[self.outcomes.index(outcome)])

    def as_dict(self) -> dict:
        return dict(zip(self.outcomes, (float(p) for p in self.probabilities)))

    def __len__(self):
        return len(self.outcomes)

    def __repr__(self):
        pairs = ", ".join(f"{o}: {p:.6g}" for o, p in self.as_dict().items())
        return f"OutcomeDistribution({pairs})"


def _normalized(probs: np.ndarray, sum_tol: float = 1e-10) -> np.ndarray:
    """OutcomeDistribution's weights for each row of a stack (m, k): clamped, checked, renormalized."""
    worst = np.min(probs, axis=-1, initial=np.inf)
    i = _first(worst < -NEGATIVE_CLAMP_LIMIT)
    if i is not None:
        raise ValueError(f"probability {worst[i]:.3e} below clamp limit")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum(axis=-1)
    i = _first(np.abs(total - 1.0) > sum_tol)
    if i is not None:
        raise ValueError(f"probabilities sum to {float(total[i])!r}, not 1")
    return probs / total[:, None]


def total_variation(a: OutcomeDistribution, b: OutcomeDistribution) -> float:
    """Total-variation distance; outcomes missing from one side count as 0."""
    da, db = a.as_dict(), b.as_dict()
    labels = set(da) | set(db)
    return 0.5 * sum(abs(da.get(o, 0.0) - db.get(o, 0.0)) for o in labels)


def born_distribution(state: State, obs: Observable) -> OutcomeDistribution:
    """Pr(o_i) = <psi|Pi_i|psi> (or Tr(rho Pi_i)), ascending eigenvalue order."""
    if state.dim != obs.dim:
        raise DimensionMismatch(f"state dim {state.dim} vs observable dim {obs.dim}")
    if isinstance(state, PureState):
        probs = obs._weights(state.amplitudes)
    else:
        # Tr(B^dag rho B) for B = V[:, cols], summed from the diagonal of V^dag rho V, which
        # two full adjoint applications give: no block is formed, nor one transform per outcome
        basis = obs._basis
        diagonal = np.diagonal(basis.apply_adjoint(_adjoint(basis.apply_adjoint(state.matrix)))).real
        probs = [float(np.sum(diagonal[sl])) for sl in obs._slices]
    return OutcomeDistribution([float(v) for v in obs.eigenvalues], probs)


def collapse(state: PureState, obs: Observable, outcome: float) -> PureState:
    """Project onto the eigenspace of ``outcome`` and renormalize.

    ``outcome`` is the eigenvalue label.  Raises ImpossibleOutcome when the
    outcome's Born weight is at most 1e-12, i.e. when one would be
    conditioning on an event of numerically zero probability.
    """
    if state.dim != obs.dim:
        raise DimensionMismatch(f"state dim {state.dim} vs observable dim {obs.dim}")
    cols = obs._slices[obs.outcome_index(outcome)]
    coeff = obs._basis.apply_adjoint(state.amplitudes, cols)
    weight = float(np.sum(np.abs(coeff) ** 2))
    if weight <= 1e-12:
        raise ImpossibleOutcome(
            f"outcome {outcome} has probability {weight:.3e}")
    return PureState(obs._basis.apply(coeff, cols))


def sample_outcome(dist: OutcomeDistribution, seed: int):
    """Draw one outcome by inverse-CDF sampling in the distribution's order.

    Deterministic in (dist, seed); no global random state is touched.
    """
    rng = np.random.default_rng(seed)
    u = rng.random()
    acc = 0.0
    for outcome, p in zip(dist.outcomes, dist.probabilities):
        acc += p
        if u < acc:
            return outcome
    return dist.outcomes[-1]


class Povm:
    """A finite family of positive effects summing to the identity.

    Every family is one factored table of weighted rank-one terms: term
    (i, j) is w_j |l_i o r_j><l_i o r_j|, with l_i a row of the p x dim left
    table L and r_j one of the q x dim right table R, tagged with the index
    of the effect it belongs to; a flat family has the one row L = ones.
    The constructor factors dense effects with ``eigh``, rejecting
    non-Hermitian ones and eigenvalues below -1e-9; positive eigenvalues
    become terms, so a zero effect owns none.  Completeness
    (||sum M - 1||_max <= 1e-8) is evaluated once, at construction.
    """

    __slots__ = ("labels", "dim", "_left", "_right", "_weights", "_owner", "_deficit")

    def __init__(self, elements: Sequence[tuple[Hashable, LinearOperator]]):
        if not elements:
            raise InvalidPovm("a POVM needs at least one effect")
        labels = [lab for lab, _ in elements]
        mats = [m.matrix if isinstance(m, LinearOperator) else np.asarray(m, complex)
                for _, m in elements]
        dim = mats[0].shape[0]
        terms = []
        for i, (lab, mat) in enumerate(zip(labels, mats)):
            if mat.shape != (dim, dim):
                raise InvalidPovm(f"effect {lab} has shape {mat.shape}")
            if not _hermitian_within_tol(mat):
                raise InvalidPovm(f"effect {lab} hermiticity defect {hermiticity_defect(mat):.3e}")
            evals, evecs = np.linalg.eigh((mat + mat.conj().T) / 2)
            if evals[0] < -PSD_TOL:
                raise InvalidPovm(f"effect {lab} has eigenvalue {float(evals[0]):.3e}")
            keep = evals > 0.0
            terms.append((evals[keep], evecs[:, keep].T, np.full(np.count_nonzero(keep), i)))
        weights, vectors, owner = (np.concatenate(parts) for parts in zip(*terms))
        self._set_terms(labels, np.ones((1, dim), complex), vectors, weights, owner,
                        COMPLETENESS_TOL)

    @classmethod
    def from_rank_one(cls, labels: Sequence[Hashable], weights, vectors) -> "Povm":
        """Build sum_k w_k |v_k><v_k| without materializing dense effects."""
        weights = np.asarray(weights, dtype=float)
        vectors = np.asarray(vectors, dtype=complex)
        if weights.min() < -PSD_TOL:
            raise InvalidPovm(f"negative weight {weights.min():.3e}")
        povm = object.__new__(cls)
        povm._set_terms(labels, np.ones((1, vectors.shape[1]), complex), vectors, weights,
                        np.arange(len(weights)), COMPLETENESS_TOL)
        return povm

    def _set_terms(self, labels, left, right, weights, owner, completeness_tol):
        # sum_ij w_j (l_i o r_j)(l_i o r_j)^dag = (L^T conj L) o (R^T diag(w) conj R)
        total = (left.T @ left.conj()) * ((right.T * weights) @ right.conj())
        deficit = _identity_defect(total)
        if deficit > completeness_tol:
            raise InvalidPovm(f"effects sum to identity with defect {deficit:.3e}")
        self.labels, self.dim, self._deficit = tuple(labels), right.shape[1], deficit
        self._left, self._right, self._weights, self._owner = left, right, weights, owner

    def __len__(self):
        return len(self.labels)

    def effect(self, i: int) -> LinearOperator:
        rows, cols = np.divmod(np.flatnonzero(self._owner == i), len(self._right))
        v = self._left[rows] * self._right[cols]
        return LinearOperator._wrap((v.T * self._weights[cols]) @ v.conj())

    @property
    def elements(self) -> list[tuple[Hashable, LinearOperator]]:
        return [(lab, self.effect(i)) for i, lab in enumerate(self.labels)]

    def completeness_deficit(self) -> float:
        """||sum_k M_k - 1||_max, a diagnostic for discretized families."""
        return self._deficit

    def __repr__(self):
        return f"Povm(dim={self.dim}, n_effects={len(self.labels)})"


def povm_distribution(state: State, povm: Povm) -> OutcomeDistribution:
    """Pr(k) = <psi|M_k|psi> (or Tr(rho M_k)) over the family's labels."""
    if state.dim != povm.dim:
        raise DimensionMismatch(f"state dim {state.dim} vs POVM dim {povm.dim}")
    if isinstance(state, PureState):
        probs = _effect_weights(povm, _pure_terms(povm, state.amplitudes[None]))[0]
    else:
        # <l o r_j|rho|l o r_j> is row j's sum of (conj R (conj l rho l)) o R
        r, r_bar = povm._right, povm._right.conj()
        terms = np.array([np.sum((r_bar @ (l.conj()[:, None] * state.matrix * l)) * r, axis=1).real
                          for l in povm._left])
        probs = _effect_weights(povm, terms[None])[0]
    return OutcomeDistribution(povm.labels, probs, sum_tol=POVM_SUM_TOL)


def _povm_weights(povm: Povm, psi: np.ndarray) -> np.ndarray:
    """povm_distribution's probabilities for a stack of pure states (m, dim): (m, k).

    Normalized as the OutcomeDistribution of povm_distribution normalizes them.
    """
    return _normalized(_effect_weights(povm, _pure_terms(povm, psi)), POVM_SUM_TOL)


def _pure_terms(povm: Povm, psi: np.ndarray) -> np.ndarray:
    """|<l_i o r_j|psi>|^2 for a stack of states (m, dim): (m, p, q)."""
    # conj <l_i o r_j|psi> for every (i, j) is one p x q product (L o conj psi) R^T
    left = (povm._left * psi.conj()[:, None, :]).reshape(-1, povm.dim)
    return np.abs(np.dot(left, povm._right.T)).reshape(len(psi), len(povm._left), -1) ** 2


def _effect_weights(povm: Povm, terms: np.ndarray) -> np.ndarray:
    """Each effect's weighted sum of its terms, for a stack of term tables (m, p, q): (m, k)."""
    m, k = len(terms), len(povm.labels)
    bins = (np.arange(m)[:, None] * k + povm._owner).ravel()
    return np.bincount(bins, weights=(terms * povm._weights).ravel(),
                       minlength=m * k).reshape(m, k)


def build_fuzzy_povm(obs: Observable, smearing) -> Povm:
    """Smear a sharp observable into effects f_k = sum_i f[k, i] Pi_i.

    ``smearing`` is a (n_effects, n_outcomes) array of nonnegative weights
    whose columns each sum to 1.  The identity smearing f[k, i] = delta_ki
    recovers the sharp projective measurement; off-diagonal weight models an
    imperfect device that misreports outcomes.  Labels are the effect row
    indices.  The family is built from the observable's eigenbasis columns
    as weighted rank-one terms, so no dense effect is formed.
    """
    f = np.asarray(smearing, dtype=float)
    if f.ndim != 2 or f.shape[1] != obs.n_outcomes:
        raise InvalidSmearing(
            f"smearing shape {f.shape} incompatible with {obs.n_outcomes} outcomes")
    if f.min() < 0:
        raise InvalidSmearing(f"negative smearing weight {f.min():.3e}")
    col_sums = f.sum(axis=0)
    if np.max(np.abs(col_sums - 1.0)) > 1e-10:
        raise InvalidSmearing(f"column sums {col_sums} must all equal 1")
    # effect k owns each column of eigenspace i with weight f[k, i]; zero weights own nothing
    weights = np.repeat(f, [obs.multiplicity(i) for i in range(obs.n_outcomes)], axis=1)
    owner, column = np.nonzero(weights > 0.0)
    rows = np.vstack([obs.eigenbasis(i).T for i in range(obs.n_outcomes)])
    povm = object.__new__(Povm)
    povm._set_terms(list(range(f.shape[0])), np.ones((1, obs.dim), complex), rows[column],
                    weights[owner, column], owner, COMPLETENESS_TOL)
    return povm


def build_phase_space_povm(g: GridSpace, packet_width: float,
                           p_indices: Sequence[int] | None = None,
                           q_indices: Sequence[int] | None = None) -> Povm:
    """The unsharp joint position/momentum measurement on a grid.

    A fiducial Gaussian packet of the given width, centered at phase-space
    origin, is displaced to every grid cell (p_a, q_b): momentum boosts p_a
    run over the wavenumber grid, position shifts q_b over the position grid.
    Each cell contributes a weighted rank-one effect w |phi(p_a, q_b)><...|
    with w = dim / n_cells, the discrete stand-in for the continuum 1/2pi
    measure; over the full n x n tiling the family resolves the identity
    exactly up to roundoff.  Labels are the cell index pairs (a, b), a-major.
    The cells form a Gabor system: the boosts e^{i k_a x} are the POVM's left
    table and the shifted packets F^dag e^{-i k x_b} F phi its right table,
    with F applied by FFT, so the tables cost O(n^2 log n) time and O(n^2)
    memory; the completeness check is two n x n matrix products.

    Restricting ``p_indices``/``q_indices`` to a partial tiling raises
    IncompleteTiling once the completeness deficit exceeds 1e-6.
    """
    n = g.n_points
    p_idx = list(range(n)) if p_indices is None else [int(a) for a in p_indices]
    q_idx = list(range(n)) if q_indices is None else [int(b) for b in q_indices]
    if len(set(p_idx)) != len(p_idx) or len(set(q_idx)) != len(q_idx):
        raise IncompleteTiling("cells must cover each lattice point at most once")
    x = g.positions
    k = g.wavenumbers
    fourier = _FourierBasis(n)  # V = F^dag
    phi_k = fourier.apply_adjoint(gaussian_packet(g, 0.0, 0.0, packet_width).amplitudes)
    boosts = np.exp(1j * np.outer(k[p_idx], x))
    shifted = fourier.apply(np.exp(-1j * np.outer(k, x[q_idx])) * phi_k[:, None]).T
    n_cells = len(p_idx) * len(q_idx)
    povm = object.__new__(Povm)
    try:
        povm._set_terms(product(p_idx, q_idx), boosts, shifted,
                        np.full(len(q_idx), n / n_cells), np.arange(n_cells), TILING_TOL)
    except InvalidPovm as exc:
        raise IncompleteTiling(str(exc)) from exc
    return povm
