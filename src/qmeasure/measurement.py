"""Born-rule statistics, projective collapse, and generalized (POVM) measurements.

Sharp measurements are driven by an Observable's spectral resolution; unsharp
ones by families of positive effects summing to the identity.  There is
deliberately no collapse operation for POVMs: an effect family fixes outcome
statistics but not a post-measurement state, so conditioning is only defined
here for projective outcomes.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from .dynamics import GridSpace, fourier_map, gaussian_packet
from .errors import DimensionMismatch, ImpossibleOutcome, IncompleteTiling, \
    InvalidPovm, InvalidSmearing
from .hilbert import LinearOperator, Observable, PureState, State, _born_weights, \
    _hermitian_within_tol, _identity_defect, hermiticity_defect

NEGATIVE_CLAMP_LIMIT = 1e-9
PSD_TOL = 1e-9
COMPLETENESS_TOL = 1e-8
TILING_TOL = 1e-6


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
        worst = float(probs.min()) if probs.size else 0.0
        if worst < -NEGATIVE_CLAMP_LIMIT:
            raise ValueError(f"probability {worst:.3e} below clamp limit")
        probs = np.clip(probs, 0.0, None)
        total = float(probs.sum())
        if abs(total - 1.0) > sum_tol:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        self.outcomes = tuple(outcomes)
        self.probabilities = probs / total
        self.probabilities.setflags(write=False)

    def probability(self, outcome) -> float:
        return float(self.probabilities[self.outcomes.index(outcome)])

    def as_dict(self) -> dict:
        return dict(zip(self.outcomes, (float(p) for p in self.probabilities)))

    def __len__(self):
        return len(self.outcomes)

    def __repr__(self):
        pairs = ", ".join(f"{o}: {p:.6g}" for o, p in self.as_dict().items())
        return f"OutcomeDistribution({pairs})"


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
        probs = _born_weights(obs, state.amplitudes)
    else:
        probs = [float(np.real(np.sum(block.conj() * (state.matrix @ block))))
                 for block in map(obs.eigenbasis, range(obs.n_outcomes))]
    return OutcomeDistribution([float(v) for v in obs.eigenvalues], probs)


def collapse(state: PureState, obs: Observable, outcome: float) -> PureState:
    """Project onto the eigenspace of ``outcome`` and renormalize.

    ``outcome`` is the eigenvalue label.  Raises ImpossibleOutcome when the
    outcome's Born weight is at most 1e-12, i.e. when one would be
    conditioning on an event of numerically zero probability.
    """
    if state.dim != obs.dim:
        raise DimensionMismatch(f"state dim {state.dim} vs observable dim {obs.dim}")
    i = obs.outcome_index(outcome)
    block = obs.eigenbasis(i)
    coeff = block.conj().T @ state.amplitudes
    weight = float(np.sum(np.abs(coeff) ** 2))
    if weight <= 1e-12:
        raise ImpossibleOutcome(
            f"outcome {outcome} has probability {weight:.3e}")
    return PureState(block @ coeff)


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

    Every family is stored as weighted rank-one terms w_k |v_k><v_k|, each
    tagged with the index of the effect it belongs to.  The constructor
    factors dense effects with ``eigh``, rejecting non-Hermitian ones and
    eigenvalues below -1e-9; positive eigenvalues become terms, so a zero
    effect owns none.  :meth:`from_rank_one` takes one term per effect, as
    the phase-space family needs; :func:`build_fuzzy_povm` passes its terms
    directly.  Completeness (||sum M - 1||_max <= 1e-8)
    is evaluated once, at construction.
    """

    __slots__ = ("labels", "dim", "_weights", "_vectors", "_owner", "_deficit")

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
        self._set_terms(labels, weights, vectors, owner, COMPLETENESS_TOL)

    @classmethod
    def from_rank_one(cls, labels: Sequence[Hashable], weights, vectors,
                      completeness_tol: float = COMPLETENESS_TOL) -> "Povm":
        """Build sum_k w_k |v_k><v_k| without materializing dense effects."""
        weights = np.asarray(weights, dtype=float)
        vectors = np.asarray(vectors, dtype=complex)
        if weights.min() < -PSD_TOL:
            raise InvalidPovm(f"negative weight {weights.min():.3e}")
        povm = object.__new__(cls)
        povm._set_terms(labels, weights, vectors, np.arange(len(weights)), completeness_tol)
        return povm

    def _set_terms(self, labels, weights, vectors, owner, completeness_tol):
        dim = vectors.shape[1]
        total = np.einsum("kr,k,kc->rc", vectors, weights, vectors.conj())
        deficit = _identity_defect(total)
        if deficit > completeness_tol:
            raise InvalidPovm(f"effects sum to identity with defect {deficit:.3e}")
        self.labels, self.dim, self._deficit = tuple(labels), dim, deficit
        self._weights, self._vectors, self._owner = weights, vectors, owner

    def __len__(self):
        return len(self.labels)

    def effect(self, i: int) -> LinearOperator:
        terms = self._owner == i
        v = self._vectors[terms]
        return LinearOperator._wrap((v.T * self._weights[terms]) @ v.conj())

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
        amps = povm._vectors.conj() @ state.amplitudes
        terms = povm._weights * np.abs(amps) ** 2
    else:
        terms = povm._weights * np.real(np.einsum(
            "kr,rc,kc->k", povm._vectors.conj(), state.matrix, povm._vectors))
    probs = np.bincount(povm._owner, weights=terms, minlength=len(povm.labels))
    return OutcomeDistribution(povm.labels, probs, sum_tol=1e-8)


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
    povm._set_terms(list(range(f.shape[0])), weights[owner, column], rows[column], owner,
                    COMPLETENESS_TOL)
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
    exactly up to roundoff.  Labels are the cell index pairs (a, b).

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
    F = fourier_map(g)
    Fh = F.conj().T
    phi = gaussian_packet(g, 0.0, 0.0, packet_width).amplitudes
    phi_k = F @ phi
    n_cells = len(p_idx) * len(q_idx)
    weight = n / n_cells
    shifted = {b: Fh @ (np.exp(-1j * k * x[b]) * phi_k) for b in q_idx}
    labels = []
    vectors = np.empty((n_cells, n), dtype=complex)
    row = 0
    for a in p_idx:
        boost = np.exp(1j * x * k[a])
        for b in q_idx:
            vectors[row] = boost * shifted[b]
            labels.append((a, b))
            row += 1
    try:
        return Povm.from_rank_one(labels, np.full(n_cells, weight), vectors,
                                  completeness_tol=TILING_TOL)
    except InvalidPovm as exc:
        raise IncompleteTiling(str(exc)) from exc
