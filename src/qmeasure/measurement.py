"""Born-rule statistics, projective collapse, and generalized (POVM) measurements.

Sharp measurements are driven by an Observable's spectral resolution; unsharp
ones by families of positive effects summing to the identity.  There is
deliberately no collapse operation for POVMs: an effect family fixes outcome
statistics but not a post-measurement state, so conditioning is only defined
here for projective outcomes.
"""

from __future__ import annotations

from collections import abc
from itertools import product
from typing import Hashable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynamics import GridSpace, gaussian_packet
from .errors import DimensionMismatch, ImpossibleOutcome, IncompleteTiling, \
    InvalidDistribution, InvalidPovm, InvalidSmearing
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
            raise InvalidDistribution("one probability per outcome required")
        self.outcomes = outcomes if isinstance(outcomes, _CellLabels) else tuple(outcomes)
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
        raise InvalidDistribution(f"probability {worst[i]:.3e} below clamp limit")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum(axis=-1)
    i = _first(np.abs(total - 1.0) > sum_tol)
    if i is not None:
        raise InvalidDistribution(f"probabilities sum to {float(total[i])!r}, not 1")
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
    of the effect it belongs to.  A flat family has the one left row l = 1
    (``_left`` is None).  The phase-space family's left rows are the boosts
    l_a = sqrt(dim) V[:, cols[a]] of a Fourier basis V (``_left`` is
    ``(V, cols)``), which are never written out, and its right table is real.
    The constructor factors dense effects with ``eigh``, rejecting
    non-Hermitian ones and eigenvalues below -1e-9; positive eigenvalues
    become terms, so a zero effect owns none.  Completeness
    (||sum M - 1||_max <= 1e-8) is evaluated once, at construction.
    ``labels`` is an immutable sequence: a tuple, except for the phase-space
    family, whose a-major cell labels are each computed when read.
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
        self._set_terms(labels, None, vectors, weights, owner, COMPLETENESS_TOL)

    @classmethod
    def from_rank_one(cls, labels: Sequence[Hashable], weights, vectors) -> "Povm":
        """Build sum_k w_k |v_k><v_k| without materializing dense effects."""
        weights = np.asarray(weights, dtype=float)
        vectors = np.asarray(vectors, dtype=complex)
        if weights.min() < -PSD_TOL:
            raise InvalidPovm(f"negative weight {weights.min():.3e}")
        povm = object.__new__(cls)
        povm._set_terms(labels, None, vectors, weights, np.arange(len(weights)),
                        COMPLETENESS_TOL)
        return povm

    def _set_terms(self, labels, left, right, weights, owner, completeness_tol):
        """Store the table and check completeness, the exact sum over every term.

        sum_ij w_j (l_i o r_j)(l_i o r_j)^dag = (L^T conj L) o (R^T diag(w) conj R).
        For boosts, G = L^T conj L = n V[:, cols] V[:, cols]^dag is a circulant
        in x - y.  Every boost is 1 at x = 0, grid index n/2, so its column
        there is one application, G[:, n/2] = sqrt(n) V[:, cols] 1.
        """
        total = (right.T * weights) @ right.conj()
        if left is not None:
            basis, cols = left
            n = right.shape[1]
            h = basis.apply(np.full(len(cols), np.sqrt(n)), cols)
            # G[x, y] = h[(x - y + n/2) mod n]: the windows of h's periodic extension, reversed
            windows = sliding_window_view(np.concatenate((h[n // 2 + 1:], h, h[:n // 2])), n)
            total = windows[:, ::-1] * total
        deficit = _identity_defect(total)
        if deficit > completeness_tol:
            raise InvalidPovm(f"effects sum to identity with defect {deficit:.3e}")
        self.labels = labels if isinstance(labels, _CellLabels) else tuple(labels)
        self.dim, self._deficit = right.shape[1], deficit
        self._left, self._right, self._weights, self._owner = left, right, weights, owner

    def __len__(self):
        return len(self.labels)

    def effect(self, i: int) -> LinearOperator:
        rows, cols = np.divmod(np.flatnonzero(self._owner == i), len(self._right))
        v = self._right[cols]
        if self._left is not None:
            basis, boosts = self._left
            v = v * (np.sqrt(self.dim) * basis.columns(boosts[rows])).T
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
        terms = _pure_terms(povm, state.amplitudes[None])
    elif povm._left is None:
        # <r_j|rho|r_j> is row j's sum of (conj R rho) o R
        r = povm._right
        terms = np.sum((r.conj() @ state.matrix) * r, axis=1).real[None, None]
    else:
        # <l_a o r_b|rho|l_a o r_b> = n (V^dag (conj r_b rho r_b) V)[a, a]: one transform per shift
        basis, boosts = povm._left
        columns = basis.columns(boosts).T
        terms = povm.dim * np.array([
            np.sum(basis.apply_adjoint(r.conj()[:, None] * state.matrix * r, boosts) * columns,
                   axis=1).real for r in povm._right]).T[None]
    probs = _effect_weights(povm, terms)[0]
    return OutcomeDistribution(povm.labels, probs, sum_tol=POVM_SUM_TOL)


def _povm_weights(povm: Povm, psi: np.ndarray) -> np.ndarray:
    """povm_distribution's probabilities for a stack of pure states (m, dim): (m, k).

    Normalized as the OutcomeDistribution of povm_distribution normalizes them.
    """
    return _normalized(_effect_weights(povm, _pure_terms(povm, psi)), POVM_SUM_TOL)


def _pure_terms(povm: Povm, psi: np.ndarray) -> np.ndarray:
    """|<l_i o r_j|psi>|^2 for a stack of states (m, dim): (m, p, q).

    A flat family takes one m x q product conj(psi) R^T.  For boosts,
    <l_a o r_b|psi> = sqrt(n) (V[:, cols]^dag (conj r_b o psi))[a]: one FFT
    along the grid axis of the (n, m, q) products, grid axis first.
    """
    if povm._left is None:
        return np.abs(np.dot(psi.conj(), povm._right.T))[:, None] ** 2
    basis, boosts = povm._left
    products = psi.T[:, :, None] * povm._right.conj().T[:, None, :]
    return povm.dim * np.abs(basis.apply_adjoint(products, boosts).transpose(1, 0, 2)) ** 2


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
    povm._set_terms(list(range(f.shape[0])), None, rows[column], weights[owner, column], owner,
                    COMPLETENESS_TOL)
    return povm


class _CellLabels(abc.Sequence):
    """The labels (p_idx[a], q_idx[b]) of a cell grid, a-major, each computed when read.

    Compares equal to the tuple of the same labels; slicing returns a tuple.
    """

    __slots__ = ("_p", "_q")

    def __init__(self, p_idx: Sequence[int], q_idx: Sequence[int]):
        self._p, self._q = tuple(p_idx), tuple(q_idx)

    def __len__(self):
        return len(self._p) * len(self._q)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        a, b = divmod(range(len(self))[i], len(self._q))
        return self._p[a], self._q[b]

    def __iter__(self):
        return product(self._p, self._q)

    def index(self, label) -> int:
        """The position of the cell label (a, b); ValueError when the grid has no such cell."""
        try:
            a, b = label
            return self._p.index(a) * len(self._q) + self._q.index(b)
        except (TypeError, ValueError):
            raise ValueError(f"{label!r} is not a cell label") from None

    def __eq__(self, other):
        if isinstance(other, (tuple, _CellLabels)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))


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
    exactly up to roundoff.  Labels are the cell index pairs (a, b): an
    immutable a-major sequence that computes each pair when it is read, so
    the n^2 pairs are never stored.
    The cells form a Gabor system.  Its left table is the boosts
    e^{i k_a x} = sqrt(n) V[:, a], the columns ``p_indices`` of the grid's
    Fourier basis V, applied by FFT and never written out.  Its right table
    is the real packet shifted by x_b, which on the periodic grid is exactly
    a roll by b - n/2 steps.  So the family holds O(n^2) memory, and the
    completeness check is one real n x n product times the boosts'
    circulant Gram matrix.

    Restricting ``p_indices``/``q_indices`` to a partial tiling raises
    IncompleteTiling once the completeness deficit exceeds 1e-6.
    """
    n = g.n_points
    p_idx = list(range(n)) if p_indices is None else [int(a) for a in p_indices]
    q_idx = list(range(n)) if q_indices is None else [int(b) for b in q_indices]
    if len(set(p_idx)) != len(p_idx) or len(set(q_idx)) != len(q_idx):
        raise IncompleteTiling("cells must cover each lattice point at most once")
    phi = gaussian_packet(g, 0.0, 0.0, packet_width).amplitudes.real
    shifted = phi[(np.arange(n) - np.array(q_idx)[:, None] + n // 2) % n]
    n_cells = len(p_idx) * len(q_idx)
    povm = object.__new__(Povm)
    try:
        povm._set_terms(_CellLabels(p_idx, q_idx), (_FourierBasis(n), np.array(p_idx)), shifted,
                        np.full(len(q_idx), n / n_cells), np.arange(n_cells), TILING_TOL)
    except InvalidPovm as exc:
        raise IncompleteTiling(str(exc)) from exc
    return povm
