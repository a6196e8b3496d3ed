"""Measurement modeled as a physical interaction with a pointer system.

A measurement of a nondegenerate observable is modeled by a unitary on
system (x) pointer that maps each eigenstate, with the pointer ready, to a
designated post-measurement system state paired with a distinct pointer
record:

    |o_i> (x) |ready>  ->  |phi_i> (x) |m_i>

Reading the pointer with the Born rule then reproduces the system's Born
statistics exactly, whatever the |phi_i> are.  Whether a *repeated*
measurement agrees with the first depends entirely on the disturbance map
i -> |phi_i>: only |phi_i> = |o_i> gives repeatable outcomes.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NonExtendable
from .hilbert import LinearOperator, Observable, PureState, _adjoint, _first, _freeze, \
    _identity_defect
from .measurement import OutcomeDistribution, _normalized

MODEL_TOL = 1e-9
READY_INDEX = 0


class MeasurementModel:
    """The system-pointer interaction, held as its isometry W, plus its bookkeeping.

    W = sum_i |phi_i>|m_i><o_i| is the interaction's ready slice, U|psi>|ready>
    = W|psi>: a (ds*dp) x ds array whose row a*dp + b is amplitude (a, b) of
    the (system, pointer) grid.  The pointer has dp = n + 1 levels: ready at
    READY_INDEX, outcome i's record m_i at READY_INDEX + 1 + i.  The
    constructor copies W and checks that it is an isometry (the Gram check
    max|W^dag W - 1| <= 1e-9, so W extends to a unitary; else NonExtendable)
    and that it maps each |o_i> to |phi_i>|m_i> within 1e-9 (else
    ValueError).  The full unitary is completed only when :attr:`unitary` is read.
    """

    __slots__ = ("observable", "post_states", "isometry", "_unitary")
    ready_index = READY_INDEX

    def __init__(self, observable: Observable, post_states: Sequence[PureState], isometry):
        ds, n = observable.dim, observable.n_outcomes
        isometry = np.array(isometry, dtype=complex)
        if isometry.shape != (ds * (n + 1), ds):
            raise DimensionMismatch("isometry does not map the system into system (x) pointer")
        if len(post_states) != n:
            raise ValueError("one record and one post-measurement state per outcome required")
        # the first eigenvector of each outcome: the observable's |o_i>
        sources = observable._basis.columns([sl.start for sl in observable._slices])
        _check_models(isometry[None], sources[None],
                      np.array([phi.amplitudes for phi in post_states])[None])
        self.observable = observable
        self.post_states = tuple(post_states)
        self.isometry = _freeze(isometry)
        self._unitary = None

    @property
    def system_dim(self) -> int:
        return self.observable.dim

    @property
    def pointer_dim(self) -> int:
        return self.observable.n_outcomes + 1

    @property
    def record_indices(self) -> tuple[int, ...]:
        return tuple(range(READY_INDEX + 1, READY_INDEX + self.pointer_dim))

    @property
    def unitary(self) -> LinearOperator:
        """The full interaction on system (x) pointer, completed from W on first read.

        W fills the columns with the pointer ready, and a deterministic
        orthonormal complement of W's range fills the others in order.  No
        statistic computed here depends on that choice.  Raises NonExtendable
        if the completion's unitarity defect exceeds 1e-9.
        """
        if self._unitary is None:
            ds, dp = self.system_dim, self.pointer_dim
            U = np.empty((ds * dp, ds, dp), dtype=complex)
            U[:, :, READY_INDEX] = self.isometry
            U[:, :, np.arange(dp) != READY_INDEX] = _orthonormal_complement(
                self.isometry).reshape(ds * dp, ds, dp - 1)
            U = U.reshape(ds * dp, ds * dp)
            unitarity = _identity_defect(U.conj().T @ U)
            if unitarity > MODEL_TOL:
                raise NonExtendable(f"completion failed: unitarity defect {unitarity:.3e}")
            self._unitary = LinearOperator(U)
        return self._unitary


def _checked_isometries(sources: np.ndarray, post: np.ndarray) -> np.ndarray:
    """build_measurement_unitary's W for a stack of models, checked as the constructor checks it.

    ``sources`` (m, n, n) holds each nondegenerate observable's eigenbasis
    and ``post`` (m, n, n) its |phi_i> as rows.
    """
    isometries = _isometries(sources, post)
    _check_models(isometries, sources, post)
    return isometries


def _modeled_weights(isometries: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """modeled_single_measurement's probabilities for a stack of states psi (m, n): (m, n).

    ``isometries`` is one W shared by all states, or a stack of them, one per
    state.  The weights are normalized as OutcomeDistribution normalizes them.
    """
    return _normalized(_record_weights(isometries, psi))


def _isometries(sources: np.ndarray, post: np.ndarray) -> np.ndarray:
    """W = sum_i |phi_i>|m_i><o_i| for a stack of models.

    ``sources`` (m, ds, n) holds the |o_i> as columns and ``post`` (m, n, ds)
    the |phi_i> as rows; each W is (ds*(n+1), ds), one product per entry.
    """
    m, ds, n = sources.shape
    isometries = np.zeros((m, ds, n + 1, ds), dtype=complex)
    isometries[:, :, READY_INDEX + 1:] = np.einsum("tia,tci->taic", post, sources.conj())
    return isometries.reshape(m, ds * (n + 1), ds)


def _check_models(isometries: np.ndarray, sources: np.ndarray, post: np.ndarray):
    """The model checks for a stack of W (m, ds*dp, ds), |o_i> columns and |phi_i> rows.

    The Gram check max|W^dag W - 1| <= 1e-9 proves that each W extends to a
    unitary (else NonExtendable); the defining property W|o_i> = |phi_i>|m_i>
    is read on the (system, pointer) grid within 1e-9 (else ValueError).
    """
    m, ds, n = sources.shape
    gram = _identity_defect(_adjoint(isometries) @ isometries)
    i = _first(gram > MODEL_TOL)
    if i is not None:
        raise NonExtendable(f"interaction is not an isometry: Gram defect {gram[i]:.3e}")
    mapped = (isometries @ sources).reshape(m, ds, -1, n)
    mapped[:, :, READY_INDEX + 1:][:, :, range(n), range(n)] -= np.swapaxes(post, 1, 2)
    defect = np.max(np.abs(mapped), axis=(1, 2))
    i = _first(defect > MODEL_TOL)
    if i is not None:
        raise ValueError(f"interaction misses target {i % n}: defect {defect.flat[i]:.3e}")


def _record_weights(isometries: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The Born weight of each record m_i in W|psi>, read on the (system, pointer) grid.

    ``isometries`` is one W shared by all states or a stack (m, ds*dp, ds);
    ``psi`` is a stack of states (m, ds); the weights are (m, n).
    """
    grid = (isometries @ psi[:, :, None]).reshape(*psi.shape, -1)
    return np.sum(np.abs(grid[:, :, READY_INDEX + 1:]) ** 2, axis=1)


def _orthonormal_complement(columns: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the complement of given columns."""
    n = columns.shape[1]
    u, _, _ = np.linalg.svd(columns, full_matrices=True)
    return u[:, n:]


def build_measurement_unitary(obs: Observable,
                              post_states: Sequence[PureState] | None = None) -> MeasurementModel:
    """The interaction that maps |o_i>|ready> to |phi_i>|m_i>, held as its isometry.

    ``obs`` must be nondegenerate (one eigenstate per outcome).  The
    disturbance map ``post_states`` defaults to the eigenstates themselves
    (a non-disturbing measurement); the |phi_i> need not be orthogonal, and
    may even all coincide (an absorbing measurement).  The pointer is ready
    at level 0 and records outcome i at level i + 1, n + 1 levels in all.

    The interaction is pinned only on the (eigenstate, ready) slice, the
    isometry W the model holds; the rest of the unitary is completed when
    ``model.unitary`` is read.  All measurement statistics computed here read
    W alone, so they are independent of that completion choice.

    Raises NonExtendable if W fails the Gram check (possible only with
    invalid inputs, since orthogonal pointer records make the images
    orthonormal for any normalized |phi_i>).
    """
    ds, n_out = obs.dim, obs.n_outcomes
    if n_out != ds:
        raise ValueError("observable must be nondegenerate "
                         f"({n_out} outcomes on a dim-{ds} system)")
    if post_states is None:
        post_states = [PureState(obs.eigenbasis(i)[:, 0]) for i in range(n_out)]
    post_states = list(post_states)
    if len(post_states) != n_out:
        raise ValueError("one post-measurement state per outcome required")
    for phi in post_states:
        if phi.dim != ds:
            raise DimensionMismatch("post-measurement state lives off the system")
    isometry = _isometries(obs._basis.columns()[None],
                           np.array([phi.amplitudes for phi in post_states])[None])[0]
    return MeasurementModel(obs, post_states, isometry)


def modeled_single_measurement(state: PureState, model: MeasurementModel) -> OutcomeDistribution:
    """Couple, evolve, and read the pointer; outcomes carry the system labels.

    The returned distribution assigns the probability of pointer record m_i
    to the system eigenvalue o_i, so it is directly comparable with the Born
    distribution of the measured observable.
    """
    if state.dim != model.system_dim:
        raise DimensionMismatch(f"state dim {state.dim} vs system dim {model.system_dim}")
    probs = _record_weights(model.isometry, state.amplitudes[None])[0]
    labels = [float(v) for v in model.observable.eigenvalues]
    return OutcomeDistribution(labels, probs)


def repeated_measurement_joint(state: PureState, model: MeasurementModel) -> OutcomeDistribution:
    """Joint record statistics of two back-to-back modeled measurements.

    Two fresh pointers, both ready, interact with the system in sequence;
    the joint distribution over (first record, second record) is read off
    the final state with the Born rule.  Each pointer is ready when its
    interaction starts, so both steps apply W.  Outcome labels are
    eigenvalue pairs (o_i, o_j).
    """
    if state.dim != model.system_dim:
        raise DimensionMismatch(f"state dim {state.dim} vs system dim {model.system_dim}")
    ds, dp = model.system_dim, model.pointer_dim
    first = (model.isometry @ state.amplitudes).reshape(ds, dp)       # (a, b1)
    psi = (model.isometry @ first).reshape(ds, dp, dp)                 # (a, b2, b1)
    records = np.sum(np.abs(psi[:, READY_INDEX + 1:, READY_INDEX + 1:]) ** 2, axis=0)
    vals = [float(v) for v in model.observable.eigenvalues]
    # records[j, i] is the weight of (o_i, o_j)
    return OutcomeDistribution(list(itertools.product(vals, vals)), records.T.ravel())


def collapse_rule_joint(state: PureState, obs: Observable) -> OutcomeDistribution:
    """The textbook two-measurement prediction: collapse forces repetition.

    Pr(o_i, o_j) = delta_ij <psi|Pi_i|psi>; all off-diagonal pairs carry
    probability zero.
    """
    if state.dim != obs.dim:
        raise DimensionMismatch(f"state dim {state.dim} vs observable dim {obs.dim}")
    vals = [float(v) for v in obs.eigenvalues]
    return OutcomeDistribution(list(itertools.product(vals, vals)),
                               np.diag(obs._weights(state.amplitudes)).ravel())
