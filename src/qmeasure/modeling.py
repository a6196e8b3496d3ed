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
from .hilbert import LinearOperator, Observable, PureState, _IndexOrder, _born_weights, \
    _identity_defect
from .measurement import OutcomeDistribution

MODEL_TOL = 1e-9
READY_INDEX = 0


class MeasurementModel:
    """A completed system-pointer interaction unitary plus its bookkeeping."""

    __slots__ = ("observable", "pointer_dim", "ready_index", "record_indices",
                 "post_states", "unitary", "system_dim")

    def __init__(self, observable: Observable, pointer_dim: int, ready_index: int,
                 record_indices: Sequence[int], post_states: Sequence[PureState],
                 unitary: LinearOperator):
        ds = observable.dim
        dp = pointer_dim
        if unitary.dim != ds * dp:
            raise DimensionMismatch("unitary does not act on system (x) pointer")
        # the defining property: U|o_i>|ready> = |phi_i>|m_i>, read on a (system, pointer) grid
        ready = _ready_slice(unitary, ds, dp, ready_index)
        for i, (rec, phi) in enumerate(zip(record_indices, post_states)):
            mapped = ready @ observable.eigenbasis(i)[:, 0]
            mapped[:, rec] -= phi.amplitudes
            defect = float(np.max(np.abs(mapped)))
            if defect > MODEL_TOL:
                raise ValueError(f"interaction misses target {i}: defect {defect:.3e}")
        self.observable = observable
        self.pointer_dim = dp
        self.ready_index = int(ready_index)
        self.record_indices = tuple(int(r) for r in record_indices)
        self.post_states = tuple(post_states)
        self.unitary = unitary
        self.system_dim = ds

    def pointer_observable(self) -> Observable:
        """The record variable on the pointer space: diagonal, one level per index."""
        dp = self.pointer_dim
        return Observable._wrap(np.arange(dp), _IndexOrder(np.arange(dp)),
                                [slice(m, m + 1) for m in range(dp)])

    def __repr__(self):
        return (f"MeasurementModel(system={self.system_dim}, "
                f"pointer={self.pointer_dim})")


def _ready_slice(unitary: LinearOperator, ds: int, dp: int, ready_index: int) -> np.ndarray:
    """U[(a, b), (c, ready)] as a (ds, dp, ds) array: ``@ psi`` gives U|psi>|ready> as a grid."""
    return unitary.matrix.reshape(ds, dp, ds, dp)[..., ready_index]


def _orthonormal_complement(columns: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the complement of given columns."""
    dim, n = columns.shape
    if n == dim:
        return np.zeros((dim, 0), dtype=complex)
    u, _, _ = np.linalg.svd(columns, full_matrices=True)
    return u[:, n:]


def build_measurement_unitary(obs: Observable,
                              post_states: Sequence[PureState] | None = None,
                              pointer_dim: int | None = None) -> MeasurementModel:
    """Complete the partially specified interaction to a full unitary.

    ``obs`` must be nondegenerate (one eigenstate per outcome).  The
    disturbance map ``post_states`` defaults to the eigenstates themselves
    (a non-disturbing measurement); the |phi_i> need not be orthogonal, and
    may even all coincide (an absorbing measurement).  The pointer has
    ``pointer_dim`` levels (default: one record per outcome plus the ready
    state).  The ready state is pointer level 0 and the records occupy
    levels 1 .. n.

    The interaction is pinned only on the (eigenstate, ready) slice; the rest
    of the unitary is filled in by pairing deterministic orthonormal
    complements of the source and image sets.  All measurement statistics
    computed here are independent of that completion choice.

    Raises NonExtendable if the mapped image vectors fail to be orthonormal
    (possible only with invalid inputs, since orthogonal pointer records make
    the images orthonormal for any normalized |phi_i>).
    """
    ds = obs.dim
    n_out = obs.n_outcomes
    if n_out != ds:
        raise ValueError("observable must be nondegenerate "
                         f"({n_out} outcomes on a dim-{ds} system)")
    if pointer_dim is None:
        pointer_dim = n_out + 1
    if pointer_dim < n_out + 1:
        raise ValueError(f"pointer needs at least {n_out + 1} levels")
    if post_states is None:
        post_states = [PureState(obs.eigenbasis(i)[:, 0]) for i in range(n_out)]
    post_states = list(post_states)
    if len(post_states) != n_out:
        raise ValueError("one post-measurement state per outcome required")
    for phi in post_states:
        if phi.dim != ds:
            raise DimensionMismatch("post-measurement state lives off the system")
    record_indices = list(range(READY_INDEX + 1, READY_INDEX + 1 + n_out))

    # column i of each: |o_i>|ready> and |phi_i>|m_i> on a (system, pointer) grid
    sources = np.zeros((ds, pointer_dim, n_out), dtype=complex)
    images = np.zeros_like(sources)
    sources[:, READY_INDEX] = np.hstack([obs.eigenbasis(i) for i in range(n_out)])
    images[:, record_indices, range(n_out)] = np.transpose([phi.amplitudes for phi in post_states])
    sources, images = (a.reshape(ds * pointer_dim, n_out) for a in (sources, images))
    gram = images.conj().T @ images
    defect = _identity_defect(gram)
    if defect > MODEL_TOL:
        raise NonExtendable(f"image vectors not orthonormal: defect {defect:.3e}")

    source_full = np.hstack([sources, _orthonormal_complement(sources)])
    image_full = np.hstack([images, _orthonormal_complement(images)])
    U = image_full @ source_full.conj().T
    unitarity = _identity_defect(U.conj().T @ U)
    if unitarity > MODEL_TOL:
        raise NonExtendable(f"completion failed: unitarity defect {unitarity:.3e}")
    return MeasurementModel(obs, pointer_dim, READY_INDEX, record_indices,
                            post_states, LinearOperator._wrap(U))


def modeled_single_measurement(state: PureState, model: MeasurementModel) -> OutcomeDistribution:
    """Couple, evolve, and read the pointer; outcomes carry the system labels.

    The returned distribution assigns the probability of pointer record m_i
    to the system eigenvalue o_i, so it is directly comparable with the Born
    distribution of the measured observable.
    """
    if state.dim != model.system_dim:
        raise DimensionMismatch(f"state dim {state.dim} vs system dim {model.system_dim}")
    grid = _ready_slice(model.unitary, model.system_dim, model.pointer_dim,
                        model.ready_index) @ state.amplitudes
    probs = [float(np.sum(np.abs(grid[:, rec]) ** 2)) for rec in model.record_indices]
    labels = [float(v) for v in model.observable.eigenvalues]
    return OutcomeDistribution(labels, probs)


def repeated_measurement_joint(state: PureState, model: MeasurementModel,
                               n_repeats: int = 2) -> OutcomeDistribution:
    """Joint record statistics of two back-to-back modeled measurements.

    Two fresh pointers, both ready, interact with the system in sequence;
    the joint distribution over (first record, second record) is read off
    the final state with the Born rule.  Outcome labels are eigenvalue
    pairs (o_i, o_j).
    """
    if n_repeats != 2:
        raise ValueError("only two successive measurements are modeled")
    if state.dim != model.system_dim:
        raise DimensionMismatch(f"state dim {state.dim} vs system dim {model.system_dim}")
    ds, dp = model.system_dim, model.pointer_dim
    psi = np.zeros((ds, dp, dp), dtype=complex)
    psi[:, model.ready_index, model.ready_index] = state.amplitudes
    U = model.unitary.matrix.reshape(ds, dp, ds, dp)
    psi = np.einsum("abij,ijc->abc", U, psi)
    psi = np.einsum("acij,ibj->abc", U, psi)
    probs, labels = [], []
    vals = model.observable.eigenvalues
    for i, ri in enumerate(model.record_indices):
        for j, rj in enumerate(model.record_indices):
            labels.append((float(vals[i]), float(vals[j])))
            probs.append(float(np.sum(np.abs(psi[:, ri, rj]) ** 2)))
    return OutcomeDistribution(labels, probs)


def collapse_rule_joint(state: PureState, obs: Observable) -> OutcomeDistribution:
    """The textbook two-measurement prediction: collapse forces repetition.

    Pr(o_i, o_j) = delta_ij <psi|Pi_i|psi>; all off-diagonal pairs carry
    probability zero.
    """
    if state.dim != obs.dim:
        raise DimensionMismatch(f"state dim {state.dim} vs observable dim {obs.dim}")
    vals = [float(v) for v in obs.eigenvalues]
    return OutcomeDistribution(list(itertools.product(vals, vals)),
                               np.diag(_born_weights(obs, state.amplitudes)).ravel())
