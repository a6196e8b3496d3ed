"""Class operators, the decoherence functional, and licensed history probabilities.

A history is one projector chosen from a complete family at each of a
sequence of times, with unitary evolution in between.  The decoherence
functional D(alpha, beta) = Tr(C_alpha rho C_beta^dag) collects the
interference between pairs of histories; its diagonal entries behave as
probabilities exactly when the off-diagonal entries are negligible, which is
what the consistency test checks.  Asking for probabilities from an
inconsistent family is an error, not a number.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .errors import InconsistentFamily, InvalidIndex
from .dynamics import Hamiltonian
from .hilbert import DensityOperator, LinearOperator, PureState, _hermitian_within_tol, \
    _identity_defect, _projector_range
from .measurement import OutcomeDistribution

FAMILY_TOL = 1e-9
DEFAULT_CONSISTENCY_EPS = 1e-8


class HistorySet:
    """Complete projector families at ordered times, with dynamics and initial state.

    ``families[m]`` is applied at ``times[m]``.  An entry is a projector
    ``LinearOperator``, checked and factored once into its range, or a
    ``dim x r`` array ``B`` with orthonormal columns standing for ``B B^dag``
    (so a raw square array is a block, not a projector).  A family's blocks
    side by side must form a unitary; only the blocks are stored.
    Evolution starts from ``initial_state`` at t = 0.
    """

    __slots__ = ("hamiltonian", "initial_state", "times", "families")

    def __init__(self, hamiltonian: Hamiltonian,
                 initial_state: PureState | DensityOperator,
                 times: Sequence[float],
                 families: Sequence[Sequence[LinearOperator | np.ndarray]]):
        times = [float(t) for t in times]
        if len(times) != len(families):
            raise ValueError("one projector family per time required")
        if not times:
            raise ValueError("at least one time required")
        if times[0] < 0.0 or any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"times {times} must be strictly increasing from 0")
        dim = hamiltonian.dim
        if initial_state.dim != dim:
            raise ValueError("initial state does not match the Hamiltonian")
        checked = []
        for m, family in enumerate(families):
            blocks = []
            for a, entry in enumerate(family):
                if isinstance(entry, LinearOperator):
                    block, defect = _projector_range(entry.matrix)
                    if block is None:
                        raise ValueError(
                            f"family {m} entry {a} is not a projector: defect {defect:.3e}")
                else:   # a view, so freezing it leaves the caller's array writable
                    block = np.asarray(entry, dtype=complex).view()
                if block.ndim != 2 or block.shape[0] != dim:
                    raise ValueError(f"family {m} entry {a} has shape {block.shape}, "
                                     f"expected ({dim}, r)")
                block.setflags(write=False)
                blocks.append(block)
            V = np.hstack(blocks) if blocks else np.zeros((dim, 0), dtype=complex)
            if V.shape[1] != dim:
                raise ValueError(f"family {m} spans {V.shape[1]} of {dim} dimensions "
                                 "and cannot sum to identity")
            deficit = _identity_defect(V.conj().T @ V)
            if not deficit <= FAMILY_TOL:
                raise ValueError(f"family {m} sums to identity with defect {deficit:.3e}")
            checked.append(tuple(blocks))
        self.hamiltonian = hamiltonian
        self.initial_state = initial_state
        self.times = tuple(times)
        self.families = tuple(checked)

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.families)

    def histories(self) -> list[tuple[int, ...]]:
        """All history labels in lexicographic order."""
        return list(itertools.product(*(range(len(f)) for f in self.families)))

    def _steps(self) -> list[float]:
        prev = [0.0] + list(self.times[:-1])
        return [t - p for t, p in zip(self.times, prev)]

    def __repr__(self):
        return f"HistorySet(dim={self.dim}, times={self.times}, shape={self.shape})"


def class_operator(hs: HistorySet, alpha: Sequence[int]) -> LinearOperator:
    """C_alpha = Pi^n U(t_n - t_{n-1}) ... Pi^1 U(t_1 - t_0), with Pi = B B^dag."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != len(hs.families):
        raise InvalidIndex(f"history {alpha} has wrong length for {len(hs.families)} times")
    for m, a in enumerate(alpha):
        if not 0 <= a < len(hs.families[m]):
            raise InvalidIndex(f"index {a} invalid for family {m}")
    C = np.eye(hs.dim, dtype=complex)
    for m, dt in enumerate(hs._steps()):
        B = hs.families[m][alpha[m]]
        C = B @ (B.conj().T @ hs.hamiltonian.evolve_amplitudes(C, dt))
    return LinearOperator._wrap(C)


class DecoherenceFunctional:
    """The Hermitian pair matrix D(alpha, beta) over a history set's labels."""

    __slots__ = ("histories", "matrix")

    def __init__(self, histories: Sequence[tuple[int, ...]], matrix):
        mat = np.asarray(matrix, dtype=complex)
        n = len(histories)
        if mat.shape != (n, n):
            raise ValueError("one matrix entry per history pair required")
        if not _hermitian_within_tol(mat):
            raise ValueError("decoherence functional must be Hermitian")
        diag = np.diagonal(mat)
        if float(np.max(np.abs(diag.imag))) > 1e-10 or float(diag.real.min()) < -1e-10:
            raise ValueError("diagonal must be real and nonnegative")
        total = complex(mat.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"entries sum to {total}, not 1")
        self.histories = tuple(tuple(h) for h in histories)
        self.matrix = mat
        self.matrix.setflags(write=False)

    def diagonal(self) -> np.ndarray:
        return np.real(np.diagonal(self.matrix)).copy()

    def __repr__(self):
        return f"DecoherenceFunctional(n_histories={len(self.histories)})"


def _branch_vectors(hs: HistorySet, start: np.ndarray) -> np.ndarray:
    """Evolve-and-split a single initial vector; one row per history.

    Splitting v into [P_0 v, P_1 v, ...] nests the newest choice fastest,
    which is the lexicographic order of the labels.
    """
    branches = start[:, None]
    for m, dt in enumerate(hs._steps()):
        evolved = hs.hamiltonian.evolve_amplitudes(branches, dt)
        # axis 2 is the new choice: column j of ``evolved`` splits into j*len + a
        split = np.stack([B @ (B.conj().T @ evolved) for B in hs.families[m]], axis=2)
        branches = split.reshape(hs.dim, -1)
    return branches.T


def decoherence_functional(hs: HistorySet) -> DecoherenceFunctional:
    """D(alpha, beta) = Tr(C_alpha rho_0 C_beta^dag) over all history pairs.

    Computed from branch vectors rather than materialized class operators:
    for a pure initial state D is the Gram matrix of the history branches
    of |psi>, and a mixed initial state contributes one weighted Gram matrix
    per eigenvector.
    """
    labels = hs.histories()
    if isinstance(hs.initial_state, PureState):
        Y = _branch_vectors(hs, hs.initial_state.amplitudes)
        D = Y @ Y.conj().T
    else:
        evals, evecs = np.linalg.eigh(hs.initial_state.matrix)
        D = np.zeros((len(labels), len(labels)), dtype=complex)
        for p, vec in zip(evals, evecs.T):
            if p <= 1e-14:
                continue
            Y = _branch_vectors(hs, vec.astype(complex))
            D += p * (Y @ Y.conj().T)
    return DecoherenceFunctional(labels, D)


def is_consistent(D: DecoherenceFunctional,
                  eps: float = DEFAULT_CONSISTENCY_EPS) -> tuple[bool, float]:
    """Test |D(a,b)| <= eps * sqrt(D(a,a) D(b,b)) for all pairs a != b.

    Returns (verdict, worst ratio).  Pairs with a zero diagonal weight pass
    vacuously: an impossible history cannot interfere with anything.
    """
    diag = np.clip(D.diagonal(), 0.0, None)
    scale = np.sqrt(np.outer(diag, diag))
    pairs = np.triu(scale > 0.0, k=1)
    # hypot rounds as scalar abs() does; np.abs on complex arrays may differ in the last bit
    ratios = np.hypot(D.matrix.real[pairs], D.matrix.imag[pairs]) / scale[pairs]
    worst = float(ratios.max(initial=0.0))
    return worst <= eps, worst


def history_probabilities(D: DecoherenceFunctional,
                          eps: float = DEFAULT_CONSISTENCY_EPS) -> OutcomeDistribution:
    """The diagonal of a consistent functional, as a genuine distribution.

    Raises InconsistentFamily when the consistency test fails: the diagonal
    weights of an interfering family violate additivity and are not
    probabilities.  For a consistent family the weights sum to 1 up to the
    tolerated off-diagonal mass, and coarse-graining is additive within
    2 * eps.
    """
    ok, worst = is_consistent(D, eps)
    if not ok:
        raise InconsistentFamily(
            f"worst off-diagonal ratio {worst:.3e} exceeds eps={eps:.1e}")
    n = len(D.histories)
    slack = max(1e-10, eps * n * n)
    return OutcomeDistribution(D.histories, D.diagonal(), sum_tol=slack)


def coarse_grain(D: DecoherenceFunctional,
                 groups: Sequence[Sequence[tuple[int, ...]]]) -> DecoherenceFunctional:
    """Merge histories: entries of the coarse functional are block sums.

    ``groups`` must partition the history labels.  The merged label is the
    tuple of merged histories; merging alpha and beta gives diagonal weight
    D(a,a) + D(b,b) + 2 Re D(a,b).
    """
    index = {h: i for i, h in enumerate(D.histories)}
    seen: set[tuple[int, ...]] = set()
    group_indices = []
    for group in groups:
        idx = []
        for h in group:
            h = tuple(h)
            if h not in index:
                raise InvalidIndex(f"unknown history {h}")
            if h in seen:
                raise InvalidIndex(f"history {h} appears in two groups")
            seen.add(h)
            idx.append(index[h])
        group_indices.append(idx)
    if len(seen) != len(D.histories):
        raise InvalidIndex("groups must cover every history")
    indicator = np.zeros((len(group_indices), len(D.histories)))
    for a, ia in enumerate(group_indices):
        indicator[a, ia] = 1.0
    mat = indicator @ D.matrix @ indicator.T
    labels = [tuple(tuple(D.histories[i]) for i in ia) for ia in group_indices]
    return DecoherenceFunctional(labels, mat)
