"""Class operators, the decoherence functional, and licensed history probabilities.

A history is one projector chosen from a complete family at each of a
sequence of times, with unitary evolution in between.  The decoherence
functional D(alpha, beta) = Tr(C_alpha rho C_beta^dag) collects the
interference between pairs of histories; its diagonal entries behave as
probabilities exactly when the off-diagonal entries are negligible, which is
what the consistency test checks.  Histories that end in different entries
of the last family never interfere, so D is built one final-entry block at a
time.  Asking for probabilities from an inconsistent family is an error.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .errors import InconsistentFamily, InvalidIndex
from .dynamics import Hamiltonian
from .hilbert import DensityOperator, LinearOperator, PureState, _DenseBasis, _IndexOrder, \
    _hermitian_within_tol, _identity_defect, _projector_range
from .measurement import OutcomeDistribution

FAMILY_TOL = 1e-9
DEFAULT_CONSISTENCY_EPS = 1e-8


class HistorySet:
    """Complete projector families at ordered times, with dynamics and initial state.

    ``families[m]`` is applied at ``times[m]``.  An entry is a projector
    ``LinearOperator``, checked and factored once into its range, a
    ``dim x r`` array ``B`` with orthonormal columns standing for ``B B^dag``
    (so a raw square array is a block, not a projector), or a 1-d integer
    array of basis indices standing for the projector onto those basis
    vectors, the block ``eye[:, idx]``, which is never written out.  A
    family's blocks side by side must form a unitary; a family of index
    sets must hold every index in [0, dim) exactly once, an O(dim) check,
    and may not mix with blocks.  Each family is stored as one
    ``(basis, slices)`` pair, entry a being the columns ``slices[a]`` of
    the basis: an index order (see :mod:`qmeasure.hilbert`) for index sets,
    a dense basis otherwise; the caller's arrays are copied.  Evolution
    starts from ``initial_state`` at t = 0.
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
                elif np.ndim(entry) == 1 and np.asarray(entry).dtype.kind in "iu":
                    block = np.asarray(entry)
                    if block.size and not (block.min() >= 0 and block.max() < dim):
                        raise ValueError(f"family {m} entry {a} has indices outside [0, {dim})")
                    block = block.astype(np.intp)
                else:
                    block = np.asarray(entry, dtype=complex)
                if block.dtype.kind == "c" and (block.ndim != 2 or block.shape[0] != dim):
                    raise ValueError(f"family {m} entry {a} has shape {block.shape}, "
                                     f"expected ({dim}, r)")
                blocks.append(block)
            index_sets = [block.ndim == 1 for block in blocks]
            if any(index_sets) and not all(index_sets):
                raise ValueError(f"family {m} mixes index sets with blocks")
            V = np.concatenate(blocks, axis=-1) if blocks else np.zeros((dim, 0), dtype=complex)
            if V.shape[-1] != dim:
                raise ValueError(f"family {m} spans {V.shape[-1]} of {dim} dimensions "
                                 "and cannot sum to identity")
            if V.ndim == 1:     # (V^dag V)_ij = [idx_i == idx_j]: each count off 1 is a defect
                deficit = float(np.max(np.abs(np.bincount(V, minlength=dim) - 1)))
            else:
                deficit = _identity_defect(V.conj().T @ V)
            if not deficit <= FAMILY_TOL:
                raise ValueError(f"family {m} sums to identity with defect {deficit:.3e}")
            ends = np.cumsum([block.shape[-1] for block in blocks]).tolist()
            slices = tuple(slice(a, b) for a, b in zip([0, *ends], ends))
            checked.append((_IndexOrder(V) if V.ndim == 1 else _DenseBasis(V), slices))
        self.hamiltonian = hamiltonian
        self.initial_state = initial_state
        self.times = tuple(times)
        self.families = tuple(checked)

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(slices) for _, slices in self.families)

    def histories(self) -> list[tuple[int, ...]]:
        """All history labels in lexicographic order."""
        return list(itertools.product(*map(range, self.shape)))

    def _steps(self) -> list[float]:
        prev = [0.0] + list(self.times[:-1])
        return [t - p for t, p in zip(self.times, prev)]

    def __repr__(self):
        return f"HistorySet(dim={self.dim}, times={self.times}, shape={self.shape})"


def class_operator(hs: HistorySet, alpha: Sequence[int]) -> LinearOperator:
    """C_alpha = Pi^n U(t_n - t_{n-1}) ... Pi^1 U(t_1 - t_0), Pi the entry's projector."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != len(hs.families):
        raise InvalidIndex(f"history {alpha} has wrong length for {len(hs.families)} times")
    for m, a in enumerate(alpha):
        if not 0 <= a < hs.shape[m]:
            raise InvalidIndex(f"index {a} invalid for family {m}")
    C = np.eye(hs.dim, dtype=complex)
    for (basis, slices), a, dt in zip(hs.families, alpha, hs._steps()):
        # Pi = B B^dag with B the entry's columns of the family's basis
        C = basis.apply(basis.apply_adjoint(hs.hamiltonian.evolve_amplitudes(C, dt), slices[a]),
                        slices[a])
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


def decoherence_functional(hs: HistorySet) -> DecoherenceFunctional:
    """D(alpha, beta) = Tr(C_alpha rho_0 C_beta^dag) over all history pairs.

    Computed from branches, not class operators: each column sqrt(p_k) v_k
    of rho_0 (|psi> for a pure state) is evolved and split by every family
    but the last, column j into j*len + a, so the newest choice nests
    fastest, as in the labels.  Final entries are orthogonal, so D is exactly
    zero between histories ending in different ones, and entry B_a's block
    is the Gram matrix of the coefficients B_a^dag u of the evolved branches,
    since <B B^dag u|B B^dag v> = <B^dag u|B^dag v>.
    """
    if isinstance(hs.initial_state, PureState):
        columns = hs.initial_state.amplitudes[:, None]
    else:
        evals, evecs = np.linalg.eigh(hs.initial_state.matrix)
        columns = evecs[:, evals > 1e-14] * np.sqrt(evals[evals > 1e-14])
    *earlier, (basis, slices) = hs.families
    *steps, last = hs._steps()
    paths, n = math.prod(hs.shape[:-1]), len(slices)
    D = np.zeros((paths, n, paths, n), dtype=complex)
    for u in columns.T:     # one column at a time keeps the branches at dim x paths
        branches = u[:, None]
        for (family, cuts), dt in zip(earlier, steps):
            evolved = hs.hamiltonian.evolve_amplitudes(branches, dt)
            branches = np.stack([family.apply(family.apply_adjoint(evolved, sl), sl)
                                 for sl in cuts], axis=2).reshape(hs.dim, -1)
        evolved = hs.hamiltonian.evolve_amplitudes(branches, last)
        for a, sl in enumerate(slices):
            c = basis.apply_adjoint(evolved, sl)
            D[:, a, :, a] += c.T @ c.conj()
    return DecoherenceFunctional(hs.histories(), D.reshape(paths * n, -1))


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
