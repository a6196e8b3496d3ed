"""Class operators, the decoherence functional, and licensed history probabilities.

A history is one projector chosen from a complete family at each of a
sequence of times, with unitary evolution in between.  The decoherence
functional D(alpha, beta) = Tr(C_alpha rho C_beta^dag) collects the
interference between pairs of histories; its diagonal entries behave as
probabilities exactly when the off-diagonal entries are negligible, which is
what the consistency test checks.  Histories that end in different entries
of the last family never interfere, so D is block-diagonal by final entry,
and the blocks of all final entries of one width come from one batched
product.  D is stored as those blocks and is dense only when read: the
consistency test compares pairs inside each block and coarse-graining sums
the block entries by group.  Asking for probabilities from an inconsistent
family is an error.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .errors import InconsistentFamily, InvalidHistorySet, InvalidIndex
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
            raise InvalidHistorySet("one projector family per time required")
        if not times:
            raise InvalidHistorySet("at least one time required")
        if times[0] < 0.0 or any(b <= a for a, b in zip(times, times[1:])):
            raise InvalidHistorySet(f"times {times} must be strictly increasing from 0")
        dim = hamiltonian.dim
        if initial_state.dim != dim:
            raise InvalidHistorySet("initial state does not match the Hamiltonian")
        checked = []
        for m, family in enumerate(families):
            blocks = []
            for a, entry in enumerate(family):
                if isinstance(entry, LinearOperator):
                    block, defect = _projector_range(entry.matrix)
                    if block is None:
                        raise InvalidHistorySet(
                            f"family {m} entry {a} is not a projector: defect {defect:.3e}")
                else:
                    block = np.asarray(entry)
                    if not (block.ndim == 1 and block.dtype.kind in "iu"):
                        block = block.astype(complex, copy=False)
                if block.dtype.kind == "c" and (block.ndim != 2 or block.shape[0] != dim):
                    raise InvalidHistorySet(f"family {m} entry {a} has shape {block.shape}, "
                                            f"expected ({dim}, r)")
                blocks.append(block)
            index_sets = [block.ndim == 1 for block in blocks]
            if any(index_sets) and not all(index_sets):
                raise InvalidHistorySet(f"family {m} mixes index sets with blocks")
            ends = np.cumsum([block.shape[-1] for block in blocks], dtype=np.intp)
            if blocks and index_sets[0]:    # one range check; unsigned past intp wraps negative
                V = np.concatenate(blocks, dtype=np.intp, casting="unsafe")
                if V.size and not (V.min() >= 0 and V.max() < dim):
                    first = np.argmax((V < 0) | (V >= dim))
                    a = int(np.searchsorted(ends, first, side="right"))
                    raise InvalidHistorySet(f"family {m} entry {a} has indices outside [0, {dim})")
            else:
                V = np.concatenate(blocks, axis=1) if blocks else np.zeros((dim, 0), dtype=complex)
            if V.shape[-1] != dim:
                raise InvalidHistorySet(f"family {m} spans {V.shape[-1]} of {dim} dimensions "
                                        "and cannot sum to identity")
            if V.ndim == 1:     # (V^dag V)_ij = [idx_i == idx_j]: each count off 1 is a defect
                deficit = float(np.max(np.abs(np.bincount(V, minlength=dim) - 1)))
            else:
                deficit = _identity_defect(V.conj().T @ V)
            if not deficit <= FAMILY_TOL:
                raise InvalidHistorySet(f"family {m} sums to identity with defect {deficit:.3e}")
            bounds = [0, *ends.tolist()]
            slices = tuple(slice(a, b) for a, b in zip(bounds, bounds[1:]))
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
    """The Hermitian pair matrix D(alpha, beta) over a history set's labels, stored as blocks.

    ``blocks[b]`` holds D between the histories ``members[b]``, a row of
    ascending indices into ``histories``; the rows partition the labels, and
    D is exactly zero between histories in different blocks.  A dense matrix
    given to the constructor is one block.  ``matrix`` scatters the blocks
    into a dense, read-only array each time it is read.
    """

    __slots__ = ("histories", "blocks", "members")

    def __init__(self, histories: Sequence[tuple[int, ...]], matrix):
        mat = np.array(matrix, dtype=complex)
        n = len(histories)
        if mat.shape != (n, n):
            raise InvalidHistorySet("one matrix entry per history pair required")
        self._check_and_store(histories, mat[None], np.arange(n)[None])

    @classmethod
    def _from_blocks(cls, histories, blocks: np.ndarray, members: np.ndarray):
        D = cls.__new__(cls)
        D._check_and_store(histories, blocks, members)
        return D

    def _check_and_store(self, histories, blocks, members):
        if not np.all(_hermitian_within_tol(blocks)):
            raise InvalidHistorySet("decoherence functional must be Hermitian")
        diag = np.diagonal(blocks, axis1=1, axis2=2)
        if float(np.max(np.abs(diag.imag), initial=0.0)) > 1e-10 \
                or float(diag.real.min(initial=0.0)) < -1e-10:
            raise InvalidHistorySet("diagonal must be real and nonnegative")
        total = complex(blocks.sum())
        if abs(total - 1.0) > 1e-9:
            raise InvalidHistorySet(f"entries sum to {total}, not 1")
        self.histories = tuple(tuple(h) for h in histories)
        self.blocks = blocks
        self.members = members
        blocks.setflags(write=False)
        members.setflags(write=False)

    @property
    def matrix(self) -> np.ndarray:
        mat = np.zeros((len(self.histories),) * 2, dtype=complex)
        mat[self.members[:, :, None], self.members[:, None, :]] = self.blocks
        mat.setflags(write=False)
        return mat

    def diagonal(self) -> np.ndarray:
        diag = np.zeros(len(self.histories))
        diag[self.members] = np.real(np.diagonal(self.blocks, axis1=1, axis2=2))
        return diag

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
    since <B B^dag u|B B^dag v> = <B^dag u|B^dag v>.  The entries of one width
    get their blocks from one batched product into an (n, paths, paths)
    stack, n * paths^2 entries in all.
    """
    if isinstance(hs.initial_state, PureState):
        columns = hs.initial_state.amplitudes[:, None]
    else:
        evals, evecs = np.linalg.eigh(hs.initial_state.matrix)
        columns = evecs[:, evals > 1e-14] * np.sqrt(evals[evals > 1e-14])
    *earlier, (basis, slices) = hs.families
    *steps, last = hs._steps()
    paths, n = math.prod(hs.shape[:-1]), len(slices)
    starts = np.array([sl.start for sl in slices], dtype=np.intp)
    widths = np.array([sl.stop - sl.start for sl in slices], dtype=np.intp)
    D = np.zeros((n, paths, paths), dtype=complex)
    for u in columns.T:     # one column at a time keeps the branches at dim x paths
        branches = u[:, None]
        for (family, cuts), dt in zip(earlier, steps):
            evolved = hs.hamiltonian.evolve_amplitudes(branches, dt)
            branches = np.stack([family.apply(family.apply_adjoint(evolved, sl), sl)
                                 for sl in cuts], axis=2).reshape(hs.dim, -1)
        coeffs = basis.apply_adjoint(hs.hamiltonian.evolve_amplitudes(branches, last))
        for w in sorted(set(widths.tolist()) - {0}):     # np.unique would import numpy.ma
            ents = np.flatnonzero(widths == w)     # entries of width w: a (k, w, paths) stack
            cb = coeffs[(starts[ents, None] + np.arange(w)).ravel()].reshape(ents.size, w, -1)
            D[ents] += np.matmul(cb.transpose(0, 2, 1), cb.conj())
    # history (path p, final entry a) is label p * n + a
    members = np.arange(0, paths * n, n) + np.arange(n)[:, None]
    return DecoherenceFunctional._from_blocks(hs.histories(), D, members)


def is_consistent(D: DecoherenceFunctional,
                  eps: float = DEFAULT_CONSISTENCY_EPS) -> tuple[bool, float]:
    """Test |D(a,b)| <= eps * sqrt(D(a,a) D(b,b)) for all pairs a != b.

    Returns (verdict, worst ratio).  Only pairs inside one block are
    compared; every other pair is an exact zero.  Pairs with a zero diagonal
    weight pass vacuously: an impossible history cannot interfere with
    anything.
    """
    diag = np.clip(np.real(np.diagonal(D.blocks, axis1=1, axis2=2)), 0.0, None)
    scale = np.sqrt(diag[:, :, None] * diag[:, None, :])
    pairs = np.triu(scale > 0.0, k=1)
    # hypot rounds as scalar abs() does; np.abs on complex arrays may differ in the last bit
    ratios = np.hypot(D.blocks.real[pairs], D.blocks.imag[pairs]) / scale[pairs]
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
    k = len(group_indices)
    group_of = np.empty(len(D.histories), dtype=np.intp)
    for a, ia in enumerate(group_indices):
        group_of[ia] = a
    g = group_of[D.members]
    cell = (g[:, :, None] * k + g[:, None, :]).ravel()    # entry (a, b) of the coarse matrix
    mat = np.empty((k, k), dtype=complex)
    mat.real = np.bincount(cell, D.blocks.real.ravel(), k * k).reshape(k, k)
    mat.imag = np.bincount(cell, D.blocks.imag.ravel(), k * k).reshape(k, k)
    labels = [tuple(tuple(D.histories[i]) for i in ia) for ia in group_indices]
    return DecoherenceFunctional._from_blocks(labels, mat[None], np.arange(k)[None])
