"""Value-definiteness diagnostics under the eigenstate criterion.

A state has a definite value of an observable exactly when it sits (within a
numerical-zero threshold) in one eigenspace.  The operations here evaluate
that criterion, scan how projector expectations behave along unitary
histories, and test the structural condition (an eigenspace invariant under
the Hamiltonian) that decides whether an expectation can vanish identically
rather than at isolated instants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyRegion
from .dynamics import GridSpace, Hamiltonian, _phases
from .hilbert import LinearOperator, Observable, PureState, _IndexOrder, \
    _cluster_slices, _projector_range

ZERO_THRESHOLD = 1e-10
INVARIANCE_TOL = 1e-9


@dataclass(frozen=True)
class DefinitenessReport:
    """Outcome of the eigenstate test for one (state, observable) pair.

    ``status`` is "definite" or "indefinite".  For a definite value,
    ``value`` is the eigenvalue and ``residual`` the distance
    ||psi - Pi psi|| to its eigenspace.  For an indefinite one, ``support``
    lists the (eigenvalue, weight) pairs with Born weight above threshold.
    """

    status: str
    value: float | None
    residual: float | None
    support: tuple[tuple[float, float], ...]
    threshold: float

    @property
    def is_definite(self) -> bool:
        return self.status == "definite"


def ee_link_status(state: PureState, obs: Observable) -> DefinitenessReport:
    """Report whether ``state`` has a definite value of ``obs``.

    Definite means ||psi - Pi_i psi|| < 1e-10 for some eigenprojector;
    otherwise the report carries the support set {i : <Pi_i> > 1e-10}.
    The verdict is phase-invariant because only projector weights enter.
    """
    if state.dim != obs.dim:
        raise DimensionMismatch(f"state dim {state.dim} vs observable dim {obs.dim}")
    weights = obs._weights(state.amplitudes)
    best = int(np.argmax(weights))
    # ||psi - Pi psi||^2 is the other eigenspaces' weight: 1 - <Pi> would cancel
    residual = float(np.sqrt(np.sum(np.delete(weights, best))))
    if residual < ZERO_THRESHOLD:
        return DefinitenessReport(
            status="definite",
            value=float(obs.eigenvalues[best]),
            residual=residual,
            support=((float(obs.eigenvalues[best]), float(weights[best])),),
            threshold=ZERO_THRESHOLD,
        )
    support = tuple((float(obs.eigenvalues[i]), float(weights[i]))
                    for i in range(obs.n_outcomes) if weights[i] > ZERO_THRESHOLD)
    return DefinitenessReport(status="indefinite", value=None, residual=None,
                              support=support, threshold=ZERO_THRESHOLD)


def region_projector(g: GridSpace, window: tuple[int, int]) -> Observable:
    """The 0/1 observable "is the particle inside this index window?".

    ``window`` is a half-open index range (lo, hi).  The full grid yields the
    identity (a single eigenvalue 1); any proper nonempty window yields the
    two-outcome observable with eigenvalues {0, 1}.  The eigenbasis is an
    index order, the points outside the window first, so the observable
    costs O(n) memory and its Born weights O(n) time.
    """
    lo, hi = int(window[0]), int(window[1])
    n = g.n_points
    if not (0 <= lo < hi <= n):
        raise EmptyRegion(f"window {window} is empty or out of range for {n} points")
    inside = np.zeros(n, dtype=bool)
    inside[lo:hi] = True
    if inside.all():
        return Observable([1.0], _IndexOrder(np.arange(n)), [slice(0, n)])
    order = np.argsort(inside, kind="stable")  # eigenvalue 0 columns first
    n_out = n - int(inside.sum())
    return Observable([0.0, 1.0], _IndexOrder(order), [slice(0, n_out), slice(n_out, n)])


def delocalization_demo(g: GridSpace, H: Hamiltonian, psi0: PureState,
                        window: tuple[int, int], epsilon: float) -> float:
    """Probability outside the support window after an arbitrarily short time.

    ``psi0`` must vanish identically outside ``window``.  Returns
    1 - <Lambda_window> at time ``epsilon``: zero at epsilon = 0, and for
    small epsilon > 0 it follows the short-time law
    epsilon^2 ||(1 - Pi_W) H psi0||^2, with Pi_W the window's projector,
    however small epsilon is relative to the packet's natural timescale.
    Being quadratic, it falls below an absolute floor such as 1e-12 for
    small enough epsilon.
    """
    lo, hi = int(window[0]), int(window[1])
    outside_mask = np.ones(g.n_points, dtype=bool)
    outside_mask[lo:hi] = False
    leak0 = float(np.sum(np.abs(psi0.amplitudes[outside_mask]) ** 2))
    if leak0 != 0.0:
        raise ValueError(f"initial state has weight {leak0:.3e} outside the window")
    if epsilon == 0.0:
        return 0.0
    psi_t = H.evolve(psi0, epsilon)
    return float(np.sum(np.abs(psi_t.amplitudes[outside_mask]) ** 2))


@dataclass(frozen=True)
class IndefinitenessScan:
    """Time series of a projector expectation with its zero-set classification.

    ``classification`` is one of "identically-zero" (the whole series sits at
    the numerical zero threshold, and the initial state lies in an invariant
    subspace of the projector's kernel), "isolated-zeros" (the series dips to
    zero only at isolated grid instants), or "never-zero".
    """

    times: np.ndarray
    series: np.ndarray
    classification: str
    kernel_invariant: bool
    threshold: float


def _kernel_criterion(evals: np.ndarray, evecs: np.ndarray, coeff: np.ndarray,
                      proj: np.ndarray) -> bool:
    """Whether the evolved ray stays in ker(Pi) for all times.

    ``evals`` and ``evecs`` are H's ascending eigensystem and ``coeff`` is
    V^dag psi0.  The trajectory spans the eigenspace components of the
    initial state, so psi(t) remains in the kernel iff Pi kills every
    energy-eigenspace projection of psi0.
    """
    radius = float(np.max(np.abs(evals))) if len(evals) else 0.0
    for sl in _cluster_slices(evals, 1e-9 * max(radius, 1.0)):
        component = evecs[:, sl] @ coeff[sl]
        norm = float(np.linalg.norm(component))
        if norm > ZERO_THRESHOLD and (float(np.linalg.norm(proj @ component))
                                      > ZERO_THRESHOLD * norm):
            return False
    return True


SCAN_BLOCK = 2048  # times per block: one block's phases and range amplitudes are live at once


def indefiniteness_scan(H: Hamiltonian, psi0, projector, times):
    """Scan <psi(t)|Pi|psi(t)> over a time grid and classify its zero set.

    Values at most 1e-10 count as zero.  The grid must carry at least 1000
    points; zero-set classification on a sparser grid says little.
    ``psi0`` and ``projector`` may also be equal-length sequences of states
    and projectors that share H and the times: the result is then a list of
    scans, one per pair, and each block of times has its phases e^{-iEt}
    computed once for every pair.  A state or projector whose dimension is
    not H's raises DimensionMismatch.  With H = V diag(E) V^dag, c = V^dag psi0
    and Q orthonormal columns spanning Pi's range, each value is
    ||Q^dag V diag(c) e^{-iEt}||^2: r numbers per time for a rank-r
    projector, and no evolved state is written out.
    """
    single = isinstance(psi0, PureState)
    states, projectors = ([psi0], [projector]) if single else (list(psi0), list(projector))
    if len(states) != len(projectors):
        raise ValueError(f"{len(states)} states vs {len(projectors)} projectors")
    mats = [p.matrix if isinstance(p, LinearOperator) else np.asarray(p, complex)
            for p in projectors]
    ranges = []
    for mat in mats:
        block, defect = _projector_range(mat)
        if block is None:
            raise ValueError(f"not a projector: defect {defect:.3e}")
        ranges.append(block)
    for state, mat in zip(states, mats):
        for kind, dim in (("state", state.dim), ("projector", mat.shape[0])):
            if dim != H.dim:
                raise DimensionMismatch(f"{kind} dim {dim} vs Hamiltonian dim {H.dim}")
    times = np.asarray(times, dtype=float)
    if times.size < 1000:
        raise ValueError(f"need a time grid of at least 1000 points, got {times.size}")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    evals, evecs = H.eigensystem()
    coeffs = [evecs.conj().T @ state.amplitudes for state in states]  # c = V^dag psi0
    tables = [(q.conj().T @ evecs) * c for c, q in zip(coeffs, ranges)]  # Q^dag V diag(c)
    series = np.empty((len(states), times.size))
    for block in np.array_split(np.arange(times.size), 1 + times.size // SCAN_BLOCK):
        lo, hi = block[0], block[-1] + 1
        phases = _phases(evals, times[lo:hi])
        for row, table in zip(series, tables):
            amplitudes = table @ phases  # Q^dag psi(t), a column per time
            row[lo:hi] = np.vecdot(amplitudes, amplitudes, axis=0).real
        del phases  # the next block's phases replace these rather than join them
    scans = [_classified(times, row, _kernel_criterion(evals, evecs, c, mat))
             for row, c, mat in zip(series, coeffs, mats)]
    return scans[0] if single else scans


def _classified(times: np.ndarray, series: np.ndarray, kernel_invariant: bool) -> IndefinitenessScan:
    below = series <= ZERO_THRESHOLD
    if below.all() and kernel_invariant:
        classification = "identically-zero"
    elif not below.any():
        classification = "never-zero"
    else:
        classification = "isolated-zeros"
    return IndefinitenessScan(times=times, series=series, classification=classification,
                              kernel_invariant=kernel_invariant, threshold=ZERO_THRESHOLD)


def invariant_subspace_check(H: Hamiltonian, obs: Observable) -> list[bool]:
    """For each eigenspace of ``obs``, does H map it into itself?

    Checks ||(1 - Pi_i) H Pi_i||_max <= 1e-9 * max(1, ||H||_max) per
    eigenspace.  If no eigenspace is invariant, no projector expectation
    along generic unitary histories can vanish identically, so every value
    of the observable stays "possible" at almost every time.
    """
    Hm = H.op.matrix
    scale = max(1.0, float(np.max(np.abs(Hm))))
    results = []
    for i in range(obs.n_outcomes):
        block = obs.eigenbasis(i)
        mapped = Hm @ block
        residual = mapped - block @ (block.conj().T @ mapped)
        results.append(bool(np.max(np.abs(residual)) <= INVARIANCE_TOL * scale))
    return results
