"""Unitary Schrodinger evolution and discretized position/momentum kinematics.

Conventions: hbar = 1, particle mass enters through the Hamiltonian
(H = P^2/2m).  Continuous systems live on a periodic uniform grid; the
momentum operator is defined spectrally through the unitary Fourier map, so
position and momentum amplitudes are discrete Fourier transforms of one
another and [X, P] = i holds on well-resolved interior states up to grid
error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotHermitian, UnresolvableWidth
from .hilbert import LinearOperator, Observable, PureState, _hermitian_within_tol, \
    hermiticity_defect

UNITARITY_TOL = 1e-9


class Hamiltonian:
    """A Hermitian generator of time evolution.

    The eigendecomposition is computed once on first use and cached, so
    propagating to many times costs one diagonalization plus cheap phase
    sums.
    """

    __slots__ = ("op", "dim", "_evals", "_evecs")

    def __init__(self, op: LinearOperator):
        if not _hermitian_within_tol(op.matrix):
            raise NotHermitian(f"hermiticity defect {hermiticity_defect(op.matrix):.3e}")
        self.op = op
        self.dim = op.dim
        self._evals = None
        self._evecs = None

    def _eigensystem(self):
        if self._evals is None:
            evals, evecs = np.linalg.eigh(self.op.matrix)
            self._evals, self._evecs = evals, evecs
        return self._evals, self._evecs

    def evolve(self, state: PureState, t: float) -> PureState:
        """exp(-iHt)|psi> without materializing the propagator matrix."""
        evals, evecs = self._eigensystem()
        coeff = evecs.conj().T @ state.amplitudes
        return PureState(evecs @ (np.exp(-1j * evals * t) * coeff))

    def __repr__(self):
        return f"Hamiltonian(dim={self.dim})"


class Propagator:
    """The unitary exp(-iHt) at a fixed time."""

    __slots__ = ("t", "matrix", "dim")

    def __init__(self, t: float, matrix):
        mat = np.asarray(matrix, dtype=complex)
        dim = mat.shape[0]
        defect = np.max(np.abs(mat.conj().T @ mat - np.eye(dim)))
        if defect > UNITARITY_TOL:
            raise ValueError(f"propagator unitarity defect {defect:.3e}")
        if t == 0.0 and np.max(np.abs(mat - np.eye(dim))) > UNITARITY_TOL:
            raise ValueError("U(0) must be the identity")
        self.t = float(t)
        self.matrix = mat
        self.matrix.setflags(write=False)
        self.dim = dim

    def apply(self, state: PureState) -> PureState:
        return PureState(self.matrix @ state.amplitudes)

    def __repr__(self):
        return f"Propagator(t={self.t}, dim={self.dim})"


def propagate(H: Hamiltonian | LinearOperator, t: float) -> Propagator:
    """Build U(t) = exp(-iHt) via the Hermitian eigendecomposition of H.

    Eigendecomposition keeps U exactly unitary up to roundoff and gives the
    group law U(a)U(b) = U(a+b) to the same accuracy.
    """
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    if isinstance(H, LinearOperator):
        H = Hamiltonian(H)
    evals, evecs = H._eigensystem()
    U = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
    return Propagator(t, U)


@dataclass(frozen=True)
class GridSpace:
    """A periodic 1-d position grid with n_points samples over box_length.

    Positions run over [-box_length/2, box_length/2) in steps of dx; the
    wavenumber grid covers [-pi/dx, pi/dx) in steps of 2*pi/box_length.
    Amplitude vectors carry the sqrt(dx) measure, so the squared amplitudes
    are directly Born probabilities per sample.
    """

    n_points: int
    box_length: float
    dx: float = field(init=False)

    def __post_init__(self):
        if self.n_points < 8 or self.n_points % 2 != 0:
            raise ValueError("n_points must be even and at least 8")
        if self.box_length <= 0:
            raise ValueError("box_length must be positive")
        object.__setattr__(self, "dx", self.box_length / self.n_points)

    @property
    def positions(self) -> np.ndarray:
        return (np.arange(self.n_points) - self.n_points // 2) * self.dx

    @property
    def wavenumbers(self) -> np.ndarray:
        dk = 2 * np.pi / self.box_length
        return (np.arange(self.n_points) - self.n_points // 2) * dk


def fourier_map(g: GridSpace) -> np.ndarray:
    """The unitary matrix sending position amplitudes to momentum amplitudes.

    Rows are ordered by ascending wavenumber: (F psi)[m] is the amplitude at
    wavenumber k_m, with F[m, j] = exp(-i k_m x_j) / sqrt(n).
    """
    x = g.positions
    k = g.wavenumbers
    return np.exp(-1j * np.outer(k, x)) / np.sqrt(g.n_points)


def build_grid_operators(g: GridSpace) -> tuple[Observable, Observable, LinearOperator]:
    """Position and momentum observables plus the Fourier map for a grid.

    X is diagonal in position samples; P = F^dag K F with K diagonal in
    wavenumbers.  Both come with their exact spectral resolutions (positions
    and wavenumbers are pairwise distinct on the grid), so no numerical
    diagonalization is involved.
    """
    n = g.n_points
    x = g.positions
    k = g.wavenumbers
    F = fourier_map(g)
    X_op = LinearOperator._wrap(np.diag(x.astype(complex)))
    slices = [slice(j, j + 1) for j in range(n)]
    # construction guarantees the spectral invariants exactly; skip the
    # O(n^3) validation so large grids stay cheap
    X = Observable(X_op, x, np.eye(n, dtype=complex), slices, validate=False)
    Fh = F.conj().T
    P_op = LinearOperator._wrap(Fh @ (k[:, None] * F))
    P = Observable(P_op, k, Fh, slices, validate=False)
    return X, P, LinearOperator._wrap(F)


def _check_width(g: GridSpace, width: float):
    if width <= 3 * g.dx:
        raise UnresolvableWidth(
            f"width {width} must exceed 3*dx = {3 * g.dx:.4g} to be resolvable")
    if width >= g.box_length / 10:
        raise UnresolvableWidth(
            f"width {width} must be below box_length/10 = {g.box_length / 10:.4g}")


def gaussian_packet(g: GridSpace, x0: float, k0: float, width: float) -> PureState:
    """A normalized Gaussian wavepacket exp(-(x-x0)^2 / 2 width^2) e^{i k0 x}.

    The width must be resolvable (width > 3 dx) and contained
    (width < box_length/10); otherwise UnresolvableWidth is raised.
    """
    _check_width(g, width)
    x = g.positions
    psi = np.exp(-((x - x0) ** 2) / (2 * width ** 2)) * np.exp(1j * k0 * x)
    return PureState(psi)


def truncated_gaussian_packet(g: GridSpace, x0: float, k0: float, width: float,
                              support: tuple[int, int]) -> PureState:
    """A Gaussian packet set exactly to zero outside an index window.

    ``support`` is a half-open index window (lo, hi).  This is the grid
    realization of a compactly supported state: amplitudes vanish identically
    outside the window at t = 0.
    """
    _check_width(g, width)
    lo, hi = int(support[0]), int(support[1])
    if not (0 <= lo < hi <= g.n_points):
        raise ValueError(f"support window {support} invalid for {g.n_points} points")
    x = g.positions
    psi = np.exp(-((x - x0) ** 2) / (2 * width ** 2)) * np.exp(1j * k0 * x)
    mask = np.zeros(g.n_points)
    mask[lo:hi] = 1.0
    return PureState(psi * mask)


def free_hamiltonian(g: GridSpace, mass: float = 1.0) -> Hamiltonian:
    """H = P^2 / 2m on the grid, built spectrally from the Fourier map."""
    if mass <= 0:
        raise ValueError("mass must be positive")
    k = g.wavenumbers
    F = fourier_map(g)
    H = F.conj().T @ ((k ** 2 / (2 * mass))[:, None] * F)
    return Hamiltonian(LinearOperator._wrap((H + H.conj().T) / 2))


def barrier_hamiltonian(g: GridSpace, mass: float, height: float,
                        window: tuple[int, int]) -> Hamiltonian:
    """Free Hamiltonian plus a finite rectangular potential barrier.

    ``window`` is the half-open index range where the potential is
    ``height``.  Finite barriers leak: a state confined to one side acquires
    support on the other under evolution.
    """
    base = free_hamiltonian(g, mass)
    v = np.zeros(g.n_points)
    lo, hi = int(window[0]), int(window[1])
    v[lo:hi] = height
    H = base.op.matrix + np.diag(v.astype(complex))
    return Hamiltonian(LinearOperator._wrap(H))


def packet_width(g: GridSpace, state: PureState) -> float:
    """Gaussian width parameter sqrt(2 Var(x)) of the position distribution.

    For exp(-x^2 / 2 L^2) this equals L, matching the free-spreading law
    L(t) = L sqrt(1 + (t / m L^2)^2).
    """
    x = g.positions
    p = np.abs(state.amplitudes) ** 2
    mean = float(np.sum(p * x))
    var = float(np.sum(p * (x - mean) ** 2))
    return float(np.sqrt(2 * var))
