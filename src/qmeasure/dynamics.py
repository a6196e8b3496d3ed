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
from .hilbert import LinearOperator, Observable, PureState, _freeze, _hermitian_within_tol, \
    _identity_defect, hermiticity_defect

UNITARITY_TOL = 1e-9


class Hamiltonian:
    """A Hermitian generator of time evolution.

    Every propagation is U(t) = V e^{-iEt} V^dag from the eigensystem (E, V),
    in :meth:`evolve_amplitudes`.  An operator is diagonalized once, on first
    use; :meth:`from_eigenbasis` takes a spectrum that is already known.
    """

    __slots__ = ("_op", "dim", "_evals", "_evecs")

    def __init__(self, op: LinearOperator):
        if not _hermitian_within_tol(op.matrix):
            raise NotHermitian(f"hermiticity defect {hermiticity_defect(op.matrix):.3e}")
        self._op, self.dim, self._evals, self._evecs = op, op.dim, None, None

    @classmethod
    def from_eigenbasis(cls, energies, basis) -> "Hamiltonian":
        """H = V diag(E) V^dag from finite real energies E and their eigenvectors V.

        Raises ValueError unless max|V^dag V - 1| <= 1e-9.  Columns are
        reordered so the energies ascend; the arrays become read-only.
        """
        evals = np.asarray(energies)
        evecs = np.asarray(basis, dtype=complex)
        if (evals.ndim != 1 or not np.isrealobj(evals) or not np.all(np.isfinite(evals))
                or evecs.shape != (evals.size, evals.size)):
            raise ValueError("need finite real energies and a square basis, a column per energy")
        defect = _identity_defect(evecs.conj().T @ evecs)
        if defect > UNITARITY_TOL:
            raise ValueError(f"eigenbasis unitarity defect {defect:.3e}")
        order = np.argsort(evals, kind="stable")
        H = object.__new__(cls)
        H._op, H.dim = None, evals.size
        H._evals, H._evecs = _freeze(evals[order].astype(float)), _freeze(evecs[:, order])
        return H

    @property
    def op(self) -> LinearOperator:
        """The dense operator; for a known eigenbasis, V diag(E) V^dag built on first read."""
        if self._op is None:
            m = self._evecs @ (self._evals[:, None] * self._evecs.conj().T)
            self._op = LinearOperator._wrap((m + m.conj().T) / 2)
        return self._op

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending energies and the unitary whose columns are their eigenvectors."""
        if self._evals is None:
            evals, evecs = np.linalg.eigh(self._op.matrix)
            self._evals, self._evecs = _freeze(evals), _freeze(evecs)
        return self._evals, self._evecs

    def evolve_amplitudes(self, amplitudes, t) -> np.ndarray:
        """V e^{-iEt} V^dag applied to unnormalized amplitudes: the one evolution kernel.

        Columns of a matrix all evolve by ``t``; a vector with a 1-d array of
        times gives one column per time.  Raises ValueError for a non-finite t.
        """
        times = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(times)):
            raise ValueError(f"time must be finite, got {t}")
        evals, evecs = self.eigensystem()
        coeff = (np.asarray(amplitudes).conj().T @ evecs).conj().T  # V^dag a, V not copied
        phases = np.exp(-1j * np.multiply.outer(evals, times))
        return evecs @ (phases.T * coeff.T).T  # broadcast over columns or times

    def evolve(self, state: PureState, t: float) -> PureState:
        """exp(-iHt)|psi> without materializing the propagator matrix."""
        return PureState(self.evolve_amplitudes(state.amplitudes, t))

    def __repr__(self):
        return f"Hamiltonian(dim={self.dim})"


class Propagator:
    """The unitary exp(-iHt) at a fixed time."""

    __slots__ = ("t", "matrix", "dim")

    def __init__(self, t: float, matrix):
        mat = np.asarray(matrix, dtype=complex)
        defect = _identity_defect(mat.conj().T @ mat)
        if defect > UNITARITY_TOL:
            raise ValueError(f"propagator unitarity defect {defect:.3e}")
        if t == 0.0 and _identity_defect(mat) > UNITARITY_TOL:
            raise ValueError("U(0) must be the identity")
        self.t = float(t)
        self.matrix = _freeze(mat)
        self.dim = mat.shape[0]

    def apply(self, state: PureState) -> PureState:
        return PureState(self.matrix @ state.amplitudes)

    def __repr__(self):
        return f"Propagator(t={self.t}, dim={self.dim})"


def propagate(H: Hamiltonian | LinearOperator, t: float) -> Propagator:
    """U(t) = exp(-iHt) as a matrix: the evolution kernel applied to the identity.

    U is unitary, and obeys U(a)U(b) = U(a+b), up to roundoff.
    """
    if isinstance(H, LinearOperator):
        H = Hamiltonian(H)
    return Propagator(t, H.evolve_amplitudes(np.eye(H.dim, dtype=complex), t))


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
        if not (np.isfinite(self.box_length) and self.box_length > 0):
            raise ValueError(f"box_length must be finite and positive, got {self.box_length}")
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
    wavenumbers.  Both are built from their exact spectral resolutions
    (positions and wavenumbers are pairwise distinct on the grid, bases I and
    F^dag), so nothing is diagonalized or checked, and their dense operators
    are formed only when read.
    """
    n = g.n_points
    F = fourier_map(g)
    slices = [slice(j, j + 1) for j in range(n)]
    X = Observable._wrap(g.positions, np.eye(n, dtype=complex), slices)
    P = Observable._wrap(g.wavenumbers, F.conj().T, slices)
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
    """H = P^2 / 2m on the grid from its known eigensystem: energies k^2 / 2m, basis F^dag."""
    if mass <= 0:
        raise ValueError("mass must be positive")
    return Hamiltonian.from_eigenbasis(g.wavenumbers ** 2 / (2 * mass), fourier_map(g).conj().T)


def barrier_hamiltonian(g: GridSpace, mass: float, height: float,
                        window: tuple[int, int]) -> Hamiltonian:
    """Free Hamiltonian plus a finite rectangular potential barrier.

    ``window`` is the half-open index range where the potential is
    ``height``.  Finite barriers leak: a state confined to one side acquires
    support on the other under evolution.
    """
    v = np.zeros(g.n_points)
    v[int(window[0]):int(window[1])] = height
    H = free_hamiltonian(g, mass).op.matrix + np.diag(v.astype(complex))
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
