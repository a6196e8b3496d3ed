"""Unitary Schrodinger evolution and discretized position/momentum kinematics.

Conventions: hbar = 1, particle mass enters through the Hamiltonian
(H = P^2/2m).  Continuous systems live on a periodic uniform grid; the
momentum operator is defined spectrally through the unitary Fourier map, so
position and momentum amplitudes are discrete Fourier transforms of one
another and [X, P] = i holds on well-resolved interior states up to grid
error.  The free Hamiltonian evolves through that map applied by FFT, in
O(n log n) per state; :func:`fourier_map` writes the same map out densely.
A barrier Hamiltonian adds a real potential that is diagonal in position;
it is a real matrix, and it evolves by a Chebyshev expansion whose every
term is one real FFT pair per nonzero part (real or imaginary) of a state,
so no grid Hamiltonian is ever written out or diagonalized to be evolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UnresolvableWidth
from .hilbert import LinearOperator, Observable, PureState, _BASES, _DenseBasis, _FourierBasis, \
    _IndexOrder, _freeze, _identity_defect, _require_hermitian

UNITARITY_TOL = 1e-9
CHEBYSHEV_TOL = 1e-16
CHEBYSHEV_MAX_REACH = 1e6


def _chebyshev_coefficients(z: np.ndarray) -> np.ndarray:
    """(2 - delta_k0) (-i)^k J_k(z) for k < K, shape (K,) + z.shape, for real z.

    By Jacobi-Anger, e^{-iz cos(theta)} = sum_k (-i)^k J_k(z) e^{ik theta}, so
    one FFT over M equispaced angles gives the coefficients, each aliased by
    the orders M - k and beyond.  The series stops at the first order past
    max|z| whose coefficients fall below 1e-16 of the largest or stop
    falling: J_k(z) decreases in k for k > |z|, so a rise is the roundoff
    of the phases z cos(theta), about |z| 1e-16.  That order must lie below
    M/4, which leaves the aliases at orders past 3M/4; M doubles until it
    does.  z = 0 gives exactly (1,).  ValueError when max|z| exceeds
    CHEBYSHEV_MAX_REACH.
    """
    reach = float(np.max(np.abs(z), initial=0.0))
    if reach > CHEBYSHEV_MAX_REACH:
        raise ValueError(f"spectral radius times time {reach:.3e} exceeds "
                         f"{CHEBYSHEV_MAX_REACH:.0e}: too many Chebyshev terms")
    size = 64
    while size < 4 * reach + 64:
        size *= 2
    while True:
        angles = 2 * np.pi * np.arange(size) / size
        quarter = size // 4
        b = np.fft.fft(np.exp(-1j * np.multiply.outer(np.cos(angles), z)), axis=0)[:quarter] / size
        mag = np.abs(b).reshape(quarter, -1).max(axis=1)
        done = (np.arange(quarter) > reach) & ((mag < CHEBYSHEV_TOL * mag.max())
                                               | (mag >= np.roll(mag, 1)))
        if done.any():
            break
        size *= 2
    order = int(np.argmax(done))
    k = np.arange(order).reshape((order,) + (1,) * np.ndim(z))
    b = np.where(k == 0, 1.0, 2.0) * b[:order]
    return np.where(np.asarray(z) == 0, (k == 0).astype(complex), b)


def _phases(energies: np.ndarray, times) -> np.ndarray:
    """e^{-iEt}, one row per energy (and a column per time of a 1-d array).

    ValueError, naming the time, when a phase E*t leaves the double range.
    """
    with np.errstate(over="ignore"):
        angles = np.multiply.outer(energies, times)
    if not np.isfinite(angles).all():
        times = np.asarray(times)
        raise ValueError(f"phase E*t overflows at time {times.flat[np.argmax(np.abs(times))]}")
    return np.exp(-1j * angles)


def _phase_step(energies: np.ndarray, coefficients, times) -> np.ndarray:
    """e^{-iEt} times the eigenbasis coefficients: the phase step of every evolution.

    ``coefficients`` has one row per energy (its columns all evolve by a
    scalar ``times``); a vector with a 1-d array of times gives one column
    per time.
    """
    return (_phases(energies, times).T * np.asarray(coefficients).T).T  # over columns or times


class Hamiltonian:
    """A Hermitian generator of time evolution, which holds its spectrum from construction.

    Every propagation goes through :meth:`evolve_amplitudes`;
    ``indefiniteness_scan`` propagates no state, and reads only
    :meth:`eigensystem` for its ||Q^dag V e^{-iEt} V^dag psi||^2.  Mostly it is
    U(t) = V e^{-iEt} V^dag from energies E and a basis V (see
    :mod:`qmeasure.hilbert`): ``Hamiltonian(op)`` diagonalizes a dense
    operator at construction, by a real symmetric ``eigh`` when its matrix
    is exactly real; :meth:`from_eigenbasis` takes a spectrum that is
    already known, over a dense basis or a basis object such as the grid's
    FFT-backed Fourier map.  A grid Hamiltonian with a potential (see
    :func:`barrier_hamiltonian`) holds its kinetic energies over the
    Fourier map plus the potential, and propagates by a Chebyshev expansion.
    """

    __slots__ = ("_op", "dim", "_energies", "_basis", "_potential")

    def __init__(self, op: LinearOperator):
        _require_hermitian(op.matrix[None])
        m = op.matrix
        evals, evecs = np.linalg.eigh(m if m.imag.any() else m.real)
        # stored complex: mixed real/complex products in the kernel are slower
        self._op, self.dim, self._potential = op, op.dim, None
        self._energies, self._basis = _freeze(evals), _DenseBasis(evecs.astype(complex, copy=False))

    @classmethod
    def from_eigenbasis(cls, energies, basis, potential=None) -> "Hamiltonian":
        """H = V diag(E) V^dag + diag(potential) from finite real energies E and eigenvectors V.

        ``basis`` is a dense matrix, copied and checked for
        max|V^dag V - 1| <= 1e-9, or a basis object, taken as given; the
        energies stay in the order of its columns.  A ``potential``, one
        finite real value per grid point, needs the untagged Fourier map and
        energies even under k -> -k, as k^2 / 2m is, so that H is real, as
        the Chebyshev evolution needs.  Anything else raises ValueError.
        Nothing is diagonalized, and the arrays become read-only.
        """
        evals = np.asarray(energies)
        matrix = None if isinstance(basis, _BASES) else np.array(basis, dtype=complex)
        basis = basis if matrix is None else _DenseBasis(matrix)
        if (evals.ndim != 1 or not np.isrealobj(evals) or not np.all(np.isfinite(evals))
                or basis.shape != (evals.size, evals.size)):
            raise ValueError("need finite real energies and a square basis, a column per energy")
        defect = 0.0 if matrix is None else _identity_defect(matrix.conj().T @ matrix)
        if defect > UNITARITY_TOL:
            raise ValueError(f"eigenbasis unitarity defect {defect:.3e}")
        if potential is not None and not (
                isinstance(basis, _FourierBasis) and basis.tags == 1 and np.isrealobj(potential)
                and np.shape(potential) == evals.shape and np.all(np.isfinite(potential))):
            raise ValueError("a potential needs the untagged Fourier map and one finite real "
                             "value per grid point")
        H = object.__new__(cls)
        H._op, H.dim, H._energies, H._basis = None, evals.size, _freeze(evals.astype(float)), basis
        H._potential = None if potential is None else _freeze(np.array(potential, dtype=float))
        return H

    @property
    def op(self) -> LinearOperator:
        """The dense operator; for a known eigenbasis or a grid potential, built on first read."""
        if self._op is None:
            eye = np.eye(self.dim, dtype=complex)
            m = self._basis.apply(self._energies[:, None] * self._basis.apply_adjoint(eye))
            if self._potential is not None:
                m += np.diag(self._potential)
            self._op = LinearOperator((m + m.conj().T) / 2)
        return self._op

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending energies and the dense unitary whose columns are their eigenvectors.

        The columns of a known basis are sorted by energy and written out
        on each call; a grid potential's dense operator is diagonalized on
        each call, because the Fourier map diagonalizes only its kinetic part.
        """
        if self._potential is not None:
            return Hamiltonian(self.op).eigensystem()
        evals, basis = self._energies, self._basis
        # an ascending spectrum (every eigh) keeps its basis as it is stored
        order = slice(None) if np.all(evals[:-1] <= evals[1:]) else np.argsort(evals, kind="stable")
        return _freeze(evals[order]), _freeze(basis.columns(order))

    def evolve_amplitudes(self, amplitudes, t) -> np.ndarray:
        """e^{-iHt} applied to unnormalized amplitudes: the one evolution kernel.

        A vector (dim,) takes a scalar time or a 1-d array of times, one
        column per time; a block (dim, m) takes a scalar time.  Other shapes
        raise ValueError naming both, as do a non-finite t and one whose
        phase E*t overflows.
        """
        times = np.asarray(t, dtype=float)
        amplitudes = np.asarray(amplitudes)
        if (amplitudes.shape[:1] != (self.dim,)
                or (amplitudes.ndim, times.ndim) not in ((1, 0), (1, 1), (2, 0))):
            raise ValueError(f"amplitudes of shape {amplitudes.shape} with times of shape "
                             f"{times.shape}: need ({self.dim},) with a scalar or a 1-d array "
                             f"of times, or ({self.dim}, m) with a scalar time")
        if not np.all(np.isfinite(times)):
            raise ValueError(f"time must be finite, got {t}")
        if self._potential is not None:
            return self._chebyshev_evolution(amplitudes, times)
        return self._basis.apply(_phase_step(self._energies, self._basis.apply_adjoint(amplitudes),
                                             times))

    def _chebyshev_evolution(self, amplitudes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """e^{-iHt} a = e^{-ict} sum_k (2 - delta_k0) (-i)^k J_k(Rt) T_k((H - c)/R) a.

        [c - R, c + R] is Weyl's bound on the spectrum of kinetic plus
        potential, so the scaled H~ = (H - c)/R has its spectrum in [-1, 1]
        (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).  The
        recurrence T_{k+1} = 2 H~ T_k - T_{k-1} runs in FFT order,
        V D V^dag = fftshift . ifft . D' . fft . ifftshift with
        D' = ifftshift(D), so no term pays for the shifts.  D' is even under
        k -> -k and the potential is real, so H~ is a real matrix: the
        recurrence runs on the real and imaginary parts of each column, as
        real rows, and skips a part that is identically zero: one real FFT
        pair per nonzero part per term.  The terms do not depend on t, so
        all times share one recurrence; the sums over Re c_k and Im c_k are
        recombined once at the end.
        """
        kinetic, potential = self._energies, self._potential
        lo = kinetic.min() + potential.min()
        hi = kinetic.max() + potential.max()
        center, radius = (hi + lo) / 2, (hi - lo) / 2 or 1.0  # H = cI: any radius serves
        n = kinetic.size
        shifted = np.fft.ifftshift((kinetic - center) / radius)[:n // 2 + 1]
        scaled = np.fft.ifftshift(potential / radius)
        coefficients = _chebyshev_coefficients(radius * times) * np.exp(-1j * center * times)
        columns = np.fft.ifftshift(amplitudes, axes=0).reshape(n, -1).T
        parts = np.concatenate([columns.real, columns.imag], dtype=float)  # real, then imaginary
        nonzero = np.flatnonzero(parts.any(axis=1))
        weights = np.stack([coefficients.real, coefficients.imag], axis=1)  # (K, 2) + times
        current = parts[nonzero]  # real FFT-ordered rows, the grid axis last
        sums = np.multiply.outer(weights[0], current)  # sum Re c_k T_k, sum Im c_k T_k
        # buffers every term reuses: large temporaries allocated per term fault in fresh pages
        spectrum = np.empty((len(current), n // 2 + 1), dtype=complex)
        following, product = np.empty_like(current), np.empty_like(current)
        term = np.empty_like(sums)
        previous = np.zeros_like(current)  # so the first term is H~ T_0
        for k in range(1, len(coefficients)):
            np.fft.rfft(current, out=spectrum)
            spectrum *= shifted
            np.fft.irfft(spectrum, n=n, out=following)
            following += np.multiply(scaled, current, out=product)  # H~ T_k
            if k > 1:
                following *= 2
            following -= previous
            previous, current, following = current, following, previous
            sums += np.multiply.outer(weights[k], current, out=term)
        rows = np.zeros(times.shape + parts.shape, dtype=complex)
        rows[..., nonzero, :] = sums[0] + 1j * sums[1]  # sum_k c_k T_k of each part
        m = columns.shape[0]
        evolved = np.moveaxis(rows[..., :m, :] + 1j * rows[..., m:, :], (-1, -2), (0, 1))
        return np.fft.fftshift(evolved[:, 0] if amplitudes.ndim == 1 else evolved, axes=0)

    def evolve(self, state: PureState, t: float) -> PureState:
        """exp(-iHt)|psi> without materializing the propagator matrix."""
        return PureState(self.evolve_amplitudes(state.amplitudes, t))


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
    wavenumber k_m, with F[m, j] = exp(-i k_m x_j) / sqrt(n).  Evolution
    applies the same map by FFT; this dense form is its reference.
    """
    x = g.positions
    k = g.wavenumbers
    return np.exp(-1j * np.outer(k, x)) / np.sqrt(g.n_points)


def build_grid_operators(g: GridSpace) -> tuple[Observable, Observable, LinearOperator]:
    """Position and momentum observables plus the dense Fourier map for a grid.

    X is diagonal in position samples; P = F^dag K F with K diagonal in
    wavenumbers.  Both are built from their exact spectral resolutions
    (positions and wavenumbers are pairwise distinct on the grid): X over
    the identity index order, P over the FFT-backed Fourier map.  Nothing
    is diagonalized or checked, their dense operators are formed only when
    read, and the returned F, :func:`fourier_map`'s matrix, is the only
    n x n array written (and copied once, into its LinearOperator).
    """
    n = g.n_points
    slices = [slice(j, j + 1) for j in range(n)]
    X = Observable(g.positions, _IndexOrder(np.arange(n)), slices)
    P = Observable(g.wavenumbers, _FourierBasis(n), slices)
    return X, P, LinearOperator(fourier_map(g))


def _check_width(g: GridSpace, width: float):
    if not width > 3 * g.dx:   # NaN fails too
        raise UnresolvableWidth(
            f"width {width} must exceed 3*dx = {3 * g.dx:.4g} to be resolvable")
    if width >= g.box_length / 10:
        raise UnresolvableWidth(
            f"width {width} must be below box_length/10 = {g.box_length / 10:.4g}")


def gaussian_packet(g: GridSpace, x0: float, k0: float, width: float) -> PureState:
    """A normalized Gaussian wavepacket exp(-(x-x0)^2 / 2 width^2) e^{i k0 x}.

    The width must be resolvable (width > 3 dx) and contained
    (width < box_length/10); otherwise UnresolvableWidth is raised.  A
    non-finite x0 or k0 makes the norm non-finite, which PureState refuses.
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


def _kinetic_energies(g: GridSpace, mass: float) -> np.ndarray:
    """k^2 / 2m in ascending-wavenumber order; ValueError unless mass > 0 (NaN included)."""
    if not mass > 0:
        raise ValueError("mass must be positive")
    return g.wavenumbers ** 2 / (2 * mass)


def free_hamiltonian(g: GridSpace, mass: float = 1.0, tags: int = 1) -> Hamiltonian:
    """H = P^2 / 2m (x) I_tags on the grid from its known eigensystem.

    Energies k^2 / 2m, each repeated for the ``tags`` internal levels that
    the dynamics leaves alone (a which-way record), over the basis
    kron(F^dag, I_tags) applied by FFT: nothing is diagonalized or checked,
    and each evolution costs O(n log n) per state.  A mass that is not
    positive (NaN included) or gives non-finite energies, and ``tags`` that
    is not a positive integer, raise ValueError.
    """
    if not (np.ndim(tags) == 0 and np.asarray(tags).dtype.kind in "iu" and tags >= 1):
        raise ValueError(f"tags must be a positive integer, got {tags!r}")
    return Hamiltonian.from_eigenbasis(np.repeat(_kinetic_energies(g, mass), tags),
                                       _FourierBasis(g.n_points, tags))


def barrier_hamiltonian(g: GridSpace, mass: float, height: float,
                        window: tuple[int, int]) -> Hamiltonian:
    """Free Hamiltonian plus a finite rectangular potential barrier, on the FFT basis.

    H holds the kinetic energies k^2/2m over the Fourier map and the real
    potential vector, equal to ``height`` on the half-open index ``window``
    and 0 elsewhere; it is real and symmetric by construction.  Evolution
    is a Chebyshev expansion of e^{-iHt} whose every term costs one real
    FFT pair per nonzero part (real or imaginary) of each column,
    O(||H|| t n log n) time and O(n) memory; the dense operator and its
    eigensystem are formed only when read.  ValueError unless
    0 <= lo < hi <= n, the height is finite and the mass positive.  Finite
    barriers leak: a state confined to one side acquires support on the
    other under evolution.
    """
    n = g.n_points
    lo, hi = int(window[0]), int(window[1])
    if not (0 <= lo < hi <= n):
        raise ValueError(f"barrier window {window} invalid for {n} points")
    v = np.zeros(n)
    v[lo:hi] = height
    return Hamiltonian.from_eigenbasis(_kinetic_energies(g, mass), _FourierBasis(n), v)


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
