"""States, operators, and spectral structure on finite-dimensional Hilbert spaces.

All Hilbert spaces here are finite-dimensional with dense complex
(double-precision) matrices, except the bases of observables and
Hamiltonians.  A basis is a unitary V held in the form that applies it
cheapest: a dense matrix, an index order or the FFT-backed Fourier map.
Each kind has ``shape``, ``apply(c, cols)`` = V[:, cols] c,
``apply_adjoint(a, cols)`` = V[:, cols]^dag a, and ``columns(cols)``, the
dense V[:, cols] that oracles and dense operators read; ``cols`` is a slice
or an index array, all columns by default.  The invariant checks (state
norm, Hermiticity, identity defect, spectral resolution) take one object or
a stack of them along leading axes, so a batch of small systems is checked
by the same code as one.  Values are immutable after construction and every
operation is a pure function, so everything in this module is safe to share
across threads.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, NotHermitian

HERMITIAN_TOL = 1e-10
MIN_STATE_NORM = 1e-8
SPECTRAL_TOL = 1e-9
OUTCOME_TOL = 1e-6


def _as_complex_matrix(data) -> np.ndarray:
    """A complex copy of a square matrix: the one copy each constructor makes."""
    mat = np.array(data, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _adjoint(matrix: np.ndarray) -> np.ndarray:
    """m^dag of a matrix, or of each matrix in a stack (..., r, c)."""
    return np.swapaxes(matrix, -1, -2).conj()


def _first(failed) -> int | None:
    """The index of the first True in a flat stack of failure flags, or None."""
    return int(np.flatnonzero(failed)[0]) if np.any(failed) else None


def hermiticity_defect(matrix: np.ndarray) -> float:
    """max|m - m^dag|, of a matrix or per matrix of a stack (..., n, n); 0 for an empty one."""
    return np.max(np.abs(matrix - _adjoint(matrix)), axis=(-2, -1), initial=0.0)


def _hermitian_within_tol(matrix: np.ndarray) -> np.ndarray:
    """Whether every entry is finite and the Hermiticity defect is at most 1e-10 * max(1, max|m|).

    Per matrix of a stack; the scale is finite exactly when every entry is.
    """
    scale = np.maximum(1.0, np.max(np.abs(matrix), axis=(-2, -1), initial=0.0))
    return np.isfinite(scale) & (hermiticity_defect(matrix) <= HERMITIAN_TOL * scale)


def _require_hermitian(matrices: np.ndarray):
    """Raise NotHermitian for the first matrix of a stack (m, n, n) outside 1e-10."""
    i = _first(np.logical_not(_hermitian_within_tol(matrices)))
    if i is not None:
        raise NotHermitian(f"hermiticity defect {hermiticity_defect(matrices[i]):.3e}")


def _projector_defect(matrix: np.ndarray) -> float:
    """max(||P^2 - P||_max, ||P - P^dag||_max); inf where either is NaN."""
    defect = float(np.max([np.max(np.abs(matrix @ matrix - matrix)), hermiticity_defect(matrix)]))
    return np.inf if np.isnan(defect) else defect


def _projector_range(matrix: np.ndarray) -> tuple[np.ndarray | None, float]:
    """(orthonormal columns spanning P's range, P's projector defect); None above 1e-9."""
    defect = _projector_defect(matrix)
    if not defect <= SPECTRAL_TOL:
        return None, defect
    evals, evecs = np.linalg.eigh(matrix)
    return evecs[:, evals > 0.5], defect


def _identity_defect(matrix: np.ndarray) -> float:
    """max|m - 1|: the unitarity defect of V^dag V, or the deficit of a resolution of 1.

    Per matrix for a stack (..., n, n); inf where it is NaN, so a non-finite
    entry fails every ``defect > tol`` check.  Only the diagonal is shifted
    by 1: |m| with |m_ii - 1| written over its diagonal.
    """
    diagonal = np.arange(matrix.shape[-1])
    magnitudes = np.abs(matrix)
    magnitudes[..., diagonal, diagonal] = np.abs(matrix[..., diagonal, diagonal] - 1.0)
    defect = np.max(magnitudes, axis=(-2, -1))
    return np.where(np.isnan(defect), np.inf, defect)[()]


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    """Each complex row of a stack (m, n) over its norm; raises below MIN_STATE_NORM.

    The norm sqrt(re.re + im.im) is, bit for bit, ``np.linalg.norm`` of the row.
    A row of finite entries whose squares overflow is first divided by its
    largest real or imaginary magnitude.
    """
    with np.errstate(over="ignore"):   # squares past the double range are rescaled below
        norms = np.sqrt(np.vecdot(vectors.real, vectors.real)
                        + np.vecdot(vectors.imag, vectors.imag))
    i = _first(np.logical_not((norms >= MIN_STATE_NORM) & (norms < np.inf)))   # NaN fails too
    if i is not None:
        huge = np.isinf(norms) & np.isfinite(vectors).all(axis=-1)
        if huge.any():
            scale = np.maximum(np.abs(vectors.real), np.abs(vectors.imag)).max(axis=-1)
            return _unit_rows(vectors / np.where(huge, scale, 1.0)[:, None])
        why = f"below floor {MIN_STATE_NORM:.0e}" if norms[i] < MIN_STATE_NORM else "not finite"
        raise ValueError(f"state norm {norms[i]:.3e} {why}")
    return vectors / norms[:, None]


def _eigenspace_slices(evals: np.ndarray) -> list[slice]:
    """Ascending eigenvalues grouped into eigenspaces: within 1e-9 of the spectral radius."""
    radius = float(np.abs(evals).max()) if len(evals) else 0.0
    return _cluster_slices(evals, SPECTRAL_TOL * radius)


def _degenerate_spectra(evals: np.ndarray) -> np.ndarray:
    """Per row of ascending eigenvalues (m, n): whether _eigenspace_slices merges any two."""
    radius = np.abs(evals).max(axis=-1, keepdims=True)
    return np.any(np.diff(evals, axis=-1) <= SPECTRAL_TOL * radius, axis=-1)


def _cluster_slices(evals: np.ndarray, gap: float) -> list[slice]:
    """Split ascending eigenvalues into runs whose neighbours lie within ``gap``."""
    ev = evals.tolist()
    cuts = [j for j in range(1, len(ev)) if ev[j] - ev[j - 1] > gap]
    return [slice(a, b) for a, b in zip([0, *cuts], [*cuts, len(ev)]) if b > a]


class _DenseBasis:
    """A basis held as its matrix, which becomes read-only and is read in place."""

    __slots__ = ("matrix", "shape")

    def __init__(self, matrix: np.ndarray):
        self.matrix, self.shape = _freeze(matrix), matrix.shape

    def apply(self, coefficients, cols=slice(None)) -> np.ndarray:
        return self.matrix[:, cols] @ coefficients

    def apply_adjoint(self, amplitudes, cols=slice(None)) -> np.ndarray:
        # (a^dag V)^dag reads V in place; V^dag a would copy it
        return (np.asarray(amplitudes).conj().T @ self.matrix[:, cols]).conj().T

    def columns(self, cols=slice(None)) -> np.ndarray:
        return self.matrix[:, cols]


class _IndexOrder:
    """The basis whose column j is the unit vector e_order[j]; arange(n) is the identity.

    V[:, cols] c writes c into rows order[cols] of zeros and V[:, cols]^dag a
    reads those rows, so applying costs O(len(cols)) and V is never written out.
    """

    __slots__ = ("order", "shape")

    def __init__(self, order: np.ndarray):
        self.order, self.shape = _freeze(order), (order.size, order.size)

    def apply(self, coefficients: np.ndarray, cols=slice(None)) -> np.ndarray:
        out = np.zeros(self.shape[:1] + coefficients.shape[1:], dtype=coefficients.dtype)
        out[self.order[cols]] = coefficients
        return out

    def apply_adjoint(self, amplitudes, cols=slice(None)) -> np.ndarray:
        return np.asarray(amplitudes)[self.order[cols]]

    def columns(self, cols=slice(None)) -> np.ndarray:
        return self.apply(np.eye(self.order[cols].size, dtype=complex), cols)


class _FourierBasis:
    """The free grid Hamiltonian's eigenbasis kron(F^dag, I_tags), applied by FFT.

    F is :func:`~qmeasure.dynamics.fourier_map`'s matrix.  Column (m, s) is
    the plane wave of wavenumber k_m carrying tag s; amplitude (x, s) sits
    at index x * tags + s.  The map is unitary by construction, so nothing
    is checked.
    """

    __slots__ = ("n", "tags", "shape", "signs")

    def __init__(self, n: int, tags: int = 1):
        self.n, self.tags, self.shape = n, tags, (n * tags, n * tags)
        self.signs = _freeze(np.where(np.arange(n)[:, None] % 2 == 0, 1.0, -1.0))   # s_j = (-1)^j

    def _along_grid(self, transform, data) -> np.ndarray:
        # on a centered grid with n even, F = fftshift . fft . ifftshift (orthonormal),
        # which is (-1)^(n/2) s fft s: two sign passes and no roll copies
        data = np.asarray(data)
        out = transform(data.reshape(self.n, -1) * self.signs, axis=0, norm="ortho")
        out *= -self.signs if self.n % 4 else self.signs
        return out.reshape(data.shape)

    def _every(self, cols) -> bool:
        """Whether ``cols`` is every column in order, which needs no scatter or gather."""
        if isinstance(cols, slice):
            return cols == slice(None)
        return np.array_equal(cols, np.arange(self.shape[1]))

    def apply(self, coefficients, cols=slice(None)) -> np.ndarray:
        """V[:, cols] c: momentum amplitudes, zero off ``cols``, to position amplitudes."""
        if not self._every(cols):
            coefficients = _IndexOrder(np.arange(self.shape[0])).apply(coefficients, cols)
        return self._along_grid(np.fft.ifft, coefficients)

    def apply_adjoint(self, amplitudes, cols=slice(None)) -> np.ndarray:
        """V[:, cols]^dag a: position amplitudes to momentum amplitudes, F along the grid."""
        momentum = self._along_grid(np.fft.fft, amplitudes)
        return momentum if self._every(cols) else momentum[cols]

    def columns(self, cols=slice(None)) -> np.ndarray:
        return self.apply(np.eye(np.arange(self.shape[1])[cols].size, dtype=complex), cols)


_BASES = (_DenseBasis, _IndexOrder, _FourierBasis)


class PureState:
    """A normalized state vector.

    Input amplitudes are renormalized; vectors with norm below
    ``MIN_STATE_NORM`` are rejected rather than silently blown up, since a
    near-zero vector almost always signals an upstream bug (e.g. projecting
    onto an impossible outcome), and so are vectors whose norm is not finite.
    """

    __slots__ = ("amplitudes", "dim")

    def __init__(self, amplitudes):
        vec = np.asarray(amplitudes, dtype=complex)
        if vec.ndim != 1:
            raise ValueError(f"expected a 1-d amplitude vector, got shape {vec.shape}")
        self.amplitudes, self.dim = _freeze(_unit_rows(vec[None])[0]), vec.shape[0]

    def inner(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        if other.dim != self.dim:
            raise DimensionMismatch(f"dims {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def overlap(self, other: "PureState") -> float:
        """|<self|other>|^2."""
        return abs(self.inner(other)) ** 2

    @property
    def columns(self) -> np.ndarray:
        """The state as its one ensemble column, psi[:, None]: rho = psi psi^dag."""
        return self.amplitudes[:, None]

    def to_density(self) -> "DensityOperator":
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))


class LinearOperator:
    """A general (possibly non-Hermitian) operator on a finite space."""

    __slots__ = ("matrix", "dim")

    def __init__(self, matrix):
        mat = _as_complex_matrix(matrix)
        self.matrix, self.dim = _freeze(mat), mat.shape[0]


class DensityOperator:
    """A trace-one positive operator (mixed state), held also as its ensemble columns.

    Construction enforces Hermiticity within 1e-10, eigenvalues >= -1e-10,
    and unit trace within 1e-10.  ``columns`` is the read-only (dim, r)
    array C = [sqrt(p_k) v_k] with rho ~ C C^dag, from one ``eigh`` of the
    symmetrized matrix: the eigenvalues above dim * eps * max(p) (the
    numerical rank, so a rank-r rho keeps r columns, not its roundoff),
    rescaled to sum to 1, and their eigenvectors.  Every Born-rule reader
    takes a state through its columns, so a pure state is the case r = 1.
    """

    __slots__ = ("matrix", "dim", "columns")

    def __init__(self, matrix):
        mat = _as_complex_matrix(matrix)
        if not _hermitian_within_tol(mat):
            raise NotHermitian(f"density matrix hermiticity defect {hermiticity_defect(mat):.3e}")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > HERMITIAN_TOL:
            raise ValueError(f"trace {trace} differs from 1")
        evals, evecs = np.linalg.eigh((mat + mat.conj().T) / 2)
        if evals[0] < -HERMITIAN_TOL:
            raise ValueError(f"negative eigenvalue {float(evals[0]):.3e}")
        keep = evals > evals[-1] * mat.shape[0] * np.finfo(float).eps   # matrix_rank's cut
        weights = evals[keep] / np.sum(evals[keep])
        self.matrix, self.dim = _freeze(mat), mat.shape[0]
        self.columns = _freeze(evecs[:, keep] * np.sqrt(weights))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim) / dim)

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


State = Union[PureState, DensityOperator]


class Observable:
    """A Hermitian operator held only as its spectral resolution.

    Ascending distinct eigenvalues, one orthonormal eigenbasis, and a column
    slice of it per eigenvalue; projectors and the dense :attr:`operator`
    are built when read.  The basis is one of three kinds: a dense matrix,
    an index order (the position grid and its regions: a permutation of
    unit vectors, never written out) or the grid's FFT-backed Fourier map
    (momentum).  A dense array ``basis`` is copied and checked: square and
    orthonormal (within 1e-9), ascending eigenvalues, and slices that tile
    the columns in order.  A basis object, an exact construction, is taken
    as given.
    """

    __slots__ = ("eigenvalues", "_basis", "_slices", "_operator")

    def __init__(self, eigenvalues, basis, slices):
        vals, slices = np.array(eigenvalues, dtype=float), tuple(slices)
        if not isinstance(basis, _BASES):
            matrix = _as_complex_matrix(basis)
            _check_eigenbases(vals[None], matrix[None], slices)
            basis = _DenseBasis(matrix)
        self.eigenvalues, self._basis = _freeze(vals), basis
        self._slices, self._operator = slices, None

    @property
    def n_outcomes(self) -> int:
        return len(self.eigenvalues)

    @property
    def dim(self) -> int:
        return self._basis.shape[0]

    @property
    def operator(self) -> LinearOperator:
        """The dense operator sum_i v_i Pi_i, built from the blocks on first read."""
        if self._operator is None:
            self._operator = LinearOperator(
                _resolution(self.eigenvalues, self._basis.columns(), self._slices))
        return self._operator

    def _weights(self, amplitudes: np.ndarray) -> np.ndarray:
        """The Born weight of each eigenspace for one state (n,) or each row of a stack (m, n)."""
        return _born_weights(self._basis.apply_adjoint(amplitudes.T).T, self._slices)

    def eigenbasis(self, i: int) -> np.ndarray:
        """Orthonormal columns spanning the i-th eigenspace."""
        return self._basis.columns(self._slices[i])

    def multiplicity(self, i: int) -> int:
        sl = self._slices[i]
        return sl.stop - sl.start

    def projector(self, i: int) -> LinearOperator:
        block = self.eigenbasis(i)
        return LinearOperator(block @ block.conj().T)

    @property
    def spectrum(self) -> list[tuple[float, LinearOperator]]:
        """The spectral resolution as (eigenvalue, projector) pairs.

        Materializes every projector; avoid on large grid operators.
        """
        return [(float(v), self.projector(i)) for i, v in enumerate(self.eigenvalues)]

    def outcome_index(self, outcome: float) -> int:
        """Map an eigenvalue label to its index in the ascending spectrum.

        The label must lie within 1e-6 * max(1, max|v|) of an eigenvalue.
        """
        vals = self.eigenvalues
        i = int(np.argmin(np.abs(vals - outcome)))
        if abs(vals[i] - outcome) > OUTCOME_TOL * max(1.0, float(np.max(np.abs(vals)))):
            raise ValueError(f"{outcome} is not an eigenvalue of this observable")
        return i


def _check_eigenbases(vals: np.ndarray, bases: np.ndarray, slices: Sequence[slice]):
    """Observable's invariants for a stack: eigenvalues (m, k), dense bases (m, n, n).

    One slice per eigenvalue, ascending distinct eigenvalues, orthonormal
    bases (within 1e-9), and slices that tile the columns in order.
    """
    if vals.shape[-1] != len(slices):
        raise ValueError("one slice per distinct eigenvalue required")
    if vals.shape[-1] > 1 and np.any(np.diff(vals, axis=-1) <= 0):
        raise ValueError("eigenvalues must be distinct and ascending")
    unitarity = _identity_defect(_adjoint(bases) @ bases)
    i = _first(unitarity > SPECTRAL_TOL)
    if i is not None:
        raise ValueError(f"eigenbasis not orthonormal: defect {unitarity[i]:.3e}")
    columns = [np.arange(bases.shape[-1])[sl] for sl in slices]
    if not (all(c.size for c in columns)
            and np.array_equal(np.concatenate(columns), np.arange(bases.shape[-1]))):
        raise ValueError("eigenvalue multiplicities do not fill the space")


def _resolution(vals: np.ndarray, bases: np.ndarray, slices: Sequence[slice]) -> np.ndarray:
    """sum_i v_i B_i B_i^dag, symmetrized; per member of a stack (..., k), (..., n, n)."""
    counts = [sl.stop - sl.start for sl in slices]
    m = (bases * np.repeat(vals, counts, axis=-1)[..., None, :]) @ _adjoint(bases)
    return (m + _adjoint(m)) / 2


def _check_spectra(matrices: np.ndarray, evals: np.ndarray, evecs: np.ndarray,
                   slices: Sequence[slice]) -> tuple[np.ndarray, np.ndarray]:
    """Resolve a stack of Hermitian matrices (m, n, n) from their ``eigh`` output.

    Each matrix must be Hermitian within 1e-10 (else NotHermitian).
    Eigenvalues of one slice merge into their mean.  The eigenbases must
    pass Observable's checks and the merged resolutions must rebuild each
    matrix within 1e-9 * max(1, max|v|).  Returns the merged eigenvalues
    (m, k) and the rebuilt operators.
    """
    _require_hermitian(matrices)
    vals = np.stack([np.mean(evals[:, sl], axis=-1) for sl in slices], axis=-1)
    _check_eigenbases(vals, evecs, slices)
    rebuilt = _resolution(vals, evecs, slices)
    defect = np.max(np.abs(rebuilt - matrices), axis=(-2, -1))
    i = _first(defect > SPECTRAL_TOL * np.maximum(1.0, np.max(np.abs(vals), axis=-1)))
    if i is not None:
        raise ValueError(f"spectral reconstruction defect {defect[i]:.3e}")
    return vals, rebuilt


def spectral_decompose(op: LinearOperator) -> Observable:
    """Diagonalize a Hermitian operator into distinct-eigenvalue projectors.

    Eigenvalues within 1e-9 of the spectral radius of each other are merged
    into one degenerate eigenspace, so numerically split degeneracies are
    regrouped.  The merged resolution must rebuild ``op`` within 1e-9 *
    max(1, max|v|).

    Raises NotHermitian if ``op`` is not Hermitian within 1e-10.
    """
    evals, evecs = np.linalg.eigh(op.matrix)
    slices = _eigenspace_slices(evals)
    vals, _ = _check_spectra(op.matrix[None], evals[None], evecs[None], slices)
    return Observable(vals[0], _DenseBasis(evecs), slices)


def _born_weights(coefficients: np.ndarray, slices: Sequence[slice]) -> np.ndarray:
    """<psi|Pi_i|psi> = ||B_i^dag psi||^2 per eigenspace, in ascending order.

    ``coefficients`` holds V^dag psi on its last axis, for one state (n,) or
    a stack (m, n); the weights are (k,) or (m, k).
    """
    power = np.abs(coefficients) ** 2
    return np.stack([np.sum(power[..., sl], axis=-1) for sl in slices], axis=-1)


def _kind(obj) -> str:
    if isinstance(obj, PureState):
        return "state"
    if isinstance(obj, (DensityOperator, LinearOperator)):
        return "operator"
    raise TypeError(f"cannot tensor object of type {type(obj).__name__}")


def tensor_product(a, b):
    """Kronecker composition of two states or two operators.

    The left factor is the slow (most significant) index, so
    ``tensor_product(basis_state(2, 0), basis_state(2, 1))`` puts its single
    nonzero amplitude at index 1.
    """
    kind_a, kind_b = _kind(a), _kind(b)
    if kind_a != kind_b:
        raise TypeError(f"cannot tensor a {kind_a} with a {kind_b}")
    if kind_a == "state":
        return PureState(np.kron(a.amplitudes, b.amplitudes))
    mat = np.kron(a.matrix, b.matrix)
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return DensityOperator(mat)
    return LinearOperator(mat)


def partial_trace(rho: DensityOperator, subsystem_dims: Sequence[int],
                  keep: Iterable[int]) -> DensityOperator:
    """Trace out all tensor factors not listed in ``keep``.

    ``subsystem_dims`` lists the factor dimensions in tensor order (left
    factor first); their product must equal ``rho.dim``.  The kept factors
    retain their original relative order.
    """
    dims = [int(d) for d in subsystem_dims]
    if int(np.prod(dims)) != rho.dim:
        raise DimensionMismatch(
            f"product of {dims} is {int(np.prod(dims))}, expected {rho.dim}")
    keep = sorted(set(int(i) for i in keep))
    n = len(dims)
    if any(i < 0 or i >= n for i in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    if not keep:
        raise ValueError("must keep at least one factor")
    tensor = rho.matrix.reshape(dims + dims)
    traced = tensor
    removed = 0
    for i in range(n):
        if i in keep:
            continue
        axis = i - removed
        ndim_half = traced.ndim // 2
        traced = np.trace(traced, axis1=axis, axis2=axis + ndim_half)
        removed += 1
    kept_dim = int(np.prod([dims[i] for i in keep]))
    return DensityOperator(traced.reshape(kept_dim, kept_dim))


def expectation(state: State, op: LinearOperator) -> complex:
    """Tr(rho A) = sum_k <c_k|A|c_k> over the state's ensemble columns; <psi|A|psi> when pure."""
    if state.dim != op.dim:
        raise DimensionMismatch(f"state dim {state.dim} vs operator dim {op.dim}")
    return complex(np.vdot(state.columns, op.matrix @ state.columns))


def basis_state(dim: int, index: int) -> PureState:
    vec = np.zeros(dim, dtype=complex)
    vec[index] = 1.0
    return PureState(vec)


SIGMA_X = LinearOperator([[0, 1], [1, 0]])
SIGMA_Y = LinearOperator([[0, -1j], [1j, 0]])
SIGMA_Z = LinearOperator([[1, 0], [0, -1]])
