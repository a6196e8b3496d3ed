"""Continuous-measurement physics: quasi-continuum decay and projective freezing.

An unstable level coupled to a flat band of quasi-continuum modes decays
exponentially inside a recurrence-safe window, at the finite-band rate
Gamma' = (1/tau) [1 + O(1/(W tau))] (see ``DecayModel``).  Re-projecting
onto the undecayed level every Delta seconds leaves those statistics alone
while Delta stays long compared to the band correlation time t0 = 2*pi/W,
and freezes the decay entirely as Delta -> 0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidRegime, OutsideValidityWindow, UnresolvedSpectrum
from .hilbert import LinearOperator, _freeze, basis_state
from .dynamics import Hamiltonian, _phase_step

MIN_BAND_DECAY_PRODUCT = 20.0
MIN_MODES = 200
PSI_SHIFT = 10
SECULAR_MAX_SWEEPS = 60
SECULAR_STEP_ULPS = 4
WEIGHT_SUM_TOL = 1e-12
# rabi_zeno's rotation by t radians about x, and the state it starts in and is projected onto
RABI_GENERATOR = LinearOperator([[0, 0.5], [0.5, 0]])
UP = basis_state(2, 0).amplitudes


def _digamma_pair(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(psi(z), psi'(z)) elementwise for positive z, to about 1e-15 absolute.

    psi(z) = psi(z + 1) - 1/z and psi'(z) = psi'(z + 1) + 1/z^2 shift every
    argument up by 10, where the asymptotic series, cut after its z^-12 and
    z^-13 terms (Bernoulli numbers up to B_12), is good to double precision.
    """
    psi, trigamma = np.zeros_like(z), np.zeros_like(z)
    for _ in range(PSI_SHIFT):
        inv = 1.0 / z
        psi -= inv
        trigamma += inv * inv
        z = z + 1.0
    inv = 1.0 / z
    r = inv * inv
    psi += np.log(z) - 0.5 * inv - r * (1 / 12 - r * (1 / 120 - r * (1 / 252 - r * (
        1 / 240 - r * (1 / 132 - r * (691 / 32760))))))
    trigamma += inv + 0.5 * r + inv * r * (1 / 6 - r * (1 / 30 - r * (1 / 42 - r * (
        1 / 30 - r * (5 / 66 - r * (691 / 2730))))))
    return psi, trigamma


def _comb_tails(k: np.ndarray, s: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """What the comb 0..n-1 adds to the lattice sums at u = k + s, k in {-1..n-1}, s in (0, 1).

    Telescoping by psi(z + 1) - psi(z) = 1/z, then the reflection formula, gives

        sum_k 1/(u - k)   = pi cot(pi s)      + [psi(u + 1) - psi(n - u)],
        sum_k 1/(u - k)^2 = pi^2 / sin^2(pi s) - [psi'(u + 1) + psi'(n - u)];

    returns the two brackets, whose arguments stay positive on (-1, n).
    """
    psi, trigamma = _digamma_pair(np.stack([k + 1 + s, n - k - s]))
    return psi[0] - psi[1], trigamma[0] + trigamma[1]


def _comb_spectrum(n: int, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Roots and weights of the level at 0 coupled to modes at k - (n - 1)/2, k = 0..n-1.

    In units of the mode spacing, with b = spacing^2 / g^2, root j is
    E_j = k - (n - 1)/2 + s for its gap k and offset s in (0, 1), and it
    solves the secular equation E = sum_k 1/(b (E - omega_k)) written as

        s = arccot(X(s) / pi) / pi,  X(s) = b E(s) - [psi(u + 1) - psi(n - u)],

    which is smooth and pole-free in s.  Its weight is w_j = |<0|v_j>|^2 =
    1 / (1 + sum_k (E_j - omega_k)^-2 / b), with pi^2 / sin^2(pi s) =
    pi^2 + X^2 at the root.  The band is symmetric about the level, so the
    roots at or above it (gaps (n - 1)//2 .. n - 1) are solved and mirrored;
    those below sit just under a pole, where s could not resolve 1 - s.
    Each root takes safeguarded Newton steps on F(s) = s - arccot(X/pi)/pi
    inside the bracket F < 0 < F, starting from the two-term model
    1/s = X(0) + b s, until a step is at most 4 ulp of s; UnresolvedSpectrum
    after 60 sweeps.  Returns (E, w), both ascending in E, N + 1 entries.
    """
    center = (n - 1) / 2
    k = np.arange((n - 1) // 2, n, dtype=float)
    x0 = b * (k - center) - _comb_tails(k, np.zeros_like(k), n)[0]
    q = (np.hypot(x0, 2 * np.sqrt(b)) + np.abs(x0)) / 2  # b s^2 + x0 s - 1 = 0 at s = 1/q or q/b
    s = np.where(x0 >= 0, 1 / q, q / b)
    s = np.where(k - center == -0.5, 0.5, np.clip(s, np.finfo(float).tiny, 0.5))  # X(1/2) = 0 there
    lo, hi = np.zeros_like(s), np.ones_like(s)
    with np.errstate(over="ignore"):  # X^2 = inf past b ~ 1e154 / n: those weights are 0
        for _ in range(SECULAR_MAX_SWEEPS):
            tail, tail2 = _comb_tails(k, s, n)
            x = b * (k - center + s) - tail
            f = s - np.arctan2(np.pi, x) / np.pi
            lo, hi = np.where(f < 0, s, lo), np.where(f > 0, s, hi)
            step = s - f / (1 + (b - tail2) / (np.pi ** 2 + x * x))
            step = np.where((step > lo) & (step < hi) | (step == s), step, (lo + hi) / 2)
            done = np.all(np.abs(step - s) <= SECULAR_STEP_ULPS * np.spacing(s))
            s = step
            if done:
                break
        else:
            raise UnresolvedSpectrum(f"secular equation unconverged after {SECULAR_MAX_SWEEPS} "
                                     f"sweeps ({n} modes, spacing^2/g^2 = {b:.6g})")
        tail, tail2 = _comb_tails(k, s, n)
        x = b * (k - center + s) - tail
        weights = 1 / (1 + (np.pi ** 2 + x * x - tail2) / b)
    energies = k - center + s
    below = slice(None, None if n % 2 else 0, -1)  # every root above the level, reversed
    return (np.concatenate([-energies[below], energies]),
            np.concatenate([weights[below], weights]))


class DecayModel:
    """One undecayed level coupled uniformly to a flat band of modes.

    The band has ``n_modes`` levels spaced ``delta_omega = bandwidth /
    n_modes`` symmetric about the undecayed level's energy (set to 0), each
    coupled with strength g = sqrt(delta_omega / (2 pi tau)), so that Fermi's
    golden rule gives decay rate Gamma = 1/tau.  That is the infinite-band
    limit.  A band of width W has self-energy Sigma(z) = (Gamma / 2 pi)
    ln((z + W/2) / (z - W/2)), whose decaying pole z = -i Gamma'/2 has

        rate     Gamma' = Gamma [1 + (2/pi) arctan(Gamma'/W)],
        residue  |Z|^2 = [1 - (2 Gamma / pi) W / (W^2 + Gamma'^2)]^-2,

    so the survival probability follows |Z|^2 exp(-Gamma' t).  Both factors
    tend to the golden-rule values as 1 + O(1/(W tau)); at W tau = 40,
    Gamma' = 1.016 / tau and |Z|^2 = 1.033 (Fonda, Ghirardi & Rimini, Rep.
    Prog. Phys. 41, 587 (1978)).  Discreteness revives the initial state on
    the recurrence scale T_valid = 2 pi / delta_omega, so times are only
    accepted up to T_valid / 3.

    The model holds only the spectrum the undecayed level sees: the N + 1
    eigenvalues E_j of the band Hamiltonian and their weights w_j =
    |<undecayed|v_j>|^2 (read-only ``energies`` and ``weights``, ascending
    in E, sum w = 1), so that A(t) = sum_j w_j e^{-i E_j t}.  No N + 1
    square matrix is formed: on the uniform comb the secular equation sums
    in closed form (see ``_comb_spectrum``), each root in O(1).  One root
    lies in each gap of the comb and one outside each band edge, within
    one spacing of it whenever pi W tau > H_N (the N-th harmonic number);
    bandwidth * tau >= 20 guarantees that for any N below e^62.  Raises
    InvalidRegime for tau or bandwidth not positive, bandwidth * tau below
    20 or 2 pi bandwidth tau past the double range, or fewer than 200
    modes, and UnresolvedSpectrum (a SimulationError) if the secular solve
    does not converge or gives a non-finite root or weight, or weights that
    miss sum 1 by more than 1e-12.
    """

    __slots__ = ("tau", "n_modes", "bandwidth", "coupling", "delta_omega",
                 "t0", "t_valid", "energies", "weights")

    def __init__(self, tau: float, n_modes: int, bandwidth: float):
        if tau <= 0 or bandwidth <= 0:
            raise InvalidRegime("tau and bandwidth must be positive")
        if bandwidth * tau < MIN_BAND_DECAY_PRODUCT:
            raise InvalidRegime(
                f"bandwidth*tau = {bandwidth * tau:.3g} below {MIN_BAND_DECAY_PRODUCT}; "
                "the weak-coupling (golden-rule) regime does not apply")
        if not np.isfinite(2 * np.pi * (bandwidth * tau)):
            raise InvalidRegime(f"2 pi bandwidth*tau overflows (tau {tau:.3g}, "
                                f"bandwidth {bandwidth:.3g})")
        if n_modes < MIN_MODES:
            raise InvalidRegime(f"need at least {MIN_MODES} modes, got {n_modes}")
        self.tau = float(tau)
        self.n_modes = int(n_modes)
        self.bandwidth = float(bandwidth)
        self.delta_omega = self.bandwidth / self.n_modes
        self.coupling = float(np.sqrt(self.delta_omega / self.tau / (2 * np.pi)))
        self.t0 = 2 * np.pi / self.bandwidth
        self.t_valid = 2 * np.pi / self.delta_omega

        energies, weights = _comb_spectrum(self.n_modes, 2 * np.pi * (self.tau * self.delta_omega))
        energies *= self.delta_omega
        if not (np.all(np.isfinite(energies)) and np.all(np.isfinite(weights))):
            raise UnresolvedSpectrum(f"non-finite root or weight from the secular equation "
                                     f"({self.n_modes} modes)")
        total = float(np.sum(weights))
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            raise UnresolvedSpectrum(f"secular weights sum to 1 {total - 1.0:+.3e} "
                                     f"({self.n_modes} modes)")
        self.energies, self.weights = _freeze(energies), _freeze(weights)

    def _check_window(self, t: float):
        if t < 0:
            raise OutsideValidityWindow(f"negative time {t}")
        if not t <= self.t_valid / 3:
            raise OutsideValidityWindow(
                f"time {t:.4g} exceeds recurrence-safe window "
                f"T_valid/3 = {self.t_valid / 3:.4g}")

    def survival_amplitude(self, t: float) -> complex:
        """A(t) = <undecayed|e^{-iHt}|undecayed> = sum_j w_j e^{-i E_j t}.

        The phase step of ``Hamiltonian.evolve_amplitudes``, applied to the
        weights; no window check.  ValueError for a non-finite t or an
        overflowing phase E*t.
        """
        if not math.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        return complex(np.sum(_phase_step(self.energies, self.weights, t)))


def build_decay_model(tau: float, n_modes: int, bandwidth: float) -> DecayModel:
    """Construct a decay model; raises InvalidRegime outside weak coupling."""
    return DecayModel(tau, n_modes, bandwidth)


def survival_probability(model: DecayModel, t: float) -> float:
    """|<undecayed|U(t)|undecayed>|^2 inside the validity window.

    Follows the finite-band law |Z|^2 exp(-Gamma' t) of ``DecayModel``: at
    bandwidth*tau = 40 and 400 modes, to within 0.67% for t in [0.2 tau,
    3 tau], against 3.09% from the golden-rule law exp(-t/tau).  The
    early-time deviation is quadratic (that is the physics the Zeno limit
    exploits) and band-edge transients contribute O(1/(bandwidth*tau)).
    """
    model._check_window(t)
    return abs(model.survival_amplitude(t)) ** 2


def iterated_projection_survival(model: DecayModel, delta: float, horizon: float) -> float:
    """Survival under "evolve delta, check for decay" repeated to the horizon.

    Each cycle evolves the kept state for ``delta``, records the probability
    of still finding it undecayed, and keeps the renormalized undecayed
    branch, which is the undecayed level itself: each of the
    n = floor(horizon / delta) cycles survives with the same |A(delta)|^2,
    so the projection rule applied every ``delta`` seconds predicts
    |A(delta)|^(2n), with A the survival amplitude.
    """
    if delta <= 0:
        raise ValueError("projection interval must be positive")
    n_cycles = int(np.floor(horizon / delta + 1e-12))
    if n_cycles < 1:
        raise ValueError(f"horizon {horizon} shorter than one cycle of {delta}")
    model._check_window(n_cycles * delta)
    return float(abs(model.survival_amplitude(delta)) ** (2 * n_cycles))


def rabi_zeno(theta: float, n_projections):
    """Survival of a two-level rotation interrupted by N projections.

    A spin is rotated by total angle theta in N equal steps; after each step
    it is projected back onto its initial state, so the survival is
    |<up|U(theta/N)|up>|^2N (closed form cos^2N(theta / 2N)).
    ``n_projections`` is N, an integer >= 1, or an array of such integers,
    which gives an array of survivals from one evolution.  Any other count
    (a bool, a float, N < 1) raises ValueError naming it.
    """
    n = np.asarray(n_projections)
    wrong = n < 1 if n.dtype.kind in "iu" else np.ones(n.shape, dtype=bool)
    if wrong.any():
        raise ValueError(f"need integer projection counts >= 1, got {n[wrong].flat[0].item()!r}")
    survival = _rabi_survivals(theta, n)
    return float(survival) if n.ndim == 0 else survival


def _rabi_survivals(theta: float, n: np.ndarray) -> np.ndarray:
    """|<up|U(theta/N)|up>|^2N for an integer array of counts N >= 1, from one evolution."""
    counts = n.ravel()
    # diagonalized per call, not at import, where the first eigh costs every process ~0.8 MB RSS
    magnitudes = np.abs(Hamiltonian(RABI_GENERATOR).evolve_amplitudes(UP, theta / counts)[0])
    # libm's pow per count: numpy's array power can differ from it in the last bit
    return np.reshape([m ** (2 * k) for m, k in zip(magnitudes.tolist(), counts.tolist())],
                      n.shape)
