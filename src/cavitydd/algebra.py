"""Dense complex operator algebra on the joint qubit (x) oscillator space.

Tensor ordering is fixed throughout the package as qubit (x) rest: a joint
operator is ``np.kron(qubit_part, rest_part)``.  All frequencies passed in
``ModelParams`` are in units of 2*pi/tau_p; ``jaynes_cummings`` converts them
to angular frequencies.  Time is in units of tau_p throughout the package,
so ``CouplingSet.scaled`` sets the expansion parameter J tau_p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

HERMITICITY_TOL = 1e-12


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices: np.kron's products without its
    any-dimension overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Commutator [a, b]."""
    return a @ b - b @ a


def anticomm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Anticommutator {a, b}."""
    return a @ b + b @ a


def op_norm(a: np.ndarray) -> float:
    """Spectral (2-) norm: the largest singular value, which is what
    np.linalg.norm(a, 2) returns, without its dispatch."""
    return float(np.linalg.svd(a, compute_uv=False)[0])


def is_hermitian(a: np.ndarray) -> bool:
    """|a - a^dagger| < HERMITICITY_TOL max(1, |a|); an exactly zero
    difference passes without the SVDs (NaN or inf is nonzero)."""
    diff = a - a.conj().T
    if not diff.any():
        return True
    return op_norm(diff) < HERMITICITY_TOL * max(1.0, op_norm(a))


def expm_herm(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Unitary exp(-i*h*t) for Hermitian h, via eigendecomposition.

    Raises
    ------
    ValueError
        If ``h`` is not Hermitian.
    """
    if not is_hermitian(h):
        raise ValueError("expm_herm requires a Hermitian matrix")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def lowering(dim: int) -> np.ndarray:
    """Oscillator annihilation operator b truncated to ``dim`` levels."""
    b = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        b[n - 1, n] = np.sqrt(n)
    return b


@dataclass(frozen=True)
class CouplingSet:
    """Operator quadruple (A0, Ax, Ay, Az) acting on the non-qubit factor.

    Each entry is a dense Hermitian matrix of the same dimension (dimension 1
    for a bare qubit).  The joint system Hamiltonian is assembled as
    Hs = sigma_x Ax + sigma_y Ay + sigma_z Az + A0; it is Hermitian iff every
    A_k is, and it is Hs that is checked here, with the test expm_herm
    applies, so every set that constructs, scaled copies included, can be
    exponentiated.  The pulse propagator relies on this check and does not
    repeat it.
    """

    a0: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    az: np.ndarray

    def __post_init__(self):
        dims = {m.shape for m in (self.a0, self.ax, self.ay, self.az)}
        if len(dims) != 1:
            raise ValueError(f"coupling operators have mismatched shapes: {dims}")
        d = self.a0.shape
        if len(d) != 2 or d[0] != d[1]:
            raise ValueError("coupling operators must be square matrices")
        if not is_hermitian(assemble(self)):
            # name the operator with the largest anti-Hermitian part
            ops = {"A0": self.a0, "Ax": self.ax, "Ay": self.ay, "Az": self.az}
            name = max(ops, key=lambda k: op_norm(ops[k] - ops[k].conj().T))
            raise ValueError(f"coupling operator {name} is not Hermitian")

    @property
    def dim(self) -> int:
        return self.a0.shape[0]

    def scaled(self, factor: float) -> "CouplingSet":
        """Uniformly rescaled couplings, J tau_p times factor, checked as
        every set is.

        Raises
        ------
        ValueError
            If factor is not finite or overflows, or the set is not Hermitian.
        """
        if not np.isfinite(factor):
            raise ValueError("coupling scale factor must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            ops = [factor * m for m in (self.a0, self.ax, self.ay, self.az)]
            # an entry of Hs sums two operator entries, as in jaynes_cummings
            if not all(np.isfinite(2 * m).all() for m in ops):
                raise ValueError(f"coupling scale factor {factor:g} overflows")
        return CouplingSet(*ops)


@dataclass(frozen=True)
class ModelParams:
    """Jaynes-Cummings model parameters.

    omega_r, omega_0 and g are in units of 2*pi/tau_p (the paper-style figure
    labeling); ``n_max`` is the highest retained oscillator level, so the
    oscillator factor has dimension n_max + 1.
    """

    omega_r: float = 0.0
    omega_0: float = 0.0
    g: float = 0.0002
    n_max: int = 8

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        for name in ("omega_r", "omega_0", "g"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def jaynes_cummings(params: ModelParams) -> CouplingSet:
    """Coupling set for a qubit exchange-coupled to a single cavity mode.

    Builds A0 = omega_r b'b, Ax = -g (b + b')/2, Ay = i g (b' - b)/2,
    Az = (omega_0/2) 1, all truncated to n_max + 1 levels, with frequencies
    converted from 2*pi/tau_p units to angular frequency in units of 1/tau_p.

    Raises
    ------
    ValueError
        If a finite frequency overflows its operator, or twice it.
    """
    unit = 2 * np.pi
    dim = params.n_max + 1
    b = lowering(dim)
    bd = b.conj().T
    with np.errstate(over="ignore", invalid="ignore"):
        omr = params.omega_r * unit
        om0 = params.omega_0 * unit
        g = params.g * unit
        a0 = omr * (bd @ b)
        ax = -g * (b + bd) / 2
        ay = 1j * g * (bd - b) / 2
        az = (om0 / 2) * np.eye(dim, dtype=complex)
        # an entry of Hs sums two operator entries, so a frequency whose
        # doubled entries overflow is refused by name
        for name, ops in (("omega_r", (a0,)), ("g", (ax, ay)),
                          ("omega_0", (az,))):
            if not all(np.isfinite(2 * m).all() for m in ops):
                raise ValueError(
                    f"{name} = {getattr(params, name):g} overflows the "
                    f"coupling operators at n_max = {params.n_max}")
    return CouplingSet(a0=a0, ax=ax, ay=ay, az=az)


def assemble(couplings: CouplingSet) -> np.ndarray:
    """Full system Hamiltonian sigma_x Ax + sigma_y Ay + sigma_z Az + A0."""
    return (kron(SIGMA_X, couplings.ax) + kron(SIGMA_Y, couplings.ay)
            + kron(SIGMA_Z, couplings.az) + kron(IDENTITY_2, couplings.a0))
