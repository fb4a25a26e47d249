"""Jones calculus for single-photon polarization qubits and wave-plate recipes.

All angles are degrees (fast-axis angle measured from the horizontal).
States produced by different recipes are only defined up to a global phase,
so comparisons should go through :func:`overlap`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import cos, radians, sin, sqrt

import numpy as np

_NORM_TOL = 1e-9


class PlateKind(enum.Enum):
    HALF = "half"
    QUARTER = "quarter"


# retardance of the slow axis relative to the fast axis, degrees
_RETARDANCE_DEG = {PlateKind.HALF: 180.0, PlateKind.QUARTER: 90.0}


@dataclass(frozen=True)
class PolarizationState:
    """Normalized Jones vector over the (H, V) linear basis."""

    h: complex
    v: complex

    def __post_init__(self):
        object.__setattr__(self, "h", complex(self.h))
        object.__setattr__(self, "v", complex(self.v))
        norm_sq = abs(self.h) ** 2 + abs(self.v) ** 2
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ValueError(f"polarization state is not normalized: |h|^2+|v|^2 = {norm_sq}")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.h, self.v], dtype=complex)

    @staticmethod
    def from_vector(vec) -> "PolarizationState":
        vec = np.asarray(vec, dtype=complex)
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise ValueError("cannot normalize a zero Jones vector")
        return PolarizationState(vec[0] / norm, vec[1] / norm)


HORIZONTAL = PolarizationState(1.0, 0.0)
VERTICAL = PolarizationState(0.0, 1.0)


@dataclass(frozen=True)
class WavePlate:
    """A half- or quarter-wave retarder at fast-axis angle ``angle_deg`` (mod 180)."""

    kind: PlateKind
    angle_deg: float


@dataclass(frozen=True)
class PrepRecipe:
    """Two-plate state preparation from |H>: quarter-wave plate first, then half-wave plate."""

    qwp_deg: float
    hwp_deg: float

    def plates(self) -> tuple[WavePlate, WavePlate]:
        return (
            WavePlate(PlateKind.QUARTER, self.qwp_deg),
            WavePlate(PlateKind.HALF, self.hwp_deg),
        )


def waveplate_matrix(plate: WavePlate) -> np.ndarray:
    """Jones matrix of a rotated ideal retarder.

    Convention: R(theta) @ diag(1, exp(-i delta)) @ R(-theta), where R is the
    active rotation by the fast-axis angle and delta the retardance (180 deg
    for a half-wave plate, 90 deg for a quarter-wave plate).  With this sign a
    quarter-wave plate at +45 deg maps |H> to (|H> + i|V>)/sqrt(2), and the
    two-plate recipes below reproduce their analytic targets.
    """
    return waveplate_matrices(plate.kind, plate.angle_deg)


def waveplate_matrices(kind: PlateKind, angle_deg) -> np.ndarray:
    """Jones matrices, shape angle_deg.shape + (2, 2), of one plate kind at an array of angles.

    Closed form of the waveplate_matrix convention: with c, s the cosine and
    sine of the fast-axis angle and e = exp(-i delta),
    [[c^2 + s^2 e, c s (1 - e)], [c s (1 - e), s^2 + c^2 e]].
    """
    th = np.radians(np.asarray(angle_deg, dtype=float))
    c, s = np.cos(th), np.sin(th)
    e = np.exp(-1j * radians(_RETARDANCE_DEG[kind]))
    out = np.empty(th.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c * c + s * s * e
    out[..., 0, 1] = out[..., 1, 0] = c * s * (1.0 - e)
    out[..., 1, 1] = s * s + c * c * e
    return out


def apply_plate(state: PolarizationState, plate: WavePlate) -> PolarizationState:
    """Send a polarization state through a wave plate."""
    out = waveplate_matrix(plate) @ state.vector
    return PolarizationState.from_vector(out)


def prepare_from_recipe(recipe: PrepRecipe, state: PolarizationState = HORIZONTAL) -> PolarizationState:
    """Apply a two-plate recipe (QWP then HWP) to an input state, |H> by default."""
    qwp, hwp = recipe.plates()
    return apply_plate(apply_plate(state, qwp), hwp)


def prepare_from_angles(qwp_deg, hwp_deg) -> np.ndarray:
    """Jones vectors, shape (..., 2), of |H> sent through a QWP then a HWP at broadcast angles.

    The array counterpart of prepare_from_recipe: entry [...] equals, to
    rounding, prepare_from_recipe(PrepRecipe(qwp_deg[...], hwp_deg[...])).vector.
    Both plates are unitary, so the vectors are normalized without rescaling.
    """
    after_qwp = waveplate_matrices(PlateKind.QUARTER, qwp_deg)[..., :, 0]
    return np.einsum("...ij,...j->...i", waveplate_matrices(PlateKind.HALF, hwp_deg), after_qwp)


def stokes_vectors(jones) -> np.ndarray:
    """Stokes vectors (z, x, y), shape (..., 3), of Jones vectors (h, v), shape (..., 2).

    z = |h|^2 - |v|^2 and x + i y = 2 conj(h) v, so |+45> is (0, 1, 0) and
    (|H> + i|V>)/sqrt(2) is (0, 0, 1); a unit Jones vector has a unit one.
    """
    jones = np.asarray(jones, dtype=complex)
    h, v = jones[..., 0], jones[..., 1]
    cross = 2.0 * np.conj(h) * v
    return np.stack([(h * h.conj()).real - (v * v.conj()).real, cross.real, cross.imag], axis=-1)


def stokes_from_angles(qwp_deg, hwp_deg) -> np.ndarray:
    """Stokes vectors (z, x, y), shape (..., 3), of |H> sent through a QWP then a HWP at broadcast angles.

    Those of the prepare_from_angles Jones vectors (h, v), z = |h|^2 - |v|^2
    and x + i y = 2 conj(h) v, in closed form and real arithmetic: the QWP
    at q gives (cos^2 2q, sin 2q cos 2q, sin 2q), and the HWP at h reflects
    the linear part (z, x) about the Stokes-plane axis at 2h, by the matrix
    [[cos 4h, sin 4h], [sin 4h, -cos 4h]], and negates y.  Negating both
    angles negates x and y and keeps z, bit for bit.
    """
    q = 2.0 * np.radians(np.asarray(qwp_deg, dtype=float))
    h = 4.0 * np.radians(np.asarray(hwp_deg, dtype=float))
    cos_q, sin_q = np.cos(q), np.sin(q)
    cos_h, sin_h = np.cos(h), np.sin(h)
    z, x = cos_q * cos_q, sin_q * cos_q
    out = np.empty(np.broadcast_shapes(q.shape, h.shape) + (3,))
    out[..., 0] = cos_h * z + sin_h * x
    out[..., 1] = sin_h * z - cos_h * x
    out[..., 2] = -sin_q
    return out


def prepare_elliptical(epsilon_deg: float, theta_deg: float, sign: int = +1) -> PolarizationState:
    """Elliptically polarized state with ellipticity epsilon and axis angle theta.

    The half-axes are x = cos(epsilon) along the direction theta and
    y = sin(epsilon) across it, so tan(epsilon) = y/x and the state is
    (x cos th + i y sin th)|H> +/- (x sin th - i y cos th)|V>, already unit norm.
    """
    x, y = cos(radians(epsilon_deg)), sin(radians(epsilon_deg))
    th = radians(theta_deg)
    s = 1.0 if sign >= 0 else -1.0
    return PolarizationState(
        x * cos(th) + 1j * y * sin(th),
        s * (x * sin(th) - 1j * y * cos(th)),
    )


def recipe_discriminator(epsilon_deg: float, theta_deg: float, sign: int = +1) -> PrepRecipe:
    """Wave-plate angles preparing prepare_elliptical(epsilon, theta, sign) from |H>.

    QWP at +/-epsilon, then HWP at +/-(epsilon+theta)/2.
    """
    s = 1.0 if sign >= 0 else -1.0
    return PrepRecipe(qwp_deg=s * epsilon_deg, hwp_deg=s * (epsilon_deg + theta_deg) / 2.0)


def prepare_equatorial(phi_deg: float, sign: int = +1) -> PolarizationState:
    """Equatorial Bloch-sphere state (|H> +/- e^{i phi}|V>)/sqrt(2)."""
    s = 1.0 if sign >= 0 else -1.0
    return PolarizationState(1.0 / sqrt(2.0), s * np.exp(1j * radians(phi_deg)) / sqrt(2.0))


def recipe_multimeter(phi_deg: float, sign: int = +1) -> PrepRecipe:
    """Wave-plate angles preparing prepare_equatorial(phi, sign) from |H>.

    The plus state uses QWP at -phi/2 and HWP at (90 - phi)/4; the minus state
    flips both plate angles, which shifts phi by 180 deg.
    """
    s = 1.0 if sign >= 0 else -1.0
    return PrepRecipe(qwp_deg=s * (-phi_deg / 2.0), hwp_deg=s * (90.0 - phi_deg) / 4.0)


def discriminator_angles(epsilon_deg, theta_deg) -> np.ndarray:
    """recipe_discriminator at signs +1, -1, +1 over arrays, bit for bit: shape (..., 3, 2)."""
    eps = np.asarray(epsilon_deg, dtype=float)
    plus = np.stack([eps, (eps + np.asarray(theta_deg, dtype=float)) / 2.0], axis=-1)
    return np.stack([plus, -plus, plus], axis=-2)  # sign -1 negates both angles, exactly


def multimeter_angles(phi_deg) -> np.ndarray:
    """recipe_multimeter at signs +1, -1, +1 over arrays, bit for bit: shape (..., 3, 2)."""
    phi = np.asarray(phi_deg, dtype=float)
    plus = np.stack([-phi / 2.0, (90.0 - phi) / 4.0], axis=-1)
    return np.stack([plus, -plus, plus], axis=-2)


def overlap(s1: PolarizationState, s2: PolarizationState) -> complex:
    """Inner product <s1|s2>, conjugate-linear in the first argument."""
    return complex(np.conj(s1.h) * s2.h + np.conj(s1.v) * s2.v)
