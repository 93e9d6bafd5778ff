"""Maritime path loss and complex channel synthesis for direct and RIS links."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sea_surface
from .sea_surface import FloatingNode, WaveField

SPEED_OF_LIGHT = 299_792_458.0

# Default receiver noise power: thermal floor -204 dBW/Hz over 5 MHz plus a
# 6 dB noise figure.
DEFAULT_NOISE_DBW = -131.0

# Reflection nulls drive the piecewise log arguments to zero; they are
# floored here (~240 dB loss) and counted instead of raising.
LOG_ARG_FLOOR = 1e-12

# Antennas riding a trough can dip to or below the mean sea level, where the
# two-ray geometry degenerates; loss evaluation floors heights at this value.
MIN_LOSS_HEIGHT = 0.05

_clamp_hits = 0


def clamp_hits() -> int:
    """Number of path-loss evaluations that hit the log-argument floor."""
    return _clamp_hits


def reset_clamp_hits() -> None:
    global _clamp_hits
    _clamp_hits = 0


def db2pow(db: float) -> float:
    return 10.0 ** (db / 10.0)


def pow2db(p: float) -> float:
    return 10.0 * math.log10(p)


@dataclass(frozen=True)
class PathLossParams:
    f_c: float = 5.8e9        # carrier, Hz
    h_e: float = 50.0         # evaporation duct height, m
    K: float = 130.6          # NLoS intercept, dB
    alpha: float = 2.1        # NLoS exponent
    d_0: float = 1.0          # NLoS reference distance, m
    sigma_los: float = 3.5    # LoS shadowing std, dB
    sigma_nlos: float = 5.1   # NLoS shadowing std, dB
    G_t: float = 0.0          # Tx antenna gain, dB
    G_r: float = 5.0          # Rx antenna gain, dB

    def __post_init__(self):
        if self.f_c <= 0 or self.h_e <= 0 or self.d_0 <= 0:
            raise ValueError("f_c, h_e, d_0 must be positive")
        if self.sigma_los < 0 or self.sigma_nlos < 0:
            raise ValueError("shadowing std must be non-negative")

    @property
    def lam(self) -> float:
        return SPEED_OF_LIGHT / self.f_c


@dataclass(frozen=True)
class LinkGeometry:
    h_t: float   # Tx antenna height above mean sea level, m
    h_r: float   # Rx antenna height, m
    d: float     # horizontal Tx-Rx distance, m
    los: bool

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("link distance must be positive")
        if not (math.isfinite(self.h_t) and math.isfinite(self.h_r)):
            raise ValueError("antenna heights must be finite")


def _floored_log_arg(x: float) -> float:
    global _clamp_hits
    if x < LOG_ARG_FLOOR:
        _clamp_hits += 1
        return LOG_ARG_FLOOR
    return x


def two_ray_boundary(h_t: float, h_r: float, p: PathLossParams) -> float:
    """Distance where the LoS model switches from two-ray to three-ray."""
    return 4.0 * h_t * h_r / p.lam


def path_loss_los(geom: LinkGeometry, p: PathLossParams, xi: float = 0.0) -> float:
    """Two-ray loss (dB) below the regime boundary, three-ray beyond it."""
    if geom.h_t <= 0 or geom.h_r <= 0:
        raise ValueError("LoS loss needs positive antenna heights")
    lam = p.lam
    base = lam / (2.0 * np.pi * geom.d)
    cross = math.sin(2.0 * np.pi * geom.h_t * geom.h_r / (lam * geom.d))
    if geom.d <= two_ray_boundary(geom.h_t, geom.h_r, p):
        arg = base * cross
    else:
        duct = math.sin(2.0 * np.pi * (p.h_e - geom.h_t) * (p.h_e - geom.h_r)
                        / (lam * geom.d))
        arg = base * (1.0 + 2.0 * cross * duct)
    return -20.0 * math.log10(_floored_log_arg(abs(arg))) + xi


def path_loss_nlos(d: float, p: PathLossParams, xi: float = 0.0) -> float:
    """Log-distance NLoS loss (dB) referenced to d_0."""
    if d < p.d_0:
        raise ValueError("below reference distance")
    return p.K + 10.0 * p.alpha * math.log10(d / p.d_0) + xi


def path_loss_free_space(d: float, f_c: float) -> float:
    if d <= 0 or f_c <= 0:
        raise ValueError("d and f_c must be positive")
    return -147.55 + 20.0 * math.log10(f_c) + 20.0 * math.log10(d)


def draw_shadowing(sigma: float, rng) -> float:
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        return 0.0
    return float(rng.normal(0.0, sigma))


def link_gain(geom: LinkGeometry, p: PathLossParams, rng) -> tuple[float, float]:
    """(amplitude, phase in [0, 2pi)) of one link's field coefficient,
    drawing fresh shadowing."""
    if geom.los:
        L = path_loss_los(geom, p, draw_shadowing(p.sigma_los, rng))
        phase = float(np.mod(-2.0 * np.pi * geom.d / p.lam, 2.0 * np.pi))
    else:
        L = path_loss_nlos(geom.d, p, draw_shadowing(p.sigma_nlos, rng))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
    return 10.0 ** ((p.G_t - L + p.G_r) / 20.0), phase


def ula_steering_phases(M: int, azimuth: float) -> np.ndarray:
    """Phase ramp of a half-wavelength uniform linear array."""
    return -np.pi * np.arange(M) * math.sin(azimuth)


def _loss_height(h: float) -> float:
    return max(h, MIN_LOSS_HEIGHT)


def synthesize_direct_channel(iot: FloatingNode, rx: FloatingNode,
                              wave: WaveField, t: float, los: bool, M: int,
                              p: PathLossParams, rng) -> np.ndarray:
    """Direct IoT->receiver channel row (length M) for one coherence interval;
    `los` is the link's sea_surface.los_state at time t."""
    if M < 1:
        raise ValueError("M must be >= 1")
    h_t = sea_surface.antenna_height(iot, wave, t)
    h_r = sea_surface.antenna_height(rx, wave, t)
    d = math.dist(iot.position, rx.position)
    geom = LinkGeometry(h_t=_loss_height(h_t), h_r=_loss_height(h_r), d=d, los=los)
    amplitude, phase = link_gain(geom, p, rng)
    az = math.atan2(iot.position[1] - rx.position[1],
                    iot.position[0] - rx.position[0])
    return amplitude * np.exp(1j * (phase + ula_steering_phases(M, az)))


def _aperture_phases(element_positions: np.ndarray, center: np.ndarray,
                     target: np.ndarray, lam: float) -> np.ndarray:
    """Far-field phase per element for a point target (3-D positions)."""
    vec = target - center
    dist = float(np.linalg.norm(vec))
    if dist == 0:
        raise ValueError("target at the array center")
    u = vec / dist
    path = dist - (element_positions - center) @ u
    return -2.0 * np.pi * path / lam


def ris_incident_vector(iot: FloatingNode, ris, wave: WaveField, t: float,
                        p: PathLossParams, rng) -> np.ndarray:
    """IoT -> RIS segment channel (length N); the segment is always LoS."""
    center = ris.center
    h_iot = sea_surface.antenna_height(iot, wave, t)
    d = math.dist(iot.position, (center[0], center[1]))
    geom = LinkGeometry(h_t=_loss_height(h_iot), h_r=center[2], d=d, los=True)
    L = path_loss_los(geom, p, draw_shadowing(p.sigma_los, rng))
    amp = 10.0 ** ((p.G_t - L) / 20.0)
    target = np.array([iot.position[0], iot.position[1], h_iot])
    return amp * np.exp(1j * _aperture_phases(ris.element_positions, center,
                                              target, p.lam))


def ris_departure_matrix(ris, rx: FloatingNode, wave: WaveField, t: float,
                         M: int, p: PathLossParams, rng) -> np.ndarray:
    """RIS -> receiver segment matrix (N x M); always LoS."""
    center = ris.center
    h_rx = sea_surface.antenna_height(rx, wave, t)
    d = math.dist((center[0], center[1]), rx.position)
    geom = LinkGeometry(h_t=center[2], h_r=_loss_height(h_rx), d=d, los=True)
    L = path_loss_los(geom, p, draw_shadowing(p.sigma_los, rng))
    amp = 10.0 ** ((-L + p.G_r) / 20.0)
    target = np.array([rx.position[0], rx.position[1], h_rx])
    element = _aperture_phases(ris.element_positions, center, target, p.lam)
    az = math.atan2(center[1] - rx.position[1], center[0] - rx.position[0])
    steer = ula_steering_phases(M, az)
    return amp * np.exp(1j * (element[:, None] + steer[None, :]))


def cascade(h_r: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Cascaded channel diag(h_r) @ F without any phase shift applied."""
    h_r = np.asarray(h_r)
    F = np.asarray(F)
    if h_r.ndim != 1 or F.ndim != 2 or F.shape[0] != h_r.shape[0]:
        raise ValueError("cascade needs h_r of length N and F of shape N x M")
    return h_r[:, None] * F
