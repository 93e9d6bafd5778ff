"""Maritime path loss, the interval's fading draws, and complex channel
synthesis for direct and RIS links.

Everything here is array-valued: the path-loss models broadcast over
distances, heights and shadowing, and the synthesis functions take IoT
positions (I, 2), the receiver position, antenna heights and fading draws
and return one channel per IoT.  How the sea moves the antennas is the
caller's to know; synthesis only floors the heights it evaluates loss at.
draw_link_fading is the one place that draws, in trial-stream order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

# Default receiver noise power: thermal floor -204 dBW/Hz over 5 MHz plus a
# 6 dB noise figure.
DEFAULT_NOISE_DBW = -131.0

# Reflection nulls drive the piecewise log arguments to zero; they are
# floored here (~240 dB loss) instead of raising.
LOG_ARG_FLOOR = 1e-12

# Bounds that no physical link comes near, and within which the channel
# amplitudes, powers and phases stay finite: antenna gains, shadowing
# spread, the carrier (below 1 kHz the RIS's half-wavelength spacing
# exceeds 150 km) and the evaporation duct height.
MAX_ANTENNA_GAIN_DB = 100.0
MAX_SHADOWING_DB = 100.0
MIN_CARRIER_HZ = 1e3
MAX_DUCT_HEIGHT_M = 10_000.0

# Antennas riding a trough can dip to or below the mean sea level, where the
# two-ray geometry degenerates; loss evaluation floors heights at this value.
MIN_LOSS_HEIGHT = 0.05


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
        if self.f_c < MIN_CARRIER_HZ or self.h_e > MAX_DUCT_HEIGHT_M:
            raise ValueError(f"need f_c >= {MIN_CARRIER_HZ:g} Hz and "
                             f"h_e <= {MAX_DUCT_HEIGHT_M:g} m")
        if not (0 <= self.sigma_los <= MAX_SHADOWING_DB
                and 0 <= self.sigma_nlos <= MAX_SHADOWING_DB):
            raise ValueError("sigma_los and sigma_nlos must lie in "
                             f"[0, {MAX_SHADOWING_DB:g}] dB")
        if max(abs(self.G_t), abs(self.G_r)) > MAX_ANTENNA_GAIN_DB:
            raise ValueError("antenna gains must be within "
                             f"+/-{MAX_ANTENNA_GAIN_DB:g} dB")

    @property
    def lam(self) -> float:
        return SPEED_OF_LIGHT / self.f_c


def two_ray_boundary(h_t: float, h_r: float, p: PathLossParams) -> float:
    """Distance where the LoS model switches from two-ray to three-ray."""
    return 4.0 * h_t * h_r / p.lam


def path_loss_los(d, h_t, h_r, p: PathLossParams, xi=0.0):
    """Two-ray loss (dB) below the regime boundary, three-ray beyond it;
    d, h_t, h_r and the shadowing xi broadcast against each other."""
    d = np.asarray(d, dtype=float)
    h_t = np.asarray(h_t, dtype=float)
    h_r = np.asarray(h_r, dtype=float)
    if (d <= 0).any():
        raise ValueError("link distance must be positive")
    if not ((h_t > 0) & (h_r > 0) & np.isfinite(h_t) & np.isfinite(h_r)).all():
        raise ValueError("LoS loss needs finite positive antenna heights")
    lam = p.lam
    base = lam / (2.0 * np.pi * d)
    cross = np.sin(2.0 * np.pi * h_t * h_r / (lam * d))
    duct = np.sin(2.0 * np.pi * (p.h_e - h_t) * (p.h_e - h_r) / (lam * d))
    arg = np.where(d <= two_ray_boundary(h_t, h_r, p), base * cross,
                   base * (1.0 + 2.0 * cross * duct))
    return -20.0 * np.log10(np.maximum(np.abs(arg), LOG_ARG_FLOOR)) + xi


def path_loss_nlos(d, p: PathLossParams, xi=0.0):
    """Log-distance NLoS loss (dB) referenced to d_0."""
    d = np.asarray(d, dtype=float)
    if (d < p.d_0).any():
        raise ValueError("below reference distance")
    return p.K + 10.0 * p.alpha * np.log10(d / p.d_0) + xi


def path_loss_free_space(d, f_c: float):
    d = np.asarray(d, dtype=float)
    if (d <= 0).any() or f_c <= 0:
        raise ValueError("d and f_c must be positive")
    return -147.55 + 20.0 * math.log10(f_c) + 20.0 * np.log10(d)


def draw_link_fading(los, p: PathLossParams, rng):
    """Random terms of one interval's links, in trial-stream order: first the
    RIS->receiver segment's shadowing, one draw per interval shared by every
    IoT's cascade, since that segment is one physical link; then, IoT by IoT,
    the direct link's shadowing (sigma_los or sigma_nlos by its LoS flag), a
    uniform phase if it is NLoS, and the RIS-incident link's shadowing.  A
    zero sigma draws nothing.  Returns the departure shadowing and the (I,)
    direct shadowing, NLoS phases (0 on LoS links) and incident shadowing,
    in dB and radians."""
    xi_departure = rng.normal(0.0, p.sigma_los) if p.sigma_los > 0 else 0.0
    los = np.asarray(los, dtype=bool)
    xi_direct = np.zeros(los.shape)
    phase = np.zeros(los.shape)
    xi_incident = np.zeros(los.shape)
    for i, flag in enumerate(los):
        sigma = p.sigma_los if flag else p.sigma_nlos
        if sigma > 0:
            xi_direct[i] = rng.normal(0.0, sigma)
        if not flag:
            phase[i] = rng.uniform(0.0, 2.0 * np.pi)
        if p.sigma_los > 0:
            xi_incident[i] = rng.normal(0.0, p.sigma_los)
    return xi_departure, xi_direct, phase, xi_incident


def ula_steering_phases(M: int, azimuth) -> np.ndarray:
    """Phase ramp of a half-wavelength uniform linear array: (..., M) for
    azimuths of shape (...)."""
    sin_az = np.sin(np.asarray(azimuth, dtype=float))
    return -np.pi * np.arange(M) * sin_az[..., None]


def synthesize_direct_channel(positions, rx_position, h_t, h_r, los, M: int,
                              p: PathLossParams, xi, nlos_phase) -> np.ndarray:
    """Direct IoT->receiver channel rows for one coherence interval: (I, M)
    for IoTs at antenna heights h_t (I,) and a receiver at height h_r.

    `los` holds the links' LoS flags; `xi` and `nlos_phase` are
    draw_link_fading's direct shadowing and NLoS phases.  Every link must be
    at least d_0 long."""
    if M < 1:
        raise ValueError("M must be >= 1")
    pos = np.asarray(positions, dtype=float)
    h_t = np.maximum(h_t, MIN_LOSS_HEIGHT)
    h_r = np.maximum(h_r, MIN_LOSS_HEIGHT)
    dx = pos[..., 0] - rx_position[0]
    dy = pos[..., 1] - rx_position[1]
    d = np.hypot(dx, dy)
    L = np.where(los, path_loss_los(d, h_t, h_r, p, xi),
                 path_loss_nlos(d, p, xi))
    phase = np.where(los, np.mod(-2.0 * np.pi * d / p.lam, 2.0 * np.pi),
                     nlos_phase)
    amplitude = 10.0 ** ((p.G_t - L + p.G_r) / 20.0)
    steer = ula_steering_phases(M, np.arctan2(dy, dx))
    return amplitude[..., None] * np.exp(1j * (phase[..., None] + steer))


def _aperture_phases(element_positions: np.ndarray, center: np.ndarray,
                     target: np.ndarray, lam: float) -> np.ndarray:
    """Far-field phase per element for point targets of shape (..., 3):
    (..., N)."""
    vec = np.asarray(target, dtype=float) - center
    dist = np.linalg.norm(vec, axis=-1)
    if np.any(dist == 0):
        raise ValueError("target at the array center")
    u = vec / dist[..., None]
    path = dist[..., None] - u @ (element_positions - center).T
    return -2.0 * np.pi * path / lam


def ris_incident_vector(positions, h_iot, elements: np.ndarray,
                        p: PathLossParams, xi) -> np.ndarray:
    """IoT -> RIS segment channels, (I, N) for IoTs at antenna heights h_iot
    (I,) and the (N, 3) RIS element positions; the segment is always LoS and
    `xi` is draw_link_fading's incident shadowing."""
    center = elements.mean(axis=0)
    pos = np.asarray(positions, dtype=float)
    d = np.hypot(pos[..., 0] - center[0], pos[..., 1] - center[1])
    L = path_loss_los(d, np.maximum(h_iot, MIN_LOSS_HEIGHT), center[2], p, xi)
    amp = 10.0 ** ((p.G_t - L) / 20.0)
    target = np.concatenate([pos, np.expand_dims(h_iot, -1)], axis=-1)
    return amp[..., None] * np.exp(1j * _aperture_phases(elements, center,
                                                         target, p.lam))


def ris_departure_matrix(elements: np.ndarray, rx_position, h_rx, M: int,
                         p: PathLossParams, xi) -> np.ndarray:
    """RIS -> receiver segment matrix (N x M) from the (N, 3) RIS element
    positions to a receiver at height h_rx; always LoS, and `xi` is
    draw_link_fading's departure shadowing."""
    center = elements.mean(axis=0)
    d = math.dist((center[0], center[1]), rx_position)
    L = path_loss_los(d, center[2], np.maximum(h_rx, MIN_LOSS_HEIGHT), p, xi)
    amp = 10.0 ** ((-L + p.G_r) / 20.0)
    target = np.array([rx_position[0], rx_position[1], h_rx])
    element = _aperture_phases(elements, center, target, p.lam)
    az = math.atan2(center[1] - rx_position[1], center[0] - rx_position[0])
    steer = ula_steering_phases(M, az)
    return amp * np.exp(1j * (element[:, None] + steer[None, :]))


def cascade(h_r: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Cascaded channels diag(h_r[i]) @ F without any phase shift applied:
    (..., N, M) for incident vectors h_r of shape (..., N)."""
    h_r = np.asarray(h_r)
    F = np.asarray(F)
    if F.ndim != 2 or h_r.ndim < 1 or h_r.shape[-1] != F.shape[0]:
        raise ValueError("cascade needs h_r of shape (..., N) and F of shape N x M")
    return h_r[..., None] * F
