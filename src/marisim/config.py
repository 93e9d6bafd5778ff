"""Scenario configuration: nested dataclasses plus a strict INI-style loader.

Config files use unit-tagged keys (``_m``, ``_hz``, ``_dbw``, ``_w``) so a
number is never ambiguous; unknown sections or keys are rejected outright.
One table, _SCHEMA, gives each key its parser and the dotted path of the
field it sets; a ``_w`` / ``_dbw`` pair names one field, so the two keys are
alternatives.  Every number must be finite.
"""

from __future__ import annotations

import configparser
import contextlib
import dataclasses
import math
import numbers
from dataclasses import dataclass, field

from .channel import DEFAULT_NOISE_DBW, PathLossParams, db2pow, pow2db
from .energy import WecParams
from .optimizer import OptimizerConfig
from .sea_surface import DEFAULT_WAVE_SOURCE


class ConfigError(ValueError):
    """Malformed scenario configuration (CLI exit code 1)."""


def _as_int(value, what: str) -> int:
    """value as an int: an integer or integer text exactly, at any size; a
    float or float text only when it is integral."""
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, str):
        with contextlib.suppress(ValueError):
            return int(value)
    if not float(value).is_integer():   # also rejects nan and inf
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(float(value))


def sea_level(value) -> int:
    """The one sea-state rule, shared by the loader, the sea sweep and
    los-prob: an integer >= 2.  Levels 0 and 1 are calm seas that define no
    wave period, so no interval or LoS sample exists there."""
    level = _as_int(value, "sea state")
    if level < 2:
        raise ConfigError(f"sea state must be an integer >= 2, got {value!r}")
    return level


# Caps that no physical scenario reaches.  A larger count would exhaust
# memory, a larger length would overflow the channel phases and a larger
# noise power (thermal noise over 1 Hz is -204 dBW) would overflow its
# conversion to watts before an interval ends, so the loader and the sweep
# values reject them.
MAX_ELEMENTS = 10_000          # RIS elements, and pilot sub-frames
MAX_ANTENNAS = 64              # receiver antennas
MAX_MEAN_IOTS = 10_000         # mean IoT count, and pilot length
MAX_LENGTH_M = 100_000.0       # every geometry length and coordinate
MAX_NOISE_DBW = 300.0          # |sigma2_dbw|


@dataclass(frozen=True)
class GeometryConfig:
    """Site layout: turbine-mounted RIS, receiver buoy, IoT deployment disk."""

    turbine_position: tuple = (0.0, 0.0)
    ris_height_m: float = 35.0
    turbine_diameter_m: float = 6.0
    buoy_distance_m: float = 200.0
    deploy_radius_m: float = 200.0
    mean_iot_count: float = 4.0
    rx_mast_m: float = 5.0
    iot_mast_m: float = 2.0
    wave_source: tuple = DEFAULT_WAVE_SOURCE

    def __post_init__(self):
        if not 20.0 <= self.ris_height_m <= 50.0:
            raise ConfigError("ris_height_m must lie in [20, 50]")
        for name, cap in (("turbine_diameter_m", MAX_LENGTH_M),
                          ("buoy_distance_m", MAX_LENGTH_M),
                          ("deploy_radius_m", MAX_LENGTH_M),
                          ("mean_iot_count", MAX_MEAN_IOTS),
                          ("rx_mast_m", MAX_LENGTH_M),
                          ("iot_mast_m", MAX_LENGTH_M)):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"{name} must be positive")
            if value > cap:
                raise ConfigError(f"{name} must be <= {cap:g}")
        if not all(abs(x) <= MAX_LENGTH_M
                   for x in (*self.turbine_position, *self.wave_source)):
            raise ConfigError("turbine and wave source coordinates must lie "
                              f"within +/-{MAX_LENGTH_M:g} m")
        for name in ("buoy_distance_m", "deploy_radius_m"):
            if getattr(self, name) <= self.turbine_diameter_m / 2.0:
                raise ConfigError(f"{name} must exceed the turbine radius")
        if math.dist(self.turbine_position, self.wave_source) == 0:
            raise ConfigError("wave source sits on the turbine")

    @property
    def rx_position(self) -> tuple:
        # receiver buoy placed downwind of the turbine so waves travel along
        # the deployment->receiver axis
        dx = self.turbine_position[0] - self.wave_source[0]
        dy = self.turbine_position[1] - self.wave_source[1]
        norm = math.hypot(dx, dy)
        return (self.turbine_position[0] + self.buoy_distance_m * dx / norm,
                self.turbine_position[1] + self.buoy_distance_m * dy / norm)

    @property
    def ris_center(self) -> tuple:
        return (self.turbine_position[0], self.turbine_position[1],
                self.ris_height_m)


@dataclass(frozen=True)
class RadioConfig:
    pathloss: PathLossParams = field(default_factory=PathLossParams)
    m_antennas: int = 8
    n_elements: int = 360
    beta_hz: float = 5e6
    sigma2_dbw: float = DEFAULT_NOISE_DBW

    def __post_init__(self):
        if not 1 <= self.m_antennas <= MAX_ANTENNAS:
            raise ConfigError(f"m_antennas must lie in [1, {MAX_ANTENNAS}]")
        if not 1 <= self.n_elements <= MAX_ELEMENTS:
            raise ConfigError(f"n_elements must lie in [1, {MAX_ELEMENTS}]")
        if not self.beta_hz > 0:
            raise ConfigError("beta_hz must be positive")
        if not abs(self.sigma2_dbw) <= MAX_NOISE_DBW:
            raise ConfigError("sigma2_dbw must lie within "
                              f"+/-{MAX_NOISE_DBW:g} dBW")

    @property
    def sigma2_w(self) -> float:
        return db2pow(self.sigma2_dbw)


@dataclass(frozen=True)
class EstimationConfig:
    b_subframes: int | None = None   # default: one per RIS element
    t_pilot_len: int | None = None   # default: rounded mean IoT count
    noiseless: bool = False

    def __post_init__(self):
        for name, cap in (("b_subframes", MAX_ELEMENTS),
                          ("t_pilot_len", MAX_MEAN_IOTS)):
            value = getattr(self, name)
            if value is not None and not 1 <= value <= cap:
                raise ConfigError(f"{name} must lie in [1, {cap}]")


@dataclass(frozen=True)
class ScenarioConfig:
    sea_state: int = 4
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    energy: WecParams = field(default_factory=WecParams)
    estimation: EstimationConfig = field(default_factory=EstimationConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    interval_duration_s: float = 0.1
    seed: int = 0

    def __post_init__(self):
        sea_level(self.sea_state)
        if not self.interval_duration_s > 0:
            raise ConfigError("interval_duration_s must be positive")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.b_effective < self.radio.n_elements:
            raise ConfigError("b_subframes must be >= n_elements for full rank")

    @property
    def b_effective(self) -> int:
        return (self.radio.n_elements if self.estimation.b_subframes is None
                else self.estimation.b_subframes)

    @property
    def t_baseline(self) -> int:
        if self.estimation.t_pilot_len is not None:
            return self.estimation.t_pilot_len
        return max(1, round(self.geometry.mean_iot_count))


def _parse(kind, raw, what: str):
    """The one parse step, INI text or sweep value -> field value: bool
    words; integers and sea states, read from the text itself so that a
    long integer stays exact; or kind (float or a unit conversion) applied
    to a float.  Non-finite numbers are rejected."""
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        value = (_as_int(raw, what) if kind is int
                 else sea_level(raw) if kind is sea_level
                 else kind(float(raw)))
        if not math.isfinite(value):
            raise ValueError(f"{what} must be finite")
        return value
    except ConfigError:
        raise
    except (KeyError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"bad value for {what}: {raw!r}") from exc


def _replace(obj, changes: dict):
    """Copy of obj with each dotted field path in changes set; a digit names
    a tuple coordinate.  Each dataclass on the paths is rebuilt once, by
    dataclasses.replace, so every __post_init__ check runs."""
    if isinstance(obj, tuple):
        return tuple(changes.get(str(i), v) for i, v in enumerate(obj))
    groups: dict = {}
    for path, value in changes.items():
        head, _, rest = path.partition(".")
        groups.setdefault(head, {})[rest] = value
    fields = {head: sub[""] if "" in sub else _replace(getattr(obj, head), sub)
              for head, sub in groups.items()}
    try:
        return dataclasses.replace(obj, **fields)
    except ValueError as exc:  # dataclass validation from the leaf modules
        raise ConfigError(str(exc)) from exc


# sweep variable -> (parser, field path), read like _SCHEMA's rows
SWEEP_VARIABLES = {"hr0": (float, "geometry.rx_mast_m"),
                   "n": (int, "radio.n_elements"),
                   "pmax": (float, "energy.P_max"),
                   "sea": (sea_level, "sea_state")}


def apply_sweep_value(cfg: ScenarioConfig, variable: str, value) -> ScenarioConfig:
    """New config with one sweep variable overridden."""
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(f"unknown sweep variable {variable!r}; "
                          f"choose from {', '.join(SWEEP_VARIABLES)}")
    kind, path = SWEEP_VARIABLES[variable]
    return _replace(cfg, {path: _parse(kind, value, variable)})


# section -> key -> (parser, field path); the loader rejects anything not
# listed here, and keys that share a path are alternatives for one field
_SCHEMA = {
    "scenario": {"sea_state": (sea_level, "sea_state"),
                 "seed": (int, "seed"),
                 "interval_duration_s": (float, "interval_duration_s")},
    "geometry": {"turbine_x_m": (float, "geometry.turbine_position.0"),
                 "turbine_y_m": (float, "geometry.turbine_position.1"),
                 "ris_height_m": (float, "geometry.ris_height_m"),
                 "turbine_diameter_m": (float, "geometry.turbine_diameter_m"),
                 "buoy_distance_m": (float, "geometry.buoy_distance_m"),
                 "deploy_radius_m": (float, "geometry.deploy_radius_m"),
                 "mean_iot_count": (float, "geometry.mean_iot_count"),
                 "rx_mast_m": (float, "geometry.rx_mast_m"),
                 "iot_mast_m": (float, "geometry.iot_mast_m"),
                 "wave_source_x_m": (float, "geometry.wave_source.0"),
                 "wave_source_y_m": (float, "geometry.wave_source.1")},
    "radio": {"m_antennas": (int, "radio.m_antennas"),
              "n_elements": (int, "radio.n_elements"),
              "beta_hz": (float, "radio.beta_hz"),
              "sigma2_dbw": (float, "radio.sigma2_dbw"),
              "sigma2_w": (pow2db, "radio.sigma2_dbw"),
              "f_c_hz": (float, "radio.pathloss.f_c"),
              "h_e_m": (float, "radio.pathloss.h_e"),
              "k_nlos_db": (float, "radio.pathloss.K"),
              "alpha_nlos": (float, "radio.pathloss.alpha"),
              "d_0_m": (float, "radio.pathloss.d_0"),
              "sigma_los_db": (float, "radio.pathloss.sigma_los"),
              "sigma_nlos_db": (float, "radio.pathloss.sigma_nlos"),
              "g_t_db": (float, "radio.pathloss.G_t"),
              "g_r_db": (float, "radio.pathloss.G_r")},
    "energy": {"eta_pto": (float, "energy.eta_pto"),
               "eta_conv": (float, "energy.eta_conv"),
               "gamma_cwr": (float, "energy.gamma_cwr"),
               "capture_width_m": (float, "energy.W"),
               "rho_kg_m3": (float, "energy.rho"),
               "gravity_m_s2": (float, "energy.g"),
               "p_0_w": (float, "energy.P_0"),
               "p_max_w": (float, "energy.P_max"),
               "p_max_dbw": (db2pow, "energy.P_max")},
    "estimation": {"b_subframes": (int, "estimation.b_subframes"),
                   "t_pilot_len": (int, "estimation.t_pilot_len"),
                   "noiseless": (bool, "estimation.noiseless")},
    "optimizer": {"sdp_tol": (float, "optimizer.sdp_tol"),
                  "sdp_max_iter": (int, "optimizer.sdp_max_iter"),
                  "randomization_draws": (int, "optimizer.randomization_draws")},
}


def load_config(path) -> ScenarioConfig:
    """Parse an INI scenario file into a validated ScenarioConfig."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    changes: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            kind, path = _SCHEMA[section][key]
            if path in changes:
                raise ConfigError(f"[{section}] {key} sets {path} again; "
                                  f"give one of its alternative keys")
            changes[path] = _parse(kind, raw, f"{section}.{key}")
    return _replace(ScenarioConfig(), changes)
