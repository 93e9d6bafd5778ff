"""Scenario configuration: nested dataclasses plus a strict INI-style loader.

Config files use unit-tagged keys (``_m``, ``_hz``, ``_dbw``, ``_w``) so a
number is never ambiguous; unknown sections or keys are rejected outright.
Power-like quantities accept exactly one of a ``_w`` / ``_dbw`` pair.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field

from .channel import DEFAULT_NOISE_DBW, PathLossParams, db2pow, pow2db
from .energy import WecParams
from .optimizer import OptimizerConfig
from .sea_surface import DEFAULT_WAVE_SOURCE


class ConfigError(ValueError):
    """Malformed scenario configuration (CLI exit code 1)."""


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
        for name in ("turbine_diameter_m", "buoy_distance_m", "deploy_radius_m",
                     "mean_iot_count", "rx_mast_m", "iot_mast_m"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if self.deploy_radius_m <= self.turbine_diameter_m / 2.0:
            raise ConfigError("deploy_radius_m must exceed the turbine radius")
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
        if self.m_antennas < 1 or self.n_elements < 1:
            raise ConfigError("antenna and element counts must be >= 1")
        if not self.beta_hz > 0:
            raise ConfigError("beta_hz must be positive")

    @property
    def sigma2_w(self) -> float:
        return db2pow(self.sigma2_dbw)


@dataclass(frozen=True)
class EstimationConfig:
    b_subframes: int | None = None   # default: one per RIS element
    t_pilot_len: int | None = None   # default: rounded mean IoT count
    noiseless: bool = False

    def __post_init__(self):
        if self.b_subframes is not None and self.b_subframes < 1:
            raise ConfigError("b_subframes must be >= 1")
        if self.t_pilot_len is not None and self.t_pilot_len < 1:
            raise ConfigError("t_pilot_len must be >= 1")


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
        # states 0-1 define no wave period, so no interval can be simulated
        if int(self.sea_state) != self.sea_state or self.sea_state < 2:
            raise ConfigError("sea_state must be an integer >= 2")
        if not self.interval_duration_s > 0:
            raise ConfigError("interval_duration_s must be positive")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")

    @property
    def b_effective(self) -> int:
        return (self.radio.n_elements if self.estimation.b_subframes is None
                else self.estimation.b_subframes)

    @property
    def t_baseline(self) -> int:
        if self.estimation.t_pilot_len is not None:
            return self.estimation.t_pilot_len
        return max(1, round(self.geometry.mean_iot_count))


SWEEP_VARIABLES = ("hr0", "n", "pmax", "sea")


def _as_int(value, what: str) -> int:
    if not float(value).is_integer():   # also rejects nan and inf
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(float(value))


def apply_sweep_value(cfg: ScenarioConfig, variable: str, value) -> ScenarioConfig:
    """New config with one sweep variable overridden."""
    if variable == "hr0":
        geo = dataclasses.replace(cfg.geometry, rx_mast_m=float(value))
        return dataclasses.replace(cfg, geometry=geo)
    if variable == "n":
        radio = dataclasses.replace(cfg.radio, n_elements=_as_int(value, "n"))
        return dataclasses.replace(cfg, radio=radio)
    if variable == "pmax":
        wec = dataclasses.replace(cfg.energy, P_max=float(value))
        return dataclasses.replace(cfg, energy=wec)
    if variable == "sea":
        return dataclasses.replace(cfg, sea_state=_as_int(value, "sea"))
    raise ConfigError(f"unknown sweep variable {variable!r}; "
                      f"choose from {', '.join(SWEEP_VARIABLES)}")


# section -> key -> parser; the loader rejects anything not listed here
_FLOAT = float
_SCHEMA = {
    "scenario": {"sea_state": int, "seed": int,
                 "interval_duration_s": _FLOAT},
    "geometry": {"turbine_x_m": _FLOAT, "turbine_y_m": _FLOAT,
                 "ris_height_m": _FLOAT, "turbine_diameter_m": _FLOAT,
                 "buoy_distance_m": _FLOAT, "deploy_radius_m": _FLOAT,
                 "mean_iot_count": _FLOAT, "rx_mast_m": _FLOAT,
                 "iot_mast_m": _FLOAT, "wave_source_x_m": _FLOAT,
                 "wave_source_y_m": _FLOAT},
    "radio": {"m_antennas": int, "n_elements": int, "beta_hz": _FLOAT,
              "sigma2_dbw": _FLOAT, "sigma2_w": _FLOAT, "f_c_hz": _FLOAT,
              "h_e_m": _FLOAT, "k_nlos_db": _FLOAT, "alpha_nlos": _FLOAT,
              "d_0_m": _FLOAT, "sigma_los_db": _FLOAT, "sigma_nlos_db": _FLOAT,
              "g_t_db": _FLOAT, "g_r_db": _FLOAT},
    "energy": {"eta_pto": _FLOAT, "eta_conv": _FLOAT, "gamma_cwr": _FLOAT,
               "capture_width_m": _FLOAT, "rho_kg_m3": _FLOAT,
               "gravity_m_s2": _FLOAT, "p_0_w": _FLOAT, "p_max_w": _FLOAT,
               "p_max_dbw": _FLOAT},
    "estimation": {"b_subframes": int, "t_pilot_len": int, "noiseless": bool},
    "optimizer": {"sdp_tol": _FLOAT, "sdp_max_iter": int,
                  "randomization_draws": int},
}

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def _parse_value(section: str, key: str, raw: str):
    kind = _SCHEMA[section][key]
    try:
        if kind is bool:
            return _BOOL_WORDS[raw.strip().lower()]
        if kind is int:
            return _as_int(raw, f"{section}.{key}")
        return kind(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc


def _exclusive(values: dict, key_linear: str, key_db: str, section: str):
    """Resolve a quantity given in exactly one of watts / dBW."""
    if key_linear in values and key_db in values:
        raise ConfigError(f"give {section} power as {key_linear} or "
                          f"{key_db}, not both")


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

    values: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[section][key] = _parse_value(section, key, raw)

    sc = values.get("scenario", {})
    geo = values.get("geometry", {})
    rad = values.get("radio", {})
    eng = values.get("energy", {})
    est = values.get("estimation", {})
    opt = values.get("optimizer", {})

    _exclusive(rad, "sigma2_w", "sigma2_dbw", "radio")
    _exclusive(eng, "p_max_w", "p_max_dbw", "energy")

    geometry_kwargs = {}
    if "turbine_x_m" in geo or "turbine_y_m" in geo:
        geometry_kwargs["turbine_position"] = (geo.pop("turbine_x_m", 0.0),
                                               geo.pop("turbine_y_m", 0.0))
    if "wave_source_x_m" in geo or "wave_source_y_m" in geo:
        geometry_kwargs["wave_source"] = (
            geo.pop("wave_source_x_m", DEFAULT_WAVE_SOURCE[0]),
            geo.pop("wave_source_y_m", DEFAULT_WAVE_SOURCE[1]))
    geometry_kwargs.update(geo)

    pathloss_map = {"f_c_hz": "f_c", "h_e_m": "h_e", "k_nlos_db": "K",
                    "alpha_nlos": "alpha", "d_0_m": "d_0",
                    "sigma_los_db": "sigma_los", "sigma_nlos_db": "sigma_nlos",
                    "g_t_db": "G_t", "g_r_db": "G_r"}
    pl_kwargs = {pathloss_map[k]: v for k, v in rad.items() if k in pathloss_map}
    radio_kwargs = {k: v for k, v in rad.items() if k not in pathloss_map}
    if "sigma2_w" in radio_kwargs:
        sigma2_w = radio_kwargs.pop("sigma2_w")
        if not sigma2_w > 0:
            raise ConfigError("sigma2_w must be positive")
        radio_kwargs["sigma2_dbw"] = pow2db(sigma2_w)
    if pl_kwargs:
        radio_kwargs["pathloss"] = PathLossParams(**pl_kwargs)

    energy_map = {"eta_pto": "eta_pto", "eta_conv": "eta_conv",
                  "gamma_cwr": "gamma_cwr", "capture_width_m": "W",
                  "rho_kg_m3": "rho", "gravity_m_s2": "g", "p_0_w": "P_0",
                  "p_max_w": "P_max"}
    wec_kwargs = {energy_map[k]: v for k, v in eng.items() if k in energy_map}
    if "p_max_dbw" in eng:
        wec_kwargs["P_max"] = db2pow(eng["p_max_dbw"])

    try:
        return ScenarioConfig(
            geometry=GeometryConfig(**geometry_kwargs),
            radio=RadioConfig(**radio_kwargs),
            energy=WecParams(**wec_kwargs),
            estimation=EstimationConfig(**est),
            optimizer=OptimizerConfig(**opt),
            **sc,
        )
    except ConfigError:
        raise
    except ValueError as exc:  # dataclass validation from the leaf modules
        raise ConfigError(str(exc)) from exc
