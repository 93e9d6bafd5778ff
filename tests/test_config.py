"""Scenario configuration: defaults, INI loading, sweep overrides."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from marisim.channel import (
    MAX_DUCT_HEIGHT_M,
    MAX_SHADOWING_DB,
    MIN_CARRIER_HZ,
    PathLossParams,
    db2pow,
    pow2db,
)
from marisim.config import (
    _SCHEMA,
    MAX_ANTENNAS,
    MAX_ELEMENTS,
    MAX_LENGTH_M,
    MAX_MEAN_IOTS,
    MAX_NOISE_DBW,
    ConfigError,
    EstimationConfig,
    GeometryConfig,
    RadioConfig,
    ScenarioConfig,
    apply_sweep_value,
    load_config,
)
from marisim.harness import run_coherence_interval
from marisim.optimizer import MAX_RANDOMIZATION_DRAWS, OptimizerConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_defaults_are_self_consistent():
    cfg = ScenarioConfig()
    assert cfg.sea_state == 4
    assert cfg.geometry.buoy_distance_m == 200.0
    assert cfg.geometry.deploy_radius_m == 200.0
    assert cfg.radio.m_antennas == 8
    assert cfg.radio.n_elements == 360
    assert cfg.radio.sigma2_w == pytest.approx(db2pow(cfg.radio.sigma2_dbw))
    assert cfg.b_effective == 360            # one sub-frame per element
    assert cfg.t_baseline == 4               # rounded mean IoT count


def test_receiver_buoy_sits_downwind_of_the_turbine():
    cfg = GeometryConfig()
    rx = cfg.rx_position
    assert math.dist(cfg.turbine_position, rx) == pytest.approx(200.0)
    # wave source on the -x axis: downwind means +x
    assert rx[0] > cfg.turbine_position[0]
    assert rx[1] == pytest.approx(cfg.turbine_position[1])


def test_scenario_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(sea_state=1)          # no wave period defined
    with pytest.raises(ConfigError):
        ScenarioConfig(sea_state=4, interval_duration_s=0.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(seed=-1)
    with pytest.raises(ConfigError):
        GeometryConfig(ris_height_m=60.0)    # outside the tower range
    with pytest.raises(ConfigError):
        GeometryConfig(mean_iot_count=0.0)
    with pytest.raises(ConfigError):
        GeometryConfig(deploy_radius_m=3.0)  # inside the 6 m turbine hull
    assert GeometryConfig(deploy_radius_m=3.5).deploy_radius_m == 3.5
    with pytest.raises(ConfigError, match="buoy_distance_m"):
        GeometryConfig(buoy_distance_m=1e-300)   # receiver inside the hull
    assert GeometryConfig(buoy_distance_m=3.5).buoy_distance_m == 3.5
    with pytest.raises(ConfigError):
        RadioConfig(beta_hz=0.0)
    with pytest.raises(ConfigError):
        RadioConfig(m_antennas=0)


@pytest.mark.parametrize("build, field, cap, above", [
    (RadioConfig, "n_elements", MAX_ELEMENTS, MAX_ELEMENTS + 1),
    (RadioConfig, "m_antennas", MAX_ANTENNAS, MAX_ANTENNAS + 1),
    (GeometryConfig, "mean_iot_count", MAX_MEAN_IOTS, MAX_MEAN_IOTS * 1.001),
    (GeometryConfig, "buoy_distance_m", MAX_LENGTH_M, MAX_LENGTH_M * 1.001),
    (GeometryConfig, "deploy_radius_m", MAX_LENGTH_M, MAX_LENGTH_M * 1.001),
    (GeometryConfig, "rx_mast_m", MAX_LENGTH_M, MAX_LENGTH_M * 1.001),
    (GeometryConfig, "iot_mast_m", MAX_LENGTH_M, MAX_LENGTH_M * 1.001),
    (GeometryConfig, "turbine_position", (MAX_LENGTH_M, -MAX_LENGTH_M),
     (0.0, -MAX_LENGTH_M * 1.001)),
    (GeometryConfig, "wave_source", (-MAX_LENGTH_M, 0.0), (1e300, 0.0)),
    (EstimationConfig, "b_subframes", MAX_ELEMENTS, MAX_ELEMENTS + 1),
    (EstimationConfig, "t_pilot_len", MAX_MEAN_IOTS, MAX_MEAN_IOTS + 1),
    (OptimizerConfig, "randomization_draws", MAX_RANDOMIZATION_DRAWS,
     MAX_RANDOMIZATION_DRAWS + 1),
    # radio magnitudes, past which a conversion, amplitude or phase overflows
    (RadioConfig, "sigma2_dbw", MAX_NOISE_DBW, MAX_NOISE_DBW * 1.001),
    (RadioConfig, "sigma2_dbw", -MAX_NOISE_DBW, -MAX_NOISE_DBW * 1.001),
    (PathLossParams, "f_c", MIN_CARRIER_HZ, MIN_CARRIER_HZ * 0.999),  # a floor
    (PathLossParams, "h_e", MAX_DUCT_HEIGHT_M, MAX_DUCT_HEIGHT_M * 1.001),
    (PathLossParams, "sigma_los", MAX_SHADOWING_DB, MAX_SHADOWING_DB * 1.001),
    (PathLossParams, "sigma_nlos", MAX_SHADOWING_DB, MAX_SHADOWING_DB * 1.001),
])
def test_counts_and_lengths_are_capped(build, field, cap, above):
    # only the configs are built: nothing is allocated at these sizes
    assert getattr(build(**{field: cap}), field) == cap
    with pytest.raises(ValueError, match=field.split("_")[0]):
        build(**{field: above})


FULL_INI = """\
[scenario]
sea_state = 6
seed = 17
interval_duration_s = 0.2

[geometry]
turbine_x_m = 10
turbine_y_m = -5
ris_height_m = 40
buoy_distance_m = 150
deploy_radius_m = 180
mean_iot_count = 3
rx_mast_m = 7.5
iot_mast_m = 2.5

[radio]
m_antennas = 4
n_elements = 64
beta_hz = 2e6
sigma2_dbw = -120
f_c_hz = 3.5e9
g_r_db = 3

[energy]
eta_pto = 0.4
p_max_w = 50

[estimation]
b_subframes = 80
t_pilot_len = 5
noiseless = yes

[optimizer]
sdp_tol = 1e-5
sdp_max_iter = 400
randomization_draws = 25
"""


def test_load_config_full_roundtrip(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(FULL_INI)
    cfg = load_config(path)
    assert cfg.sea_state == 6
    assert cfg.seed == 17
    assert cfg.interval_duration_s == 0.2
    assert cfg.geometry.turbine_position == (10.0, -5.0)
    assert cfg.geometry.ris_height_m == 40.0
    assert cfg.geometry.rx_mast_m == 7.5
    assert cfg.radio.m_antennas == 4
    assert cfg.radio.n_elements == 64
    assert cfg.radio.sigma2_dbw == -120.0
    assert cfg.radio.pathloss.f_c == 3.5e9
    assert cfg.radio.pathloss.G_r == 3.0
    assert cfg.energy.eta_pto == 0.4
    assert cfg.energy.P_max == 50.0
    assert cfg.estimation.b_subframes == 80
    assert cfg.estimation.t_pilot_len == 5
    assert cfg.estimation.noiseless is True
    assert cfg.optimizer.sdp_max_iter == 400
    assert cfg.b_effective == 80 and cfg.t_baseline == 5


def test_load_config_rejections(tmp_path):
    cases = {
        "unknown_section.ini": "[weather]\nwind = 5\n",
        "unknown_key.ini": "[radio]\nbandwidth = 1\n",
        "both_power_forms.ini": "[energy]\np_max_w = 50\np_max_dbw = 17\n",
        "both_noise_forms.ini": "[radio]\nsigma2_w = 1e-13\nsigma2_dbw = -130\n",
        "bad_int.ini": "[radio]\nn_elements = 12.5\n",
        "bad_bool.ini": "[estimation]\nnoiseless = maybe\n",
        "bad_state.ini": "[scenario]\nsea_state = 1\n",
        "bad_height.ini": "[geometry]\nris_height_m = 10\n",
        "removed_key.ini": "[optimizer]\ndebug_dump = state.npz\n",
        "deploy_in_hull.ini": "[geometry]\ndeploy_radius_m = 2\n",
        "no_draws.ini": "[optimizer]\nrandomization_draws = 0\n",
        "no_iterations.ini": "[optimizer]\nsdp_max_iter = 0\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(path)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")


def test_sigma2_watt_form(tmp_path):
    path = tmp_path / "watts.ini"
    path.write_text("[radio]\nsigma2_w = 1e-13\n")
    cfg = load_config(path)
    assert cfg.radio.sigma2_w == pytest.approx(1e-13, rel=1e-12)


def test_apply_sweep_value_covers_all_variables():
    cfg = ScenarioConfig()
    assert apply_sweep_value(cfg, "hr0", 12.0).geometry.rx_mast_m == 12.0
    assert apply_sweep_value(cfg, "n", 64).radio.n_elements == 64
    assert apply_sweep_value(cfg, "pmax", 40.0).energy.P_max == 40.0
    assert apply_sweep_value(cfg, "sea", 6).sea_state == 6
    # overrides leave the original untouched
    assert cfg.radio.n_elements == 360
    with pytest.raises(ConfigError):
        apply_sweep_value(cfg, "n", 64.5)
    with pytest.raises(ConfigError):
        apply_sweep_value(cfg, "frequency", 1.0)
    with pytest.raises(ConfigError):
        apply_sweep_value(cfg, "sea", 1)     # calm: the one sea-state rule


def test_configs_are_immutable():
    cfg = ScenarioConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.sea_state = 5


def test_readme_scenario_loads(tmp_path):
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.DOTALL)
    cfgs = []
    for k, block in enumerate(blocks):
        path = tmp_path / f"readme{k}.ini"
        path.write_text(block)
        cfgs.append(load_config(path))
    assert cfgs[0].sea_state == 5 and cfgs[0].energy.P_max == 50.0


# small scenario the schema property runs one interval of
BASE = {("radio", "n_elements"): "8", ("radio", "m_antennas"): "2",
        ("geometry", "mean_iot_count"): "2",
        ("optimizer", "sdp_max_iter"): "50",
        ("optimizer", "randomization_draws"): "5"}
NUMERIC_KEYS = [(section, key) for section, keys in _SCHEMA.items()
                for key, (kind, _) in keys.items() if kind is not bool]
INTERVAL_SEEDS = 8
# maps each unit conversion to its inverse, to write a default in key units
TO_KEY_UNITS = {db2pow: pow2db, pow2db: db2pow}


def typical_value(kind, path) -> str:
    value = ScenarioConfig()
    for part in path.split("."):
        value = value[int(part)] if part.isdigit() else getattr(value, part)
    if value is None:   # b_subframes and t_pilot_len: one per RIS element
        return BASE[("radio", "n_elements")]
    convert = TO_KEY_UNITS.get(kind)
    return repr(convert(value) if convert else value)


@pytest.mark.parametrize("section, key", NUMERIC_KEYS,
                         ids=[f"{s}.{k}" for s, k in NUMERIC_KEYS])
def test_every_accepted_value_runs_to_a_finite_record(section, key, tmp_path):
    # any config the loader accepts either finishes an interval with finite
    # rates and powers or raises ConfigError; never a silent NaN
    kind, path = _SCHEMA[section][key]
    for raw in ("nan", "inf", "-inf", "0", "-1", "1e300", "-1e300", "1e-300",
                typical_value(kind, path)):
        sections: dict = {}
        for (sec, k), v in {**BASE, (section, key): raw}.items():
            sections.setdefault(sec, []).append(f"{k} = {v}\n")
        ini = tmp_path / "case.ini"
        ini.write_text("".join(f"[{sec}]\n" + "".join(lines)
                               for sec, lines in sections.items()))
        try:
            cfg = load_config(ini)
        except ConfigError:
            continue
        # several interval draws, so an overflow that needs a rare draw
        # (a close IoT, a deep fade) shows
        for seed in range(INTERVAL_SEEDS):
            try:
                rec = run_coherence_interval(cfg, np.random.default_rng(seed))
            except ConfigError:
                continue
            fields = (rec.c_ris, rec.c_noris, rec.rate_ris, rec.rate_noris,
                      rec.tx_power_w)
            assert all(math.isfinite(f) for f in fields), (key, raw, seed,
                                                           fields)
