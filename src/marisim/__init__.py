"""Link-level Monte-Carlo simulator for RIS-assisted, wave-powered maritime
IoT uplinks: sea-surface LoS geometry, maritime path-loss models, wave-energy
harvesting, two-stage LS channel estimation, SDP-based phase optimization,
and reproducible sweep tooling.
"""

from .sea_surface import (
    BUILTIN_SEA_STATES,
    DEFAULT_WAVE_SOURCE,
    FloatingNode,
    SeaState,
    WaveField,
    antenna_height,
    los_probability,
    los_state,
    sea_state,
    wave_from_sea_state,
)
from .channel import (
    PathLossParams,
    cascade,
    db2pow,
    draw_link_fading,
    path_loss_free_space,
    path_loss_los,
    path_loss_nlos,
    pow2db,
    synthesize_direct_channel,
    two_ray_boundary,
)
from .energy import (
    WecParams,
    available_tx_power,
    harvested_power,
    wave_power_per_meter,
)
from .ris_system import (
    NetworkSnapshot,
    RisConfig,
    aligned_capacity_bound,
    combined_channel,
    direct_capacity,
    make_planar_ris,
    sum_capacity,
)
from .estimation import (
    PilotBook,
    ReflectionSchedule,
    estimate_cascaded,
    estimate_direct,
    make_orthogonal_pilots,
    make_reflection_schedule,
    pilot_overhead_symbols,
    simulate_pilot_rx,
)
from .optimizer import (
    HomogenizedObjective,
    OptimizerConfig,
    SdpSolution,
    brute_force_phases,
    build_D,
    optimize_phases,
    randomize,
    reflection_objective,
    solve_sdp,
)
from .config import (
    ConfigError,
    EstimationConfig,
    GeometryConfig,
    RadioConfig,
    ScenarioConfig,
    apply_sweep_value,
    load_config,
)
from .harness import (
    RESULT_COLUMNS,
    TrialRecord,
    aggregate_cell,
    deploy_iots,
    emit_results,
    format_table,
    los_probability_table,
    pathloss_table,
    read_results,
    run_cell,
    run_coherence_interval,
    run_sweep,
)

__version__ = "0.1.0"
