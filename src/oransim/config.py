"""Run configuration: dataclasses, defaults, and the flat key-value file
format (`section.key = value`, '#' comments, unknown keys rejected).

Defaults reproduce the reference operating point: 4 cells, 40 UEs,
256 kbps per UE, discount 0.9, actor/critic learning rates 0.01/0.05,
placement reward weights tau = lambda = 0.5.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace

from .placement import PlacementConfig
from .ran import RanConfig
from .scheduler import SchedulerConfig

MODES = ("dscd", "nf-du", "nf-cu")
SCENARIOS = ("fixed", "mobile")
ACTION_MODES = ("auto", "sample", "greedy")

URLLC_DENSITY_ENVELOPE = (0.1, 0.3)


class ConfigError(ValueError):
    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


@dataclass
class TrafficConfig:
    ue_rate_bps: float = 256_000.0
    max_ue_rate_bps: float = 256_000.0
    packet_size_bits: int = 1000
    arrival_cap_events_per_tti: float = 50.0
    ar_share_nonvehicle: float = 0.2


@dataclass
class A2cParams:
    gamma: float = 0.9
    lr_actor: float = 0.01
    lr_critic: float = 0.05
    actor_hidden: int = 900
    critic_hidden: int = 100
    clip_norm: float = 10.0


@dataclass
class SimConfig:
    seed: int = 1
    runs: int = 1
    ttis: int = 5000
    scenario: str = "fixed"
    mode: str = "dscd"
    window_ttis: int = 100
    n_cells: int = 4
    n_ues: int = 40
    n_rbg: int = 8
    tti_ms: float = 1.0
    urllc_density: float = 0.2
    audit: bool = True
    ran: RanConfig = field(default_factory=RanConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    sched: SchedulerConfig = field(default_factory=SchedulerConfig)
    placement: PlacementConfig = field(default_factory=PlacementConfig)
    a2c: A2cParams = field(default_factory=A2cParams)


def _opt_str(v):
    return None if v == "none" else v


def _fmt(value):
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_bool(v):
    if v in ("true", "false"):
        return v == "true"
    raise ValueError(f"expected true/false, got {v!r}")


_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool,
            "str | None": _opt_str}
_KEY_NAMES = {"lam": "lambda"}   # field name -> key name, where they differ

# SimConfig fields that hold a section dataclass, in declaration order
SECTIONS = tuple(f.name for f in fields(SimConfig)
                 if f.default_factory is not MISSING)


def _key_specs():
    """One key per dataclass field: `sim.<field>` for SimConfig's scalars,
    `<section>.<field>` for each section's; the parser follows the field's
    annotation."""
    specs = {}
    for f in fields(SimConfig):
        if f.name not in SECTIONS:
            specs[f"sim.{f.name}"] = (None, f.name, _PARSERS[f.type])
            continue
        for g in fields(f.default_factory):
            key = f"{f.name}.{_KEY_NAMES.get(g.name, g.name)}"
            specs[key] = (f.name, g.name, _PARSERS[g.type])
    return specs


# key -> (section attr or None for top level, field name, parser)
KEY_SPECS = _key_specs()


def get_key(cfg: SimConfig, key):
    section, name, _ = KEY_SPECS[key]
    target = cfg if section is None else getattr(cfg, section)
    return getattr(target, name)


def set_key(cfg: SimConfig, key, raw_value):
    """Assign one flat key from its string form; raises ConfigError."""
    if key not in KEY_SPECS:
        raise ConfigError(f"unknown config key: {key}", key=key)
    section, name, parser = KEY_SPECS[key]
    try:
        value = parser(raw_value.strip())
    except ValueError as e:
        raise ConfigError(f"bad value for {key}: {e}", key=key) from None
    target = cfg if section is None else getattr(cfg, section)
    setattr(target, name, value)


def emit_config(cfg: SimConfig):
    """Render every key in the flat format; parse(emit(c)) == c."""
    lines = [f"{key} = {_fmt(get_key(cfg, key))}" for key in sorted(KEY_SPECS)]
    return "\n".join(lines) + "\n"


def copy_config(base: SimConfig) -> SimConfig:
    """Independent copy (replace() alone would share the section objects)."""
    return replace(base, **{s: replace(getattr(base, s)) for s in SECTIONS})


def parse_config_text(text, base: SimConfig | None = None):
    cfg = copy_config(base) if base is not None else SimConfig()
    set_on = {}   # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in set_on:
            raise ConfigError(f"line {lineno}: {key} is already set on line "
                              f"{set_on[key]}", key=key)
        set_on[key] = lineno
        set_key(cfg, key, value)
    return cfg


def parse_config_file(path, base=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    return parse_config_text(text, base=base)


def validate_config(cfg: SimConfig, allow_out_of_envelope=False):
    """Reject contradictory or out-of-contract configurations up front."""
    def require(cond, msg, key=None):
        if not cond:
            raise ConfigError(msg, key=key)

    for key in KEY_SPECS:
        value = get_key(cfg, key)
        if isinstance(value, float):
            require(math.isfinite(value), f"{key} must be finite, got {value}",
                    key)
    require(cfg.ttis >= 0, f"sim.ttis must be >= 0, got {cfg.ttis}", "sim.ttis")
    require(cfg.runs >= 1, f"sim.runs must be >= 1, got {cfg.runs}", "sim.runs")
    require(cfg.seed >= 0, f"sim.seed must be >= 0, got {cfg.seed}", "sim.seed")
    for key in ("n_cells", "n_ues", "n_rbg", "window_ttis"):
        require(getattr(cfg, key) >= 1,
                f"sim.{key} must be >= 1, got {getattr(cfg, key)}", f"sim.{key}")
    require(cfg.tti_ms > 0, "sim.tti_ms must be positive", "sim.tti_ms")
    require(cfg.mode in MODES,
            f"sim.mode must be one of {MODES}, got {cfg.mode!r}", "sim.mode")
    require(cfg.scenario in SCENARIOS,
            f"sim.scenario must be one of {SCENARIOS}, got {cfg.scenario!r}",
            "sim.scenario")
    lo, hi = URLLC_DENSITY_ENVELOPE
    require(0.0 <= cfg.urllc_density <= 1.0,
            "sim.urllc_density must be in [0, 1]", "sim.urllc_density")
    if not allow_out_of_envelope:
        require(lo <= cfg.urllc_density <= hi,
                f"sim.urllc_density {cfg.urllc_density} outside the supported "
                f"envelope [{lo}, {hi}] (pass --override to unlock)",
                "sim.urllc_density")
    require(0.0 <= cfg.a2c.gamma < 1.0, "a2c.gamma must be in [0, 1)",
            "a2c.gamma")
    require(0.0 < cfg.a2c.lr_actor <= 1.0, "a2c.lr_actor must be in (0, 1]",
            "a2c.lr_actor")
    require(0.0 < cfg.a2c.lr_critic <= 1.0, "a2c.lr_critic must be in (0, 1]",
            "a2c.lr_critic")
    for key in ("a2c.actor_hidden", "a2c.critic_hidden"):
        require(get_key(cfg, key) >= 0, f"{key} must be >= 0", key)
    require(cfg.a2c.clip_norm > 0.0, "a2c.clip_norm must be > 0",
            "a2c.clip_norm")
    require(cfg.traffic.ue_rate_bps >= 0.0, "traffic.ue_rate_bps must be >= 0",
            "traffic.ue_rate_bps")
    require(cfg.traffic.ue_rate_bps <= cfg.traffic.max_ue_rate_bps,
            f"traffic.ue_rate_bps {cfg.traffic.ue_rate_bps} exceeds the "
            f"per-UE cap {cfg.traffic.max_ue_rate_bps}", "traffic.ue_rate_bps")
    require(cfg.traffic.packet_size_bits >= 1,
            "traffic.packet_size_bits must be >= 1",
            "traffic.packet_size_bits")
    require(0.0 <= cfg.traffic.ar_share_nonvehicle <= 1.0,
            "traffic.ar_share_nonvehicle must be in [0, 1]",
            "traffic.ar_share_nonvehicle")
    require(cfg.traffic.arrival_cap_events_per_tti > 0.0,
            "traffic.arrival_cap_events_per_tti must be > 0",
            "traffic.arrival_cap_events_per_tti")
    require(cfg.ran.interference_cqi_penalty >= 0,
            "ran.interference_cqi_penalty must be >= 0",
            "ran.interference_cqi_penalty")
    require(cfg.ran.cell_spacing_m > 0.0, "ran.cell_spacing_m must be > 0",
            "ran.cell_spacing_m")
    require(cfg.ran.max_radius_m > cfg.ran.ref_distance_m > 0,
            "ran radii must satisfy 0 < ref_distance < max_radius",
            "ran.max_radius_m")
    require(cfg.ran.path_loss_exponent > 0.0,
            "ran.path_loss_exponent must be > 0", "ran.path_loss_exponent")
    # the CQI map rises from CQI 1 at the far anchor to CQI 15 at the near one
    far = cfg.ran.far_snr_db()
    require(cfg.ran.near_snr_db > far,
            f"ran.near_snr_db must be above the far anchor ({far} dB)",
            "ran.near_snr_db")
    require(cfg.ran.shadow_sigma_db >= 0.0, "ran.shadow_sigma_db must be >= 0",
            "ran.shadow_sigma_db")
    require(cfg.ran.vehicle_speed_mps >= 0.0,
            "ran.vehicle_speed_mps must be >= 0", "ran.vehicle_speed_mps")
    require(cfg.sched.slot_count >= 1, "sched.slot_count must be >= 1",
            "sched.slot_count")
    require(cfg.sched.obs_buffer_cap_bits >= 1,
            "sched.obs_buffer_cap_bits must be >= 1",
            "sched.obs_buffer_cap_bits")
    for section in ("sched", "placement"):
        require(getattr(cfg, section).action_mode in ACTION_MODES,
                f"{section}.action_mode must be {'|'.join(ACTION_MODES)}",
                f"{section}.action_mode")
    require(cfg.placement.pin in (None, "du", "cu"),
            "placement.pin must be none|du|cu", "placement.pin")
    require(cfg.placement.epoch_ttis >= 1, "placement.epoch_ttis must be >= 1",
            "placement.epoch_ttis")
    require(cfg.placement.cu_extra_delay_ttis >= 0,
            "placement.cu_extra_delay_ttis must be >= 0",
            "placement.cu_extra_delay_ttis")
    for key in ("placement.tau", "placement.lambda"):
        require(get_key(cfg, key) >= 0.0, f"{key} must be >= 0", key)
    return cfg
