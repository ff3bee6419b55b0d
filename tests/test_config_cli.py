import csv
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from oransim import cli
from oransim.cli import main
from oransim.config import (
    KEY_SPECS,
    ConfigError,
    SimConfig,
    copy_config,
    emit_config,
    get_key,
    parse_config_file,
    parse_config_text,
    set_key,
    validate_config,
)
from oransim.metrics import CSV_HEADER


# ----------------------------------------------------------------- parsing

def test_empty_config_gives_reference_defaults():
    cfg = parse_config_text("")
    assert cfg.a2c.gamma == 0.9
    assert cfg.a2c.lr_actor == 0.01
    assert cfg.a2c.lr_critic == 0.05
    assert cfg.placement.tau == 0.5
    assert cfg.placement.lam == 0.5
    assert cfg.n_cells == 4
    assert cfg.n_ues == 40
    assert cfg.traffic.ue_rate_bps == 256_000.0
    assert cfg.a2c.actor_hidden == 900
    assert cfg.a2c.critic_hidden == 100
    assert cfg.ttis == 5000


def test_parse_assigns_sections_and_types():
    cfg = parse_config_text("""
# comment line
sim.n_cells = 2
placement.lambda = 0.25   # trailing comment
sched.training = false
placement.pin = du
""")
    assert cfg.n_cells == 2
    assert cfg.placement.lam == 0.25
    assert cfg.sched.training is False
    assert cfg.placement.pin == "du"


def test_unknown_key_rejected_with_name():
    with pytest.raises(ConfigError) as err:
        parse_config_text("sim.bogus = 3")
    assert err.value.key == "sim.bogus"


def test_bad_value_rejected_with_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text("sim.n_cells = many")
    assert err.value.key == "sim.n_cells"


def test_malformed_line_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("just words")


def test_urllc_density_envelope_enforced_unless_overridden():
    cfg = parse_config_text("sim.urllc_density = 0.5")
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.key == "sim.urllc_density"
    validate_config(cfg, allow_out_of_envelope=True)
    bad = parse_config_text("sim.urllc_density = 1.5")
    with pytest.raises(ConfigError):
        validate_config(bad, allow_out_of_envelope=True)


@pytest.mark.parametrize("key, raw", [
    ("sched.obs_buffer_cap_bits", "0"),
    ("sched.obs_buffer_cap_bits", "-8"),
    ("a2c.clip_norm", "-1"),
    ("a2c.clip_norm", "0"),
    ("a2c.gamma", "1.0"),
    ("a2c.lr_actor", "0"),
    ("a2c.lr_critic", "1.5"),
    ("a2c.actor_hidden", "-1"),
    ("a2c.critic_hidden", "-3"),
    ("placement.epoch_ttis", "0"),
    ("placement.cu_extra_delay_ttis", "-1"),
    ("placement.tau", "-0.1"),
    ("placement.lambda", "-1"),
    ("ran.cell_spacing_m", "-100"),
    ("ran.cell_spacing_m", "0"),
    ("ran.path_loss_exponent", "0"),
    ("ran.near_snr_db", "-120"),
    ("ran.vehicle_speed_mps", "-14"),
    ("ran.shadow_sigma_db", "-1"),
    ("traffic.arrival_cap_events_per_tti", "0"),
    ("traffic.arrival_cap_events_per_tti", "-5"),
    ("sim.seed", "-1"),
])
def test_out_of_range_value_rejected_with_key(key, raw):
    cfg = parse_config_text(f"{key} = {raw}")
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.key == key


FLOAT_KEYS = [key for key in sorted(KEY_SPECS)
              if isinstance(get_key(SimConfig(), key), float)]


@pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
def test_non_finite_float_rejected_with_key_for_every_float_key(raw):
    assert "ran.near_snr_db" in FLOAT_KEYS and "sim.tti_ms" in FLOAT_KEYS
    for key in FLOAT_KEYS:
        cfg = parse_config_text(f"{key} = {raw}")
        with pytest.raises(ConfigError, match="finite") as err:
            validate_config(cfg, allow_out_of_envelope=True)
        assert err.value.key == key


def test_round_trip_identity_on_defaults():
    cfg = parse_config_text("")
    assert parse_config_text(emit_config(cfg)) == cfg


@settings(max_examples=40)
@given(st.integers(1, 10), st.integers(1, 64),
       st.sampled_from(["dscd", "nf-du", "nf-cu"]),
       st.floats(0.1, 0.3), st.sampled_from(["none", "du", "cu"]),
       st.floats(0.0, 1.0))
def test_round_trip_identity_on_varied_configs(cells, rbg, mode, density,
                                               pin, tau):
    text = "\n".join([
        f"sim.n_cells = {cells}",
        f"sim.n_rbg = {rbg}",
        f"sim.mode = {mode}",
        f"sim.urllc_density = {density!r}",
        f"placement.pin = {pin}",
        f"placement.tau = {tau!r}",
    ])
    cfg = parse_config_text(text)
    again = parse_config_text(emit_config(cfg))
    assert again == cfg
    assert parse_config_text(emit_config(again)) == again


def test_copy_config_is_independent():
    a = SimConfig()
    b = copy_config(a)
    set_key(b, "a2c.gamma", "0.5")
    assert a.a2c.gamma == 0.9
    assert get_key(b, "a2c.gamma") == 0.5


# --------------------------------------------------------------- cli verbs

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_defaults_verb_prints_reference_values(capsys):
    code, out, _ = run_cli(capsys, "defaults")
    assert code == 0
    assert "a2c.gamma = 0.9" in out
    assert "a2c.lr_actor = 0.01" in out
    assert "a2c.lr_critic = 0.05" in out
    assert "placement.tau = 0.5" in out
    assert "placement.lambda = 0.5" in out
    assert "sim.n_cells = 4" in out
    assert "sim.n_ues = 40" in out
    assert "traffic.ue_rate_bps = 256000.0" in out
    # the printout is itself a valid config equal to the defaults
    assert parse_config_text(out) == SimConfig()


def test_missing_config_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", "--config",
                           str(tmp_path / "nope.conf"))
    assert code == 2
    assert "nope.conf" in err


def test_unknown_key_exits_2_and_names_key(capsys, tmp_path):
    p = tmp_path / "bad.conf"
    p.write_text("sim.wat = 1\n")
    code, _, err = run_cli(capsys, "run", "--config", str(p))
    assert code == 2
    assert "sim.wat" in err


def test_out_of_envelope_exits_2_without_override(capsys, tmp_path):
    p = tmp_path / "c.conf"
    p.write_text("sim.urllc_density = 0.5\n")
    code, _, err = run_cli(capsys, "run", "--config", str(p))
    assert code == 2
    assert "urllc_density" in err


def test_zero_obs_buffer_cap_exits_2(capsys, tmp_path):
    p = tmp_path / "c.conf"
    p.write_text("sim.n_cells = 2\nsim.ttis = 20\nsched.obs_buffer_cap_bits = 0\n")
    code, _, err = run_cli(capsys, "run", "--config", str(p), "--out",
                           str(tmp_path / "out"))
    assert code == 2
    assert "sched.obs_buffer_cap_bits" in err


def test_negative_cell_spacing_exits_2(capsys, tmp_path):
    p = tmp_path / "c.conf"
    p.write_text("sim.n_cells = 2\nsim.n_ues = 6\nsim.ttis = 20\n"
                 "sim.scenario = mobile\nran.cell_spacing_m = -100\n")
    code, _, err = run_cli(capsys, "run", "--config", str(p), "--out",
                           str(tmp_path / "out"))
    assert code == 2
    assert "ran.cell_spacing_m" in err


def test_negative_seed_exits_2(capsys, tmp_path):
    p = tmp_path / "c.conf"
    p.write_text("sim.n_cells = 2\nsim.n_ues = 6\nsim.ttis = 20\n")
    code, _, err = run_cli(capsys, "run", "--config", str(p), "--seed", "-1",
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "sim.seed" in err


@pytest.mark.parametrize("key", ["ran.near_snr_db", "sim.tti_ms",
                                 "ran.cell_spacing_m", "ran.max_radius_m"])
def test_infinite_value_exits_2_and_names_key(capsys, tmp_path, key):
    p = tmp_path / "c.conf"
    p.write_text("sim.n_cells = 2\nsim.n_ues = 6\nsim.ttis = 20\n"
                 f"sim.scenario = mobile\n{key} = inf\n")
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", "--config", str(p), "--out",
                           str(out_dir))
    assert code == 2
    assert key in err
    assert not (out_dir / "manifest.json").exists()


def test_run_validates_the_config_once(capsys, tmp_path, monkeypatch):
    import oransim.engine as engine_mod
    calls = []
    real = engine_mod.validate_config

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "validate_config", counting)
    code, _, _ = run_cli(capsys, "run", "--config", str(small_conf(tmp_path)),
                         "--out", str(tmp_path / "out"))
    assert code == 0
    assert len(calls) == 1


ROOT = os.path.join(os.path.dirname(__file__), "..")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    WORKLOADS = [w["name"] for w in json.load(_fh)["workloads"]]


@pytest.mark.parametrize("name", WORKLOADS)
def test_benchmark_workload_lists_every_key_once_and_validates(name):
    path = os.path.join(ROOT, "perfbench", "workloads", f"{name}.conf")
    with open(path, encoding="utf-8") as fh:
        keys = [line.partition("=")[0].strip() for line in fh
                if line.split("#", 1)[0].strip()]
    assert keys == sorted(KEY_SPECS)
    validate_config(parse_config_file(path))


def small_conf(tmp_path, extra=""):
    p = tmp_path / "small.conf"
    p.write_text("\n".join([
        "sim.n_cells = 1",
        "sim.n_ues = 3",
        "sim.n_rbg = 2",
        "sim.ttis = 40",
        "sim.window_ttis = 20",
        "sched.slot_count = 3",
        "a2c.actor_hidden = 8",
        "a2c.critic_hidden = 4",
        extra,
    ]) + "\n")
    return p


def test_flag_overrides_config_file(capsys, tmp_path):
    p = small_conf(tmp_path, "sim.mode = nf-du")
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "run", "--config", str(p), "--mode", "nf-cu",
                         "--out", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["mode"] == "nf-cu"
    assert "sim.mode = nf-cu" in manifest["config"]


def test_run_writes_manifest_and_metric_files(capsys, tmp_path):
    p = small_conf(tmp_path)
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "run", "--config", str(p), "--runs", "2",
                           "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "run_00_timeseries.csv").exists()
    assert (out_dir / "run_01_timeseries.csv").exists()
    assert (out_dir / "aggregate.csv").exists()
    with open(out_dir / "aggregate.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_HEADER
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["duration_seconds"] > 0
    # config echo reproduces the exact resolved config
    assert parse_config_text(manifest["config"]).runs == 2


@pytest.mark.parametrize("writer", [cli.write_rows_csv, cli.write_rows_json])
def test_a_writer_that_raises_mid_file_leaves_no_partial_file(tmp_path, writer):
    path = tmp_path / "aggregate.out"
    good = {col: 1.0 for col in CSV_HEADER}
    with pytest.raises(KeyError):
        writer([good, good, {}], str(path))   # the third row has no columns
    assert os.listdir(tmp_path) == []
    # a failed rewrite leaves the complete earlier file as it was
    writer([good], str(path))
    before = path.read_bytes()
    with pytest.raises(KeyError):
        writer([good, {}], str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["aggregate.out"]


def test_a_manifest_that_fails_mid_file_leaves_no_partial_file(
        tmp_path, monkeypatch):
    def half_dump(obj, fh, **kwargs):
        fh.write('{"version": ')
        raise OSError("disk full")
    monkeypatch.setattr(cli.json, "dump", half_dump)
    with pytest.raises(OSError, match="disk full"):
        cli.write_manifest(str(tmp_path), SimConfig(), duration_s=1.0)
    assert os.listdir(tmp_path) == []


def test_zero_tti_run_emits_header_only_files(capsys, tmp_path):
    p = small_conf(tmp_path)
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "run", "--config", str(p), "--ttis", "0",
                         "--out", str(out_dir))
    assert code == 0
    text = (out_dir / "aggregate.csv").read_text()
    assert text.strip() == ",".join(CSV_HEADER)


def test_identical_runs_write_byte_identical_metrics(capsys, tmp_path):
    p = small_conf(tmp_path)
    blobs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, _, _ = run_cli(capsys, "run", "--config", str(p),
                             "--out", str(out_dir))
        assert code == 0
        blobs.append((out_dir / "run_00_timeseries.csv").read_bytes()
                     + (out_dir / "aggregate.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_nf_du_mode_reports_constant_du_ratio(capsys, tmp_path):
    p = small_conf(tmp_path, "sim.mode = nf-du")
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "run", "--config", str(p),
                         "--out", str(out_dir))
    assert code == 0
    with open(out_dir / "aggregate.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            assert float(row["du_ratio"]) == 1.0
            assert float(row["cu_ratio"]) == 0.0


def test_env_var_sets_default_out_dir(capsys, tmp_path, monceypatch=None):
    p = small_conf(tmp_path)
    target = tmp_path / "envout"
    old = os.environ.get("ORANSIM_OUT")
    os.environ["ORANSIM_OUT"] = str(target)
    try:
        code, _, _ = run_cli(capsys, "run", "--config", str(p))
        assert code == 0
        assert (target / "aggregate.csv").exists()
    finally:
        if old is None:
            del os.environ["ORANSIM_OUT"]
        else:
            os.environ["ORANSIM_OUT"] = old


def test_json_format_emission(capsys, tmp_path):
    p = small_conf(tmp_path)
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "run", "--config", str(p), "--format", "json",
                         "--out", str(out_dir))
    assert code == 0
    payload = json.loads((out_dir / "aggregate.json").read_text())
    assert isinstance(payload, list)
    if payload:
        assert set(payload[0]) == set(CSV_HEADER)


# ------------------------------------------------------------------ compare

def run_to(capsys, tmp_path, name, *extra_flags, conf_extra=""):
    p = small_conf(tmp_path, conf_extra)
    out_dir = tmp_path / name
    code, _, _ = run_cli(capsys, "run", "--config", str(p), "--out",
                         str(out_dir), *extra_flags)
    assert code == 0
    return out_dir


def test_compare_with_itself_gives_zero_deltas(capsys, tmp_path):
    out_dir = run_to(capsys, tmp_path, "one")
    agg = str(out_dir / "aggregate.csv")
    code, out, _ = run_cli(capsys, "compare", agg, agg)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert rows
    for r in rows:
        if r["delta"]:
            assert float(r["delta"]) == 0.0
        if r["ratio"]:
            assert float(r["ratio"]) == 1.0
        assert r["warnings"] == ""


def test_compare_flags_seed_mismatch(capsys, tmp_path):
    a = run_to(capsys, tmp_path, "a")
    b = run_to(capsys, tmp_path, "b", "--seed", "9")
    code, out, _ = run_cli(capsys, "compare", str(a / "aggregate.csv"),
                           str(b / "aggregate.csv"))
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert all("seed-mismatch" in r["warnings"] for r in rows)


def test_compare_flags_config_mismatch(capsys, tmp_path):
    a = run_to(capsys, tmp_path, "a")
    b = run_to(capsys, tmp_path, "b", conf_extra="traffic.packet_size_bits = 500")
    code, out, _ = run_cli(capsys, "compare", str(a / "aggregate.csv"),
                           str(b / "aggregate.csv"))
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert all("config-mismatch" in r["warnings"] for r in rows)


def test_compare_doubled_series_ratio_two(capsys, tmp_path):
    a = run_to(capsys, tmp_path, "a")
    doubled = tmp_path / "doubled"
    doubled.mkdir()
    with open(a / "aggregate.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        if r["throughput_kbps"]:
            r["throughput_kbps"] = repr(float(r["throughput_kbps"]) * 2.0)
    with open(doubled / "aggregate.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(CSV_HEADER), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
    code, out, _ = run_cli(capsys, "compare", str(a / "aggregate.csv"),
                           str(doubled / "aggregate.csv"))
    assert code == 0
    got = [r for r in csv.DictReader(out.splitlines())
           if r["metric"] == "throughput_kbps" and r["ratio"]]
    assert got
    for r in got:
        assert float(r["ratio"]) == pytest.approx(2.0)


def test_compare_needs_two_files(capsys, tmp_path):
    code, _, err = run_cli(capsys, "compare", "only-one.csv")
    assert code == 2


def test_numerics_abort_maps_to_exit_3(capsys, tmp_path, monkeypatch):
    import oransim.cli as cli_mod
    from oransim.a2c import NumericsError

    def boom(cfg, allow_out_of_envelope=False):
        raise NumericsError("test blow-up")

    monkeypatch.setattr(cli_mod, "run_batch", boom)
    p = small_conf(tmp_path)
    code, _, err = run_cli(capsys, "run", "--config", str(p), "--out",
                           str(tmp_path / "out"))
    assert code == 3
    assert "test blow-up" in err
