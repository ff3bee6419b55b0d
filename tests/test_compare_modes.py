import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


def load_script(name):
    path = os.path.join(ROOT, "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_modes_prints_every_mode_and_the_placement_split(
        capsys, monkeypatch):
    script = load_script("compare_modes")
    monkeypatch.setattr(sys, "argv", [
        "compare_modes.py", "--config",
        os.path.join(ROOT, "configs", "desk_fixed.conf"),
        "--ttis", "20", "--runs", "1"])
    script.main()
    out = capsys.readouterr().out
    for mode in ("nf-du", "nf-cu", "dscd"):
        assert f"running {mode} (1 runs x 20 TTIs)" in out
        assert f"  mode {mode}\n" in out
    assert "placement DU/CU: " in out


def test_compare_modes_prints_na_for_a_tail_without_a_placement_epoch(
        capsys, monkeypatch):
    # desk_fixed places every 5 TTIs: the tail of a 5-TTI run, TTIs 2..5,
    # holds no placement epoch
    script = load_script("compare_modes")
    monkeypatch.setattr(sys, "argv", [
        "compare_modes.py", "--config",
        os.path.join(ROOT, "configs", "desk_fixed.conf"),
        "--ttis", "5", "--runs", "1"])
    script.main()
    assert "placement DU/CU: n/a\n" in capsys.readouterr().out


@pytest.mark.parametrize("args, error", [
    (["--runs", "0"],
     "config error: sim.runs must be >= 1, got 0 (key: sim.runs)\n"),
    (["--config", os.path.join(ROOT, "configs", "missing.conf")],
     "config error: cannot read config file "),
], ids=["runs-0", "missing-config"])
def test_compare_modes_exits_2_on_a_config_error_before_any_run(args, error):
    # as `oransim run` does: one line on stderr, no traceback
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "compare_modes.py"),
         *args], capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr.startswith(error) and done.stderr.count("\n") == 1
    assert done.stdout == ""
