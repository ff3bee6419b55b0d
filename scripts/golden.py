#!/usr/bin/env python3
"""Golden outputs: one command that tells whether a change is bit-exact.

    python3 scripts/golden.py --record   # write golden.json from this tree
    python3 scripts/golden.py --check    # compare this tree with golden.json

The matrix is fixed: the three benchmark workloads
(perfbench/workloads/*.conf, 200-300 TTIs) at seeds 1 and 10000, both
desk presets (configs/*.conf) in every mode, and two desk preset runs
with one radio key line appended to the preset (shadowing, which redraws
every UE's base CQI each TTI, and a penalty of 8, which floors many CQIs
at 1), all cut to 200 TTIs; it takes about 40 seconds on two cores.
Each case is one `oransim run` call, and the script stores the sha256 of
every file it writes (the manifest's duration line stripped). It then
simulates the same runs again in this process and stores each run's
`interference_events` and the sha256 of its ledger's `state_dict`.

Those hashes hold for one floating-point environment: GEMM rounding can
depend on the BLAS kernel and the CPU's SIMD set, and float sums on the
Python version. golden.json therefore stores the host fingerprint too,
and `--check` on another fingerprint reports the comparison without
failing. Exit codes: 0 match or another host, 1 mismatch, 2 no golden.json
or a failed run.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np

from oransim import cli
from oransim.engine import Simulation

GOLDEN = os.path.join(ROOT, "golden.json")
WORKLOADS = ("desk-mobile", "reference", "crowded-nfcu")
PRESETS = ("desk_fixed", "desk_mobile")
MODES = ("dscd", "nf-du", "nf-cu")
PRESET_TTIS = 200
# (preset, mode, a config line appended to the preset): channel paths that
# the presets, with no shadowing and a penalty of 3, leave out
CHANNEL_CASES = (
    ("desk_mobile", "dscd", "ran.shadow_sigma_db = 4.0"),
    ("desk_fixed", "nf-du", "ran.interference_cqi_penalty = 8"),
)


def preset_args(preset, mode):
    return ["--config", f"configs/{preset}.conf", "--mode", mode,
            "--ttis", str(PRESET_TTIS)]


def cases():
    """{case name: (`oransim run` arguments, paths relative to the root;
    the line appended to the --config file, or None)}."""
    out = {}
    for w in WORKLOADS:
        for seed in (1, 10000):
            out[f"{w} seed {seed}"] = ([
                "--config", f"perfbench/workloads/{w}.conf",
                "--seed", str(seed)], None)
    for preset in PRESETS:
        for mode in MODES:
            out[f"{preset} {mode}"] = (preset_args(preset, mode), None)
    for preset, mode, line in CHANNEL_CASES:
        out[f"{preset} {mode} {line}"] = (preset_args(preset, mode), line)
    return out


def fingerprint():
    try:
        config = np.show_config(mode="dicts")
    except TypeError:   # numpy < 1.26 has no dict mode
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), None)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in
                     ("name", "version", "openblas configuration")},
            "simd": config.get("SIMD Extensions"),
            "cpu": cpu or platform.processor() or platform.machine()}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def file_hashes(out_dir):
    hashes = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        if name == "manifest.json":
            lines = [ln for ln in lines if b'"duration_seconds":' not in ln]
        hashes[name] = _sha256(b"".join(lines))
    return hashes


def run_case(args, config_line=None):
    argv = ["run"] + [os.path.join(ROOT, a) if a.endswith(".conf") else a
                      for a in args]
    with tempfile.TemporaryDirectory() as tmp:
        if config_line is not None:
            i = argv.index("--config") + 1
            with open(argv[i], encoding="utf-8") as fh:
                text = fh.read()
            argv[i] = os.path.join(tmp, "case.conf")
            with open(argv[i], "w", encoding="utf-8") as fh:
                fh.write(f"{text}\n{config_line}\n")
        out_dir = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", out_dir])
        if code != cli.EXIT_OK:
            print(f"golden: oransim {' '.join(argv)} exited {code}",
                  file=sys.stderr)
            sys.exit(2)
        files = file_hashes(out_dir)
        cfg = cli.build_config(cli.build_parser().parse_args(argv))
    runs = []
    for i in range(cfg.runs):
        sim = Simulation(cfg, run_index=i)
        state = sim.run().state_dict()
        runs.append({"interference_events": int(sim.interference_events),
                     "ledger_sha256": _sha256(
                         json.dumps(state, sort_keys=True).encode())})
    case = {"args": args, "files": files, "runs": runs}
    if config_line is not None:
        case["config_line"] = config_line
    return case


def compute():
    results = {}
    for name, (args, config_line) in cases().items():
        print(f"  {name}", file=sys.stderr, flush=True)
        results[name] = run_case(args, config_line)
    return results


def differences(expected, actual):
    diffs = []
    for name in sorted(set(expected) | set(actual)):
        exp, act = expected.get(name), actual.get(name)
        if exp is None or act is None:
            diffs.append(f"{name}: only in "
                         f"{'this tree' if exp is None else 'golden.json'}")
            continue
        for fname in sorted(set(exp["files"]) | set(act["files"])):
            if exp["files"].get(fname) != act["files"].get(fname):
                diffs.append(f"{name}: {fname} differs")
        runs = itertools.zip_longest(exp["runs"], act["runs"], fillvalue={})
        for i, (e, a) in enumerate(runs):
            for key in sorted(set(e) | set(a)):
                if e.get(key) != a.get(key):
                    diffs.append(f"{name}: run {i} {key} "
                                 f"{e.get(key)} -> {a.get(key)}")
    return diffs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true")
    mode.add_argument("--check", action="store_true")
    args = ap.parse_args()

    if args.record:
        golden = {"fingerprint": fingerprint(), "cases": compute()}
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"golden: recorded {len(golden['cases'])} cases")
        return 0

    try:
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
    except OSError as e:
        print(f"golden: {e}", file=sys.stderr)
        return 2
    host = fingerprint()
    diffs = differences(golden["cases"], compute())
    for d in diffs:
        print(f"golden: {d}")
    n = len(golden["cases"])
    if host != golden["fingerprint"]:
        changed = [k for k in host if host[k] != golden["fingerprint"].get(k)]
        print(f"golden: recorded on another host (it differs in "
              f"{', '.join(changed)}), so {len(diffs)} differences are not "
              f"a failure")
        return 0
    if diffs:
        print(f"golden: MISMATCH, {len(diffs)} differences over {n} cases")
        return 1
    print(f"golden: OK, {n} cases bit-exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
