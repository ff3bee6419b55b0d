#!/usr/bin/env python3
"""Run the dynamic placement policy against both pinned baselines on a
desk-scale preset and print converged-tail metrics per traffic class.
A config error exits 2 before any run, as `oransim run` does.

Usage:
    python scripts/compare_modes.py [--config configs/desk_fixed.conf]
                                    [--runs N] [--ttis N] [--seed N]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from oransim.cli import EXIT_CONFIG
from oransim.config import (
    ConfigError,
    SimConfig,
    copy_config,
    parse_config_file,
    set_key,
    validate_config,
)
from oransim.engine import run_batch
from oransim.metrics import tail_summary
from oransim.placement import relocation_ratio


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", default=os.path.join(
        os.path.dirname(__file__), "..", "configs", "desk_fixed.conf"))
    ap.add_argument("--runs", type=int)
    ap.add_argument("--ttis", type=int)
    ap.add_argument("--seed", type=int)
    args = ap.parse_args()

    configs = {}
    try:
        base = parse_config_file(args.config, base=SimConfig())
        for key, val in (("sim.runs", args.runs), ("sim.ttis", args.ttis),
                         ("sim.seed", args.seed)):
            if val is not None:
                set_key(base, key, str(val))
        for mode in ("nf-du", "nf-cu", "dscd"):
            configs[mode] = copy_config(base)
            configs[mode].mode = mode
            validate_config(configs[mode])
    except ConfigError as e:
        key = f" (key: {e.key})" if e.key else ""
        print(f"config error: {e}{key}", file=sys.stderr)
        return EXIT_CONFIG

    results = {}
    for mode, cfg in configs.items():
        print(f"running {mode} ({cfg.runs} runs x {cfg.ttis} TTIs)...",
              flush=True)
        results[mode] = run_batch(cfg)

    tail = results["dscd"].tail_range()
    print(f"\nconverged-tail metrics (TTIs {tail[0]}..{tail[1]}):")
    for mode, batch in results.items():
        print(f"\n  mode {mode}")
        summary = tail_summary(batch.ledgers, tail)
        for cls, m in summary.items():
            hol = "-" if m["hol"] is None else f"{m['hol']:8.2f}"
            pdr = "-" if m["pdr"] is None else f"{m['pdr']:6.3f}"
            print(f"    {cls:6} pdr {pdr}  mean HoL {hol} ms"
                  f"  throughput {m['thpt']:8.1f} kbps")
        if mode == "dscd":
            events = [e for led in batch.ledgers
                      for e in led.placement_events]
            overall = relocation_ratio(events, tti_range=tail)
            dom = relocation_ratio(events, urllc_threshold=0.5,
                                   tti_range=tail)
            # a tail without a placement epoch has no split to print
            split = "n/a" if overall is None else \
                f"{overall[0]:.2f}/{overall[1]:.2f}"
            print(f"    placement DU/CU: {split}"
                  + (f"; URLLC-dominated epochs at DU: {dom[0]:.2f}"
                     if dom else ""))


if __name__ == "__main__":
    sys.exit(main())
