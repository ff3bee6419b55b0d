"""Batch front-end: `run` executes a configured batch and writes metric
artifacts, `compare` diffs aggregate files across modes, `defaults`
prints the fully resolved default configuration.

Exit codes: 0 success, 2 configuration error, 3 numerical abort.
The output directory comes from --out, else the ORANSIM_OUT environment
variable, else ./oransim-out.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import sys
import time

from . import __version__
from .a2c import NumericsError
from .config import (
    MODES,
    ConfigError,
    SimConfig,
    emit_config,
    parse_config_file,
    set_key,
)
from .engine import run_batch
from .metrics import CSV_HEADER, METRIC_COLUMNS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3


def _fingerprint(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def config_fingerprints(cfg):
    """(full, comparable) fingerprints; comparable ignores mode and seed."""
    text = emit_config(cfg)
    stripped = "\n".join(line for line in text.splitlines()
                         if not line.startswith(("sim.mode", "sim.seed")))
    return _fingerprint(text), _fingerprint(stripped)


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


@contextlib.contextmanager
def _replacing(path, **open_kwargs):
    """A text file to write in place of `path`: a temp file in the same
    directory, renamed onto `path` once the body finishes and removed if
    it raises, so that `path` is either complete or untouched."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_rows_csv(rows, path):
    with _replacing(path, newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_HEADER)
        for r in rows:
            w.writerow([_cell(r[col]) for col in CSV_HEADER])


def write_rows_json(rows, path):
    payload = [{col: r[col] for col in CSV_HEADER} for r in rows]
    with _replacing(path) as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def emit_metrics(batch, out_dir, fmt="csv"):
    """One time-series file per run plus the cross-run aggregate."""
    writer = write_rows_csv if fmt == "csv" else write_rows_json
    ext = fmt
    paths = []
    for i, rows in enumerate(batch.rows_per_run):
        p = os.path.join(out_dir, f"run_{i:02d}_timeseries.{ext}")
        writer(rows, p)
        paths.append(p)
    agg = os.path.join(out_dir, f"aggregate.{ext}")
    writer(batch.aggregate, agg)
    paths.append(agg)
    return paths


def write_manifest(out_dir, cfg, duration_s):
    full, comparable = config_fingerprints(cfg)
    manifest = {
        "version": __version__,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "config_fingerprint": full,
        "comparable_fingerprint": comparable,
        "duration_seconds": duration_s,
        "config": emit_config(cfg),
    }
    path = os.path.join(out_dir, "manifest.json")
    with _replacing(path) as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return path


def resolve_out_dir(flag_value):
    return flag_value or os.environ.get("ORANSIM_OUT") or "oransim-out"


def build_config(args):
    cfg = SimConfig()
    if args.config:
        cfg = parse_config_file(args.config, base=cfg)
    # explicit flags win over the file
    if args.mode is not None:
        set_key(cfg, "sim.mode", args.mode)
    if args.seed is not None:
        set_key(cfg, "sim.seed", str(args.seed))
    if args.runs is not None:
        set_key(cfg, "sim.runs", str(args.runs))
    if args.ttis is not None:
        set_key(cfg, "sim.ttis", str(args.ttis))
    return cfg


def cmd_run(args):
    cfg = build_config(args)
    out_dir = resolve_out_dir(args.out)
    os.makedirs(out_dir, exist_ok=True)
    start = time.monotonic()
    # run_batch validates the config before any run starts
    batch = run_batch(cfg, allow_out_of_envelope=args.override)
    duration = time.monotonic() - start
    # the manifest lands before any metrics file
    write_manifest(out_dir, cfg, duration_s=duration)
    paths = emit_metrics(batch, out_dir, args.format)
    for p in paths:
        print(p)
    return EXIT_OK


def _read_aggregate(path):
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_HEADER:
            raise ConfigError(f"{path} is not an aggregate CSV: its header "
                              f"is not {','.join(CSV_HEADER)}")
        for raw in reader:
            row = dict(raw)
            for col in METRIC_COLUMNS:
                cell = row.get(col)
                try:
                    row[col] = float(cell) if cell else None
                except ValueError:
                    raise ConfigError(
                        f"{path}, line {reader.line_num}, column {col}: "
                        f"{cell!r} is not a number") from None
            rows.append(row)
    manifest = None
    mpath = os.path.join(os.path.dirname(path) or ".", "manifest.json")
    if os.path.exists(mpath):
        with open(mpath, encoding="utf-8") as fh:
            manifest = json.load(fh)
    return rows, manifest


def _class_means(rows):
    out = {}
    for r in rows:
        for metric in METRIC_COLUMNS:
            if r[metric] is not None:
                out.setdefault((r["class"], metric), []).append(r[metric])
    return {k: sum(v) / len(v) for k, v in out.items()}


def cmd_compare(args):
    loaded = [_read_aggregate(p) for p in args.aggregates]
    base_rows, base_manifest = loaded[0]
    base = _class_means(base_rows)
    base_mode = base_rows[0]["mode"] if base_rows else "?"

    warnings = []
    for path, (rows, manifest) in zip(args.aggregates[1:], loaded[1:]):
        if base_manifest and manifest:
            if (manifest["comparable_fingerprint"]
                    != base_manifest["comparable_fingerprint"]):
                warnings.append(f"config-mismatch:{path}")
            if manifest["seed"] != base_manifest["seed"]:
                warnings.append(f"seed-mismatch:{path}")

    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(("class", "metric", "baseline_mode", "baseline", "mode",
                "value", "delta", "ratio", "warnings"))
    warn_text = ";".join(warnings)
    for path, (rows, _) in zip(args.aggregates[1:], loaded[1:]):
        other = _class_means(rows)
        mode = rows[0]["mode"] if rows else "?"
        for key in sorted(set(base) | set(other)):
            cls, metric = key
            b = base.get(key)
            o = other.get(key)
            delta = None if b is None or o is None else o - b
            ratio = None if b in (None, 0.0) or o is None else o / b
            w.writerow((cls, metric, base_mode, _cell(b), mode, _cell(o),
                        _cell(delta), _cell(ratio), warn_text))
    return EXIT_OK


def cmd_defaults(_args):
    sys.stdout.write(emit_config(SimConfig()))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oransim",
        description="TTI-level simulator of RBG scheduling with dynamic "
                    "DU/CU scheduler placement")
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="execute a batch of seeded runs")
    run_p.add_argument("--config", help="flat key-value config file")
    run_p.add_argument("--mode", choices=MODES)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--runs", type=int)
    run_p.add_argument("--ttis", type=int)
    run_p.add_argument("--out", help="output directory (or $ORANSIM_OUT)")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv")
    run_p.add_argument("--override", action="store_true",
                       help="allow values outside the supported envelope")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="diff two or more aggregate files")
    cmp_p.add_argument("aggregates", nargs="+",
                       help="aggregate.csv paths; first is the baseline")
    cmp_p.set_defaults(func=cmd_compare)

    def_p = sub.add_parser("defaults",
                           help="print the resolved default configuration")
    def_p.set_defaults(func=cmd_defaults)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb == "compare" and len(args.aggregates) < 2:
        print("compare needs at least two aggregate files", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as e:
        key = f" (key: {e.key})" if e.key else ""
        print(f"config error: {e}{key}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return EXIT_NUMERICS
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
