#!/usr/bin/env python3
"""oransim benchmark: host TTIs per second, set-up time and peak memory
on frozen workloads, with every call's output checked, and a separate
traced run per workload for per-layer numbers.

    python3 perfbench/run.py --workload reference --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Run it from the repository root; it imports the package from ./src. A
single-workload run prints progress lines and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. Details go to
perfbench/out/; README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_DIR = os.path.join(HERE, "workloads")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("desk-mobile", "reference", "crowded-nfcu")

# the aggregate.csv contract, written out here so that a change to it shows
CONTRACT_HEADER = ["window_start_tti", "class", "mode", "mean_hol_ms", "pdr",
                   "throughput_kbps", "du_ratio", "cu_ratio"]
URLLC_CLASSES = ("ar", "v2x")

# simulated outcomes: exact for a seed, so they check determinism; reported
# as the metrics layer's numbers in the traced run
OUTCOME_UNITS = {"urllc_pdr": "ratio", "urllc_hol_ms": "ms",
                 "video_throughput_kbps": "kbps"}

MIN_CALLS = 3          # measured `oransim run` calls per untraced run
SETUPS_PER_CALL = 5    # set-up timings taken before each measured call
WORLDS_PER_SEED = 10_000
EXIT_USAGE = 2


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(EXIT_USAGE)


def import_oransim():
    if not os.path.isfile(os.path.join(SRC, "oransim", "__init__.py")):
        fail(f"no oransim package under {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)
    import oransim
    if os.path.dirname(os.path.dirname(os.path.abspath(oransim.__file__))) != SRC:
        fail(f"imported oransim from {oransim.__file__}, not from {SRC}")


# ------------------------------------------------------------------ checks

def check_call(out_dir, cfg, exit_code):
    """Problems with one `oransim run` call's outputs, plus the aggregate hash."""
    if exit_code != 0:
        return [f"run failed: {exit_code}"], None
    problems = []
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    if "sim.audit = true" not in manifest["config"].splitlines():
        problems.append("sim.audit is off")
    path = os.path.join(out_dir, "aggregate.csv")
    with open(path, "rb") as fh:
        raw = fh.read()
    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
    if not rows or rows[0] != CONTRACT_HEADER:
        problems.append(f"aggregate.csv header {rows[:1]}")
        return problems, hashlib.sha256(raw).hexdigest()
    classes = ["ar", "video"] + (["v2x"] if cfg.scenario == "mobile" else [])
    n_windows = -(-cfg.ttis // cfg.window_ttis)
    expected = [(str(w * cfg.window_ttis), cls)
                for w in range(n_windows) for cls in sorted(classes)]
    if [(r[0], r[1]) for r in rows[1:]] != expected:
        problems.append("aggregate.csv rows are not one per (window, class) "
                        "in order")
    if any(len(r) != len(CONTRACT_HEADER) or r[2] != cfg.mode for r in rows[1:]):
        problems.append("aggregate.csv row width or mode column is wrong")
    return problems, hashlib.sha256(raw).hexdigest()


def outcomes(batch):
    """Converged-tail outcomes averaged across runs: pooled URLLC PDR and
    mean HoL at delivery, and video throughput."""
    lo, hi = batch.tail_range()
    pdrs, hols, thpts = [], [], []
    for led in batch.ledgers:
        delivered = decided = 0
        hol_sum = 0.0
        for (w, cls), s in led.windows.items():
            if cls in URLLC_CLASSES and lo <= w * led.window_ttis < hi:
                delivered += s.delivered
                decided += s.delivered + s.dropped
                hol_sum += s.hol_sum_ms
        if decided:
            pdrs.append(delivered / decided)
        if delivered:
            hols.append(hol_sum / delivered)
        thpts.append(led.throughput_kbps("video", (lo, hi)))

    def mean(vals):
        return sum(vals) / len(vals) if vals else None
    return {"urllc_pdr": mean(pdrs), "urllc_hol_ms": mean(hols),
            "video_throughput_kbps": mean(thpts)}


# ------------------------------------------------------------- measurement

class Workload:
    """One frozen workload config, driven through `oransim run` calls.

    Call k simulates the worlds from `world_seed(k)` on (one per batch
    run): a benchmark run sees several worlds derived from --seed, so its
    median TTI rate does not hang on one topology. No two calls or --seed
    values share a world.
    """

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.conf = os.path.join(WORKLOAD_DIR, f"{name}.conf")
        self.cfg = self.load(seed * WORLDS_PER_SEED)
        self.run_dir = os.path.join(OUT_DIR, name)
        os.makedirs(self.run_dir, exist_ok=True)
        self.calls = []       # one record per `oransim run` call
        self.problems = []

    def world_seed(self, k):
        return self.seed * WORLDS_PER_SEED + k * self.cfg.runs

    def load(self, world):
        from oransim.config import SimConfig, parse_config_file, set_key, validate_config
        cfg = parse_config_file(self.conf, base=SimConfig())
        set_key(cfg, "sim.seed", str(world))
        return validate_config(cfg)

    def time_setup(self, world):
        """Parse and validate the config and build run 0's Simulation."""
        from oransim.engine import Simulation
        t0 = time.perf_counter()
        cfg = self.load(world)
        Simulation(cfg, run_index=0)
        return time.perf_counter() - t0

    def call(self, world):
        """One whole `oransim run` call; returns its host seconds per TTI."""
        from oransim import cli
        from oransim.a2c import NumericsError
        from oransim.engine import AuditError
        captured = []
        run_batch = cli.run_batch

        def capture(*args, **kwargs):
            batch = run_batch(*args, **kwargs)
            captured.append(batch)
            return batch

        argv = ["run", "--config", self.conf, "--seed", str(world),
                "--out", self.run_dir]
        for name in os.listdir(self.run_dir):
            os.remove(os.path.join(self.run_dir, name))
        cli.run_batch = capture
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except (AuditError, NumericsError) as e:
            code = f"{type(e).__name__}: {e}"
        finally:
            elapsed = time.perf_counter() - t0
            cli.run_batch = run_batch
        problems, digest = check_call(self.run_dir, self.cfg, code)
        self.problems.extend(problems)
        self.calls.append({
            "world": world, "seconds": elapsed, "ok": not problems,
            "aggregate_sha256": digest,
            "outcomes": outcomes(captured[0]) if captured else None})
        return elapsed / self.ttis_per_call

    def check_repeats(self):
        """Calls on one world must give the same bytes and outcomes."""
        seen = {}
        for c in self.calls:
            first = seen.setdefault(c["world"], c)
            if (c["aggregate_sha256"], c["outcomes"]) != \
                    (first["aggregate_sha256"], first["outcomes"]):
                self.problems.append(f"world {c['world']}: output differs "
                                     f"between calls")

    @property
    def ttis_per_call(self):
        return self.cfg.runs * self.cfg.ttis

    @property
    def attempted(self):
        return self.cfg.runs * len(self.calls)

    @property
    def failed(self):
        return self.cfg.runs * sum(1 for c in self.calls if not c["ok"])


def measure(wl, seconds):
    """Untraced run: a warm-up call on world 0, then one call per world
    until `seconds` have passed. World 0 runs twice, which checks that
    its output repeats exactly."""
    deadline = time.perf_counter() + seconds
    wl.call(wl.world_seed(0))
    setups, rates = [], []
    while True:
        world = wl.world_seed(len(rates))
        setups.extend(wl.time_setup(world) for _ in range(SETUPS_PER_CALL))
        rates.append(1.0 / wl.call(world))
        print(f"world {world}: {rates[-1]:.2f} TTI/s", flush=True)
        if len(rates) >= MIN_CALLS and \
                time.perf_counter() + wl.calls[-1]["seconds"] > deadline:
            break
    wl.check_repeats()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"tti_per_s": (statistics.median(rates), "1/s"),
               "setup_s": (statistics.median(setups), "s"),
               "peak_rss_mb": (peak_kb / 1024.0, "MB")}
    return metrics, {"setup_s_samples": setups}


def measure_traced(wl, seconds):
    """Traced run: one traced call on world 0 between untraced calls on the
    same world; they must give identical output."""
    from tracing import Tracer
    deadline = time.perf_counter() + seconds
    world = wl.world_seed(0)
    untraced = [wl.call(world)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = wl.call(world)
    finally:
        tracer.restore()
    while len(untraced) < 2 or \
            time.perf_counter() + wl.calls[-1]["seconds"] < deadline:
        untraced.append(wl.call(world))
    wl.check_repeats()
    if tracer.missing:
        wl.problems.append(f"entry points not found: {tracer.missing}")
    metrics, shares = tracer.summary()
    first = wl.calls[0]["outcomes"] or {}
    for name, unit in OUTCOME_UNITS.items():
        metrics[f"metrics.{name}"] = (first.get(name), unit)
    metrics["trace.overhead_ratio"] = (traced / statistics.median(untraced), "ratio")
    tracer.save(os.path.join(OUT_DIR, f"{wl.name}.spans.npz"))
    return metrics, {"layer_self_share": shares, "spans": len(tracer.start)}


# -------------------------------------------------------------- provenance

def git_commit():
    """HEAD of the checkout's .git, read as files so nothing outside is read."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads():
    """OpenBLAS's own thread count, when numpy links the scipy-openblas build."""
    import ctypes
    import glob
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads"):
                fn = getattr(dll, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
        except OSError:
            continue
    return None


def provenance():
    import numpy
    try:
        build = numpy.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):   # numpy < 1.26 has no dict mode
        build = {}
    blas = build.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 "env": {k: os.environ.get(k) for k in (
                     "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


# ------------------------------------------------------------ entry points

def run_one(args):
    import_oransim()
    from oransim.cli import config_fingerprints
    wl = Workload(args.workload, args.seed)
    print(f"workload {wl.name}: seed {wl.seed}, {wl.cfg.runs} run(s) x "
          f"{wl.cfg.ttis} TTIs, mode {wl.cfg.mode}, trace {args.trace}",
          flush=True)
    if args.trace:
        metrics, details = measure_traced(wl, args.seconds)
    else:
        metrics, details = measure(wl, args.seconds)
    wl.problems.extend(f"metric {n} has no value"
                       for n, (v, _) in metrics.items() if v is None)
    full, comparable = config_fingerprints(wl.cfg)
    first = wl.calls[0]
    record = {
        "workload": wl.name, "seed": wl.seed, "trace": args.trace,
        "seconds": args.seconds, "config_fingerprints": [full, comparable],
        "problems": wl.problems,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "details": details, "calls": wl.calls, "host": provenance(),
    }
    with open(os.path.join(OUT_DIR, f"{wl.name}.trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"config fingerprints {full} {comparable}")
    print(f"world {first['world']}: aggregate sha256 {first['aggregate_sha256']}, "
          f"outcomes {json.dumps(first['outcomes'])}")
    for problem in wl.problems:
        print(f"PROBLEM: {problem}")
    result = {"correct": not wl.problems, "attempted": wl.attempted,
              "failed": wl.failed,
              "metrics": {n: {"value": v, "unit": u}
                          for n, (v, u) in metrics.items() if v is not None}}
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in a fresh child process, untraced then traced."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace {trace}: exit {proc.returncode}\n"
                      f"{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"{workload} trace {trace}: correct {result['correct']}, "
                  f"runs {result['attempted']}, failed {result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:40} {m['value']:>16.6g} {m['unit']}")
            for line in lines[:-1]:
                if line.startswith("PROBLEM"):
                    print(f"  {line}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload; omit to run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
