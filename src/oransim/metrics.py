"""Per-run metric accounting: HoL delay, delivery counts, throughput and
placement ratios, bucketed into fixed TTI windows."""

from __future__ import annotations

from dataclasses import dataclass

from .placement import relocation_ratio
from .traffic import CLASS_ORDER

CSV_HEADER = ("window_start_tti", "class", "mode", "mean_hol_ms", "pdr",
              "throughput_kbps", "du_ratio", "cu_ratio")
METRIC_COLUMNS = CSV_HEADER[3:]   # the numeric, possibly absent, columns


@dataclass
class ClassWindowStats:
    arrived: int = 0
    delivered: int = 0
    dropped: int = 0
    delivered_bits: int = 0
    hol_sum_ms: float = 0.0


@dataclass
class ClassTotals:
    arrived_packets: int = 0
    arrived_bits: int = 0
    delivered_packets: int = 0
    delivered_bits: int = 0
    dropped_packets: int = 0
    dropped_bits: int = 0


class MetricsLedger:
    """Counters per (window, traffic class) plus the placement event log."""

    def __init__(self, window_ttis=100, tti_ms=1.0):
        if window_ttis < 1:
            raise ValueError("window must be >= 1 TTI")
        self.window_ttis = window_ttis
        self.tti_ms = tti_ms
        self.windows: dict[tuple[int, str], ClassWindowStats] = {}
        self.totals: dict[str, ClassTotals] = {}
        self.placement_events = []

    def _window(self, tti, cls):
        key = (tti // self.window_ttis, cls)
        if key not in self.windows:
            self.windows[key] = ClassWindowStats()
        return self.windows[key]

    def _total(self, cls):
        if cls not in self.totals:
            self.totals[cls] = ClassTotals()
        return self.totals[cls]

    def record_arrivals(self, tti, cls, n_packets, bits):
        if n_packets == 0:
            return
        self._window(tti, cls).arrived += n_packets
        t = self._total(cls)
        t.arrived_packets += n_packets
        t.arrived_bits += bits

    def record_delivery(self, tti, cls, bits, age_ms):
        w = self._window(tti, cls)
        w.delivered += 1
        w.delivered_bits += bits
        w.hol_sum_ms += age_ms
        t = self._total(cls)
        t.delivered_packets += 1
        t.delivered_bits += bits

    def record_drop(self, tti, cls, n_packets, bits):
        if n_packets == 0:
            return
        self._window(tti, cls).dropped += n_packets
        t = self._total(cls)
        t.dropped_packets += n_packets
        t.dropped_bits += bits

    def record_placements(self, events):
        self.placement_events.extend(events)

    # -------------------------------------------------------------- queries

    def classes(self):
        return [c for c in CLASS_ORDER if c in self.totals]

    def _stats_in_range(self, cls, tti_range):
        """Sum of window stats whose window starts inside [start, end)."""
        agg = ClassWindowStats()
        for (w, c), s in self.windows.items():
            if c != cls:
                continue
            start = w * self.window_ttis
            if not (tti_range[0] <= start < tti_range[1]):
                continue
            agg.arrived += s.arrived
            agg.delivered += s.delivered
            agg.dropped += s.dropped
            agg.delivered_bits += s.delivered_bits
            agg.hol_sum_ms += s.hol_sum_ms
        return agg

    def pdr(self, cls, tti_range):
        """delivered / (delivered + dropped); None when nothing arrived or
        nothing was decided in the range."""
        s = self._stats_in_range(cls, tti_range)
        decided = s.delivered + s.dropped
        if s.arrived == 0 or decided == 0:
            return None
        return s.delivered / decided

    def mean_hol_ms(self, cls, tti_range):
        """Mean effective HoL age at delivery; None without deliveries."""
        s = self._stats_in_range(cls, tti_range)
        if s.delivered == 0:
            return None
        return s.hol_sum_ms / s.delivered

    def throughput_kbps(self, cls, tti_range):
        """Delivered kbps over the TTI range [start, end)."""
        s = self._stats_in_range(cls, tti_range)
        duration_ttis = tti_range[1] - tti_range[0]
        if duration_ttis <= 0:
            return 0.0
        return s.delivered_bits / (duration_ttis * self.tti_ms)  # bits/ms == kbps

    def state_dict(self):
        """Plain-data view used for exact run-equivalence comparisons."""
        return {
            "windows": {f"{w}/{c}": vars(s).copy()
                        for (w, c), s in sorted(self.windows.items())},
            "totals": {c: vars(t).copy() for c, t in sorted(self.totals.items())},
            "placements": [(e.tti, e.du_id, e.location, e.urllc_share)
                           for e in self.placement_events],
        }

    def __eq__(self, other):
        if not isinstance(other, MetricsLedger):
            return NotImplemented
        return self.state_dict() == other.state_dict()


def ledger_rows(ledger: MetricsLedger, mode, ttis):
    """Time-series rows in CSV column order, sorted by (window, class): one
    per class seen in the run for every window of its `ttis` TTIs, with or
    without data.

    The du/cu columns carry the window's placement-count split, shared by
    every class row.
    """
    rows = []
    classes = ledger.classes()
    for w in range(-(-ttis // ledger.window_ttis)):
        rng = (w * ledger.window_ttis, (w + 1) * ledger.window_ttis)
        ratio = relocation_ratio(ledger.placement_events, rng)
        for cls in classes:
            rows.append({
                "window_start_tti": rng[0],
                "class": cls,
                "mode": mode,
                "mean_hol_ms": ledger.mean_hol_ms(cls, rng),
                "pdr": ledger.pdr(cls, rng),
                "throughput_kbps": ledger.throughput_kbps(cls, rng),
                "du_ratio": None if ratio is None else ratio[0],
                "cu_ratio": None if ratio is None else ratio[1],
            })
    return rows


def aggregate_rows(all_rows):
    """Mean across runs per (window, class); absent values are skipped."""
    by_key = {}
    order = []
    for rows in all_rows:
        for r in rows:
            key = (r["window_start_tti"], r["class"])
            if key not in by_key:
                by_key[key] = []
                order.append(key)
            by_key[key].append(r)
    out = []
    for key in sorted(order):
        group = by_key[key]
        agg = {"window_start_tti": key[0], "class": key[1],
               "mode": group[0]["mode"]}
        for col in METRIC_COLUMNS:
            vals = [r[col] for r in group if r[col] is not None]
            agg[col] = sum(vals) / len(vals) if vals else None
        out.append(agg)
    return out


def tail_summary(ledgers, tail):
    """Across-run means of pdr, mean HoL ("hol") and throughput ("thpt")
    per class over the TTI range `tail`; a mean over no values is None."""
    classes = [c for c in CLASS_ORDER if any(c in led.totals for led in ledgers)]
    out = {}
    for cls in classes:
        vals = {"pdr": [], "hol": [], "thpt": []}
        for led in ledgers:
            p = led.pdr(cls, tail)
            h = led.mean_hol_ms(cls, tail)
            if p is not None:
                vals["pdr"].append(p)
            if h is not None:
                vals["hol"].append(h)
            vals["thpt"].append(led.throughput_kbps(cls, tail))
        out[cls] = {k: (sum(v) / len(v) if v else None)
                    for k, v in vals.items()}
    return out
