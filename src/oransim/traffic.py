"""QCI-classed downlink traffic: arrivals, RLC queues, HoL aging, expiry.

Three traffic classes are built in (live video, AR, V2X), each with the
standard QCI priority and packet delay budget. A flow is URLLC when its
delay budget is at most 20 ms, which covers AR and V2X but not video.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

URLLC_BUDGET_THRESHOLD_MS = 20.0


@dataclass(frozen=True)
class FlowSpec:
    priority: int               # lower number = more important
    delay_budget_ms: float
    mean_rate_bps: float
    packet_size_bits: int
    label: str                  # the traffic class name

    def __post_init__(self):
        if self.delay_budget_ms <= 0:
            raise ValueError("delay budget must be positive")
        if self.mean_rate_bps < 0 or self.packet_size_bits <= 0:
            raise ValueError("bad rate or packet size")

    @property
    def is_urllc(self):
        return self.delay_budget_ms <= URLLC_BUDGET_THRESHOLD_MS


# QCI table rows used by the scenarios: class name -> (priority, budget)
TRAFFIC_CLASSES = {
    "video": dict(priority=40, delay_budget_ms=150.0),
    "ar": dict(priority=68, delay_budget_ms=10.0),
    "v2x": dict(priority=25, delay_budget_ms=20.0),
}

CLASS_ORDER = ("video", "ar", "v2x")


def make_flow(class_name, mean_rate_bps, packet_size_bits=1000):
    spec = TRAFFIC_CLASSES[class_name]
    return FlowSpec(mean_rate_bps=mean_rate_bps,
                    packet_size_bits=packet_size_bits, label=class_name, **spec)


class RlcQueue:
    """FIFO of packets for one UE, with HoL aging against a delay budget.

    Every packet of a flow has the flow's size and only the head is ever
    part-served, so the queue holds its packets' arrival TTIs, head first,
    and the bits of the head already sent. Arrival TTIs never decrease
    along the queue (`generate_arrivals` enforces it), so packet ages never
    increase from head to tail and the expired packets are always a head
    prefix.
    """

    def __init__(self, flow: FlowSpec, tti_ms=1.0):
        self.flow = flow
        self.tti_ms = tti_ms
        self._arrivals: deque[int] = deque()
        self._head_sent = 0

    def __len__(self):
        return len(self._arrivals)

    def __iter__(self):
        """The queued packets' arrival TTIs, head first."""
        return iter(self._arrivals)

    @property
    def queued_bits(self):
        return len(self._arrivals) * self.flow.packet_size_bits

    @property
    def queued_remaining_bits(self):
        return self.queued_bits - self._head_sent

    def hol_delay_ms(self, now_tti, extra_ms=0.0):
        """Effective age of the head packet; 0 for an empty queue."""
        if not self._arrivals:
            return 0.0
        return (now_tti - self._arrivals[0]) * self.tti_ms + extra_ms

    def arrival_rate(self, rate_scale=1.0):
        """Mean packet arrivals per TTI at the flow's mean bit rate."""
        return (self.flow.mean_rate_bps * self.tti_ms / 1000.0
                / self.flow.packet_size_bits) * rate_scale

    def generate_arrivals(self, now_tti, count):
        """Queue `count` fresh packets, a Poisson draw at `arrival_rate`."""
        if count > 0 and self._arrivals and now_tti < self._arrivals[-1]:
            raise ValueError(
                f"packets from TTI {now_tti} behind the tail's "
                f"TTI {self._arrivals[-1]}")
        self._arrivals.extend([now_tti] * count)

    def drop_expired(self, now_tti, extra_ms=0.0):
        """Remove packets strictly older than the budget; keeps FIFO order.

        `extra_ms` is the placement-dependent processing delay added to
        every packet's effective age. The expired packets are a head
        prefix, so this pops from the head until a packet is in budget.
        Returns the number dropped.
        """
        budget = self.flow.delay_budget_ms
        arrivals = self._arrivals
        dropped = 0
        while arrivals and ((now_tti - arrivals[0]) * self.tti_ms + extra_ms
                            > budget):
            arrivals.popleft()
            dropped += 1
        if dropped:
            self._head_sent = 0
        return dropped

    def serve(self, budget_bits, now_tti, extra_ms=0.0):
        """Drain head-of-line packets with `budget_bits` of capacity.

        Partial service adds to the head's sent bits. A packet that
        completes within its (effective) budget counts as delivered; one
        that completes late is removed but reported as expired. Returns
        (the delivered packets' effective ages, the expired count).
        """
        budget = int(budget_bits)
        if budget < 0:
            raise ValueError("negative service budget")
        size = self.flow.packet_size_bits
        limit = self.flow.delay_budget_ms
        arrivals = self._arrivals
        ages = []
        expired = 0
        sent = self._head_sent + budget
        while arrivals and sent >= size:
            sent -= size
            age = (now_tti - arrivals.popleft()) * self.tti_ms + extra_ms
            if age <= limit:
                ages.append(age)
            else:
                expired += 1
        self._head_sent = sent if arrivals else 0
        return ages, expired
