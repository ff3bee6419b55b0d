"""QCI-classed downlink traffic: arrivals, RLC queues, HoL aging, expiry.

Three traffic classes are built in (live video, AR, V2X), each with the
standard QCI priority and packet delay budget. A flow is URLLC when its
delay budget is at most 20 ms, which covers AR and V2X but not video.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

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


@dataclass
class Packet:
    size_bits: int
    arrival_tti: int
    remaining_bits: int = field(default=-1)

    def __post_init__(self):
        if self.remaining_bits < 0:
            self.remaining_bits = self.size_bits
        if not (0 <= self.remaining_bits <= self.size_bits):
            raise ValueError("remaining outside [0, size]")

    def age_ms(self, now_tti, tti_ms=1.0):
        return (now_tti - self.arrival_tti) * tti_ms


class RlcQueue:
    """FIFO of packets for one UE, with HoL aging against a delay budget.

    Arrival TTIs never decrease along the queue (`push` enforces it), so
    packet ages never increase from head to tail and the expired packets
    are always a head prefix. The queued totals are running counters.
    """

    def __init__(self, flow: FlowSpec, tti_ms=1.0):
        self.flow = flow
        self.tti_ms = tti_ms
        self._packets: deque[Packet] = deque()
        self._queued_bits = 0
        self._queued_remaining_bits = 0

    def __len__(self):
        return len(self._packets)

    def __iter__(self):
        return iter(self._packets)

    @property
    def queued_bits(self):
        return self._queued_bits

    @property
    def queued_remaining_bits(self):
        return self._queued_remaining_bits

    def hol_delay_ms(self, now_tti, extra_ms=0.0):
        """Effective age of the head packet; 0 for an empty queue."""
        if not self._packets:
            return 0.0
        return self._packets[0].age_ms(now_tti, self.tti_ms) + extra_ms

    def push(self, packet: Packet):
        if self._packets and packet.arrival_tti < self._packets[-1].arrival_tti:
            raise ValueError(
                f"packet from TTI {packet.arrival_tti} behind the tail's "
                f"TTI {self._packets[-1].arrival_tti}")
        self._packets.append(packet)
        self._queued_bits += packet.size_bits
        self._queued_remaining_bits += packet.remaining_bits

    def arrival_rate(self, rate_scale=1.0):
        """Mean packet arrivals per TTI at the flow's mean bit rate."""
        return (self.flow.mean_rate_bps * self.tti_ms / 1000.0
                / self.flow.packet_size_bits) * rate_scale

    def generate_arrivals(self, now_tti, count):
        """Queue `count` fresh packets, a Poisson draw at `arrival_rate`."""
        fresh = [Packet(self.flow.packet_size_bits, now_tti)
                 for _ in range(count)]
        for p in fresh:
            self.push(p)
        return fresh

    def drop_expired(self, now_tti, extra_ms=0.0):
        """Remove packets strictly older than the budget; keeps FIFO order.

        `extra_ms` is the placement-dependent processing delay added to
        every packet's effective age. The expired packets are a head
        prefix, so this pops from the head until a packet is in budget.
        """
        budget = self.flow.delay_budget_ms
        packets = self._packets
        dropped = []
        while packets and (packets[0].age_ms(now_tti, self.tti_ms) + extra_ms
                           > budget):
            p = packets.popleft()
            self._queued_bits -= p.size_bits
            self._queued_remaining_bits -= p.remaining_bits
            dropped.append(p)
        return dropped

    def serve(self, budget_bits, now_tti, extra_ms=0.0):
        """Drain head-of-line packets with `budget_bits` of capacity.

        Partial service decrements a packet's remaining bits. A packet
        that completes within its (effective) budget counts as delivered;
        one that completes late is removed but reported as expired.
        Returns (delivered, expired).
        """
        delivered = []
        expired = []
        budget = int(budget_bits)
        if budget < 0:
            raise ValueError("negative service budget")
        while budget > 0 and self._packets:
            head = self._packets[0]
            take = min(head.remaining_bits, budget)
            head.remaining_bits -= take
            self._queued_remaining_bits -= take
            budget -= take
            if head.remaining_bits == 0:
                self._packets.popleft()
                self._queued_bits -= head.size_bits
                age = head.age_ms(now_tti, self.tti_ms) + extra_ms
                if age <= self.flow.delay_budget_ms:
                    delivered.append(head)
                else:
                    expired.append(head)
        return delivered, expired
