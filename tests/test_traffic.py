import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oransim.traffic import (
    CLASS_ORDER,
    TRAFFIC_CLASSES,
    FlowSpec,
    RlcQueue,
    make_flow,
)


def queue_for(class_name="video", rate=256_000.0, packet_bits=1000):
    return RlcQueue(make_flow(class_name, rate, packet_bits))


# ------------------------------------------------------------------ classes

def test_traffic_class_table():
    assert TRAFFIC_CLASSES["video"]["priority"] == 40
    assert TRAFFIC_CLASSES["video"]["delay_budget_ms"] == 150.0
    assert TRAFFIC_CLASSES["ar"]["priority"] == 68
    assert TRAFFIC_CLASSES["ar"]["delay_budget_ms"] == 10.0
    assert TRAFFIC_CLASSES["v2x"]["priority"] == 25
    assert TRAFFIC_CLASSES["v2x"]["delay_budget_ms"] == 20.0


def test_urllc_classification_follows_budget():
    assert not make_flow("video", 1.0).is_urllc
    assert make_flow("ar", 1.0).is_urllc
    assert make_flow("v2x", 1.0).is_urllc


def test_flow_carries_its_class_name():
    for name in CLASS_ORDER:
        assert make_flow(name, 1.0).label == name
    with pytest.raises(KeyError):
        make_flow("unknown", 1.0)


def test_flow_validation():
    with pytest.raises(ValueError):
        FlowSpec(priority=1, delay_budget_ms=0.0,
                 mean_rate_bps=1.0, packet_size_bits=100, label="x")


# ----------------------------------------------------------------- arrivals

def arrive(q, t, rng):
    """One TTI's arrivals, drawn at the queue's arrival rate; the count."""
    n = int(rng.poisson(q.arrival_rate()))
    q.generate_arrivals(t, n)
    return n


def test_zero_rate_never_generates():
    q = queue_for(rate=0.0)
    rng = np.random.default_rng(0)
    assert q.arrival_rate() == 0.0
    for t in range(1000):
        assert arrive(q, t, rng) == 0
    assert len(q) == 0


def test_long_run_arrival_rate_within_two_percent():
    rate = 256_000.0
    q = queue_for(rate=rate)
    rng = np.random.default_rng(42)
    ttis = 100_000
    for t in range(ttis):
        arrive(q, t, rng)
    realized_bps = q.queued_bits / (ttis * 1e-3)
    assert realized_bps == pytest.approx(rate, rel=0.02)


@pytest.mark.parametrize("lams", [[0.256] * 7, [12.5] * 3,
                                  [0.256, 12.5, 1e-3, 3.0, 40.0, 9.99, 10.0]])
def test_one_vector_draw_equals_per_queue_draws(lams):
    vector = np.random.default_rng(5)
    scalar = np.random.default_rng(5)
    for _ in range(200):
        drawn = vector.poisson(np.array(lams))
        assert drawn.tolist() == [int(scalar.poisson(lam)) for lam in lams]
    assert vector.random() == scalar.random()


def test_arrivals_take_the_drawn_count():
    q = queue_for("ar", rate=256_000.0)
    assert q.arrival_rate() == 256_000.0 * 1.0 / 1000.0 / 1000
    assert q.arrival_rate(0.5) == q.arrival_rate() * 0.5
    q.generate_arrivals(4, 3)
    assert len(q) == 3
    assert list(q) == [4, 4, 4]
    assert q.queued_bits == q.queued_remaining_bits == 3000
    q.generate_arrivals(5, 0)
    assert list(q) == [4, 4, 4]


def test_same_seed_same_arrival_sequence():
    def run():
        q = queue_for()
        rng = np.random.default_rng(7)
        counts = []
        for t in range(500):
            counts.append(arrive(q, t, rng))
        return counts, list(q)

    assert run() == run()


def test_generate_arrivals_behind_the_tail_raises_and_leaves_the_queue():
    q = queue_for("ar")
    q.generate_arrivals(5, 1)
    q.generate_arrivals(5, 1)   # equal TTIs are fine
    q.serve(300, now_tti=5)
    with pytest.raises(ValueError):
        q.generate_arrivals(4, 2)
    assert list(q) == [5, 5]
    assert q.queued_bits == 2000 and q.queued_remaining_bits == 1700
    q.generate_arrivals(4, 0)   # a zero count stays a no-op
    assert list(q) == [5, 5]


# ------------------------------------------------------------------- expiry

def test_drop_on_empty_queue():
    assert queue_for().drop_expired(100) == 0


def test_packet_aged_exactly_budget_is_retained():
    q = queue_for("ar")  # 10 ms budget
    q.generate_arrivals(0, 1)
    assert q.drop_expired(now_tti=10) == 0
    assert len(q) == 1


def test_packet_one_tti_over_budget_is_dropped():
    q = queue_for("ar")
    q.generate_arrivals(0, 1)
    assert q.drop_expired(now_tti=11) == 1
    assert len(q) == 0


def test_drop_preserves_survivor_order():
    q = queue_for("ar")
    for t in (0, 5, 6):
        q.generate_arrivals(t, 1)
    assert q.drop_expired(now_tti=12) == 1
    assert list(q) == [5, 6]


def test_extra_delay_shifts_expiry():
    q = queue_for("ar")
    q.generate_arrivals(0, 1)
    assert q.drop_expired(now_tti=8, extra_ms=0.0) == 0
    assert q.drop_expired(now_tti=8, extra_ms=3.0) == 1  # 8 + 3 > 10


# -------------------------------------------------------------------- serve

def test_serve_with_ample_budget_empties_queue():
    q = queue_for("video")
    for t in range(3):
        q.generate_arrivals(t, 1)
    ages, expired = q.serve(10_000, now_tti=5)
    assert ages == [5.0, 4.0, 3.0] and expired == 0
    assert len(q) == 0 and q.queued_remaining_bits == 0


def test_serve_zero_budget_is_noop():
    q = queue_for("video")
    q.generate_arrivals(0, 1)
    assert q.serve(0, now_tti=1) == ([], 0)
    assert len(q) == 1
    assert q.queued_remaining_bits == 1000


def test_partial_service_across_two_calls():
    q = queue_for("video")
    q.generate_arrivals(0, 1)
    assert q.serve(600, now_tti=1) == ([], 0)
    assert len(q) == 1
    assert q.queued_remaining_bits == 400
    ages, _ = q.serve(600, now_tti=2)
    assert ages == [2.0] and len(q) == 0  # 200 bits of budget left unused
    assert q.queued_remaining_bits == 0


def test_completion_after_budget_counts_expired_not_delivered():
    q = queue_for("ar")
    q.generate_arrivals(0, 1)
    assert q.serve(1000, now_tti=11) == ([], 1)


def test_serve_respects_extra_delay_for_delivery():
    q = queue_for("ar")
    q.generate_arrivals(0, 1)
    assert q.serve(1000, now_tti=8, extra_ms=3.0) == ([], 1)  # 8 + 3 > 10


def test_hol_delay_tracks_head_and_extra():
    q = queue_for("video")
    assert q.hol_delay_ms(50) == 0.0
    q.generate_arrivals(10, 1)
    q.generate_arrivals(40, 1)
    assert q.hol_delay_ms(50) == 40.0
    assert q.hol_delay_ms(50, extra_ms=2.0) == 42.0
    q.serve(1000, now_tti=50)
    assert q.hol_delay_ms(50) == 10.0  # nonincreasing after head removal


# ------------------------------------------------------------- conservation

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_packets_conserved_under_random_workload(seed):
    rng = np.random.default_rng(seed)
    q = queue_for("ar", rate=2_000_000.0)
    arrived = delivered = dropped = 0
    for t in range(300):
        arrived += arrive(q, t, rng)
        ages, late = q.serve(int(rng.integers(0, 4000)), t)
        delivered += len(ages)
        dropped += late
        dropped += q.drop_expired(t)
        assert arrived == delivered + dropped + len(q)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_no_delivered_packet_over_budget(seed):
    rng = np.random.default_rng(seed)
    q = queue_for("ar", rate=1_500_000.0)
    budget = q.flow.delay_budget_ms
    for t in range(200):
        arrive(q, t, rng)
        before = list(q)
        ages, _ = q.serve(int(rng.integers(0, 3000)), t)
        served = before[:len(before) - len(q)]
        assert ages == [float(t - a) for a in served if t - a <= budget]
        assert all(age <= budget for age in ages)
        q.drop_expired(t)


# ------------------------------------------------------ per-packet reference

queue_ops = st.lists(st.one_of(
    st.tuples(st.just("arrive"), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.just("serve"), st.integers(0, 4), st.integers(0, 5000),
              st.sampled_from([0.0, 2.0])),
    st.tuples(st.just("drop"), st.integers(0, 4), st.sampled_from([0.0, 2.0,
                                                                   3.5])),
), max_size=60)


@settings(max_examples=150, deadline=None)
@given(queue_ops, st.sampled_from([1.0, 0.5]), st.integers(1, 3000))
def test_queue_matches_a_per_packet_model(ops, tti_ms, size):
    q = RlcQueue(make_flow("ar", 1.0, packet_size_bits=size), tti_ms)
    budget = q.flow.delay_budget_ms
    model = []   # one [arrival_tti, remaining_bits] per queued packet

    def age(packet, now, extra):
        return (now - packet[0]) * tti_ms + extra

    now = 0
    for op in ops:
        now += op[1]
        if op[0] == "arrive":
            q.generate_arrivals(now, op[2])
            model.extend([now, size] for _ in range(op[2]))
        elif op[0] == "serve":
            _, _, bits, extra = op
            ages, late = [], 0
            while bits > 0 and model:
                take = min(model[0][1], bits)
                model[0][1] -= take
                bits -= take
                if model[0][1] == 0:
                    a = age(model.pop(0), now, extra)
                    if a <= budget:
                        ages.append(a)
                    else:
                        late += 1
            assert q.serve(op[2], now, extra) == (ages, late)
        else:
            extra = op[2]
            kept = [p for p in model if age(p, now, extra) <= budget]
            assert q.drop_expired(now, extra) == len(model) - len(kept)
            model = kept
        assert len(q) == len(model)
        assert list(q) == [a for a, _ in model]
        assert q.queued_bits == size * len(model)
        assert q.queued_remaining_bits == sum(r for _, r in model)
        for extra in (0.0, 2.0):
            assert q.hol_delay_ms(now, extra) == (
                age(model[0], now, extra) if model else 0.0)
