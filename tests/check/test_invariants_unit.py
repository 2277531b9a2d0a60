"""Unit tests: every invariant in the catalog can actually fire.

Each test drives one :class:`InvariantChecker` hook with a minimal fake
object graph shaped like the simulator structures the hook reads, and
asserts both directions: the healthy transition passes, the corrupt one
raises with the right catalog name.
"""

import pytest

from repro.check import invariants
from repro.check.invariants import InvariantChecker, InvariantViolation
from repro.core.sampling_frequency import SamplingFrequency


class FakeSim:
    def __init__(self, now=123.0):
        self._now = now


class FakePort:
    def __init__(self, name="sw.p0"):
        self.name = name
        self.sim = FakeSim()
        self.queue_bytes = 0.0


class FakePkt:
    def __init__(self, size=1000, control=False):
        self.size = size
        self.is_control = control

    def __repr__(self):
        return f"<fakepkt {self.size}B control={self.is_control}>"


def enqueue(chk, port, pkt, charge=None):
    """Mimic the real hook site: charge queue_bytes, then call the hook."""
    port.queue_bytes += pkt.size if charge is None else charge
    chk.on_enqueue(port, pkt, port.sim._now)


def dequeue(chk, port, pkt, release=None):
    port.queue_bytes -= pkt.size if release is None else release
    chk.on_dequeue(port, pkt, port.sim._now, 0.0, False)


def expect(invariant):
    return pytest.raises(InvariantViolation, match=rf"\[{invariant}\]")


class TestEventTime:
    def test_monotonic_ok(self):
        chk = InvariantChecker()
        chk.on_event(10.0, 10.0)
        chk.on_event(11.0, 10.0)
        assert chk.checks["event-time-monotonic"] == 2

    def test_past_event_fails(self):
        chk = InvariantChecker()
        with expect("event-time-monotonic"):
            chk.on_event(5.0, 10.0)


class TestQueueAccounting:
    def test_balanced_enqueue_dequeue_ok(self):
        chk = InvariantChecker()
        port, pkt = FakePort(), FakePkt()
        enqueue(chk, port, pkt)
        dequeue(chk, port, pkt)
        assert port.queue_bytes == 0.0
        assert chk.checks["queue-conservation"] == 2

    def test_undercharged_enqueue_fails(self):
        chk = InvariantChecker()
        port = FakePort()
        enqueue(chk, port, FakePkt(1000))  # adopt the port
        with expect("queue-conservation"):
            enqueue(chk, port, FakePkt(1000), charge=500)

    def test_overreleased_dequeue_fails(self):
        chk = InvariantChecker()
        port, pkt = FakePort(), FakePkt(1000)
        enqueue(chk, port, pkt)
        with expect("queue-conservation"):
            dequeue(chk, port, pkt, release=500)

    def test_negative_queue_bytes_fails(self):
        chk = InvariantChecker()
        port = FakePort()
        port.queue_bytes = -1.0
        with expect("queue-bytes-nonneg"):
            chk.on_dequeue(port, FakePkt(), 123.0, 0.0, False)

    def test_lazy_adoption_of_preexisting_occupancy(self):
        # A port first seen mid-stream with bytes already queued: the shadow
        # tally adopts the simulator's view instead of flagging history it
        # never observed.
        chk = InvariantChecker()
        port = FakePort()
        port.queue_bytes = 5000.0
        enqueue(chk, port, FakePkt(1000))
        assert port.queue_bytes == 6000.0


class TestFifoOrder:
    def test_in_order_ok(self):
        chk = InvariantChecker()
        port = FakePort()
        a, b = FakePkt(), FakePkt()
        enqueue(chk, port, a)
        enqueue(chk, port, b)
        dequeue(chk, port, a)
        dequeue(chk, port, b)
        assert chk.checks["fifo-order"] == 2

    def test_out_of_order_fails(self):
        chk = InvariantChecker()
        port = FakePort()
        a, b = FakePkt(), FakePkt()
        enqueue(chk, port, a)
        enqueue(chk, port, b)
        with expect("fifo-order"):
            dequeue(chk, port, b)

    def test_unstamped_packet_skipped(self):
        # A packet enqueued before the checker existed dequeues unjudged.
        chk = InvariantChecker()
        port = FakePort()
        port.queue_bytes = 1000.0
        chk.on_dequeue(port, FakePkt(1000), 123.0, 0.0, False)
        assert "fifo-order" not in chk.checks

    def test_control_frames_exempt(self):
        # PFC frames jump the queue (appendleft) by design.
        chk = InvariantChecker()
        port = FakePort()
        data, ctrl = FakePkt(), FakePkt(size=64, control=True)
        enqueue(chk, port, data)
        enqueue(chk, port, ctrl)
        dequeue(chk, port, ctrl)  # ahead of data: fine
        dequeue(chk, port, data)
        assert chk.checks["fifo-order"] == 1


class _FakePfcIngress:
    def __init__(self, paused):
        self.paused_upstream = paused


class _FakeIngressPort:
    def __init__(self, paused):
        self.pfc_ingress = _FakePfcIngress(paused)


class TestPfc:
    def test_drop_while_paused_fails(self):
        chk = InvariantChecker()
        with expect("pfc-lossless"):
            chk.on_drop(FakePort(), FakePkt(), _FakeIngressPort(True), "tail")

    def test_drop_while_unpaused_ok(self):
        chk = InvariantChecker()
        chk.on_drop(FakePort(), FakePkt(), _FakeIngressPort(False), "tail")
        chk.on_drop(FakePort(), FakePkt(), None, "fault")  # host NIC: no PFC
        assert chk.checks["pfc-lossless"] == 2

    def test_negative_occupancy_fails(self):
        chk = InvariantChecker()
        chk.on_pfc_occupancy(0.0)
        with expect("pfc-occupancy"):
            chk.on_pfc_occupancy(-48.0)


class _FakeFlow:
    def __init__(self, size=10_000, flow_id=0):
        self.size = size
        self.flow_id = flow_id


class _FakeSender:
    def __init__(self, size=10_000):
        self.flow = _FakeFlow(size)
        self.next_seq = 0
        self.acked = 0
        self.received = 0


class _FakeAck:
    def __init__(self, seq):
        self.seq = seq


class _FakeData:
    def __init__(self, seq, payload):
        self.seq = seq
        self.payload = payload

    def end_seq(self):
        return self.seq + self.payload


class TestGoBackN:
    def test_send_past_flow_end_fails(self):
        chk = InvariantChecker()
        state = _FakeSender(size=5000)
        state.next_seq = 6000
        with expect("gbn-sequence"):
            chk.on_send(state, None, 0.0)

    def test_ack_beyond_bytes_sent_fails(self):
        chk = InvariantChecker()
        state = _FakeSender()
        state.next_seq = 2000
        chk.on_send(state, None, 0.0)  # high-water mark: 2000
        with expect("gbn-sequence"):
            chk.on_ack(state, _FakeAck(3000), 0.0)

    def test_ack_after_gbn_rewind_ok(self):
        # The subtlety the checker must get right: a timeout rewinds
        # next_seq, but ACKs for pre-rewind bytes are still in flight and
        # legitimate — the bound is the high-water mark, not next_seq.
        chk = InvariantChecker()
        state = _FakeSender()
        state.next_seq = 4000
        chk.on_send(state, None, 0.0)
        state.next_seq = 1000  # go-back-N rewind
        state.acked = 3000
        chk.on_ack(state, _FakeAck(3000), 0.0)  # > next_seq, <= high water: fine

    def test_cumulative_ack_beyond_size_fails(self):
        chk = InvariantChecker()
        state = _FakeSender(size=5000)
        state.next_seq = 5000
        chk.on_send(state, None, 0.0)
        state.acked = 6000
        with expect("gbn-sequence"):
            chk.on_ack(state, _FakeAck(5000), 0.0)

    def test_receiver_edge_beyond_size_fails(self):
        chk = InvariantChecker()
        state = _FakeSender(size=5000)
        state.received = 6000
        with expect("gbn-sequence"):
            chk.on_data(state, _FakeData(3000, 1000))

    def test_data_past_flow_end_fails(self):
        chk = InvariantChecker()
        state = _FakeSender(size=5000)
        with expect("gbn-sequence"):
            chk.on_data(state, _FakeData(4500, 1000))


class _FakeVaiConfig:
    def __init__(self, bank_cap=8.0):
        self.bank_cap = bank_cap


class _FakeVai:
    def __init__(self, bank=0.0, dampener=0.0, bank_cap=8.0):
        self.config = _FakeVaiConfig(bank_cap)
        self.ai_bank = bank
        self.dampener = dampener


class TestVaiBounds:
    def test_in_bounds_ok(self):
        chk = InvariantChecker()
        chk.on_vai(_FakeVai(bank=3.0, dampener=1.0), None, 0.0, None)
        chk.on_vai(_FakeVai(), None, 0.0, 2.5)
        assert chk.checks["vai-bounds"] == 2

    def test_negative_bank_fails(self):
        chk = InvariantChecker()
        with expect("vai-bounds"):
            chk.on_vai(_FakeVai(bank=-0.5), None, 0.0, None)

    def test_bank_over_cap_fails(self):
        chk = InvariantChecker()
        with expect("vai-bounds"):
            chk.on_vai(_FakeVai(bank=9.0, bank_cap=8.0), None, 0.0, None)

    def test_negative_dampener_fails(self):
        chk = InvariantChecker()
        with expect("vai-bounds"):
            chk.on_vai(_FakeVai(dampener=-1.0), None, 0.0, None)

    def test_sub_unit_multiplier_fails(self):
        chk = InvariantChecker()
        with expect("vai-bounds"):
            chk.on_vai(_FakeVai(), None, 0.0, 0.5)


class _FakeSf:
    def __init__(self, interval_acks=3):
        self.interval_acks = interval_acks


class TestSfCadence:
    def test_exact_cadence_ok(self):
        chk = InvariantChecker()
        sf = _FakeSf(interval_acks=3)
        for _ in range(2):
            chk.on_sf_ack(sf, False)
            chk.on_sf_ack(sf, False)
            chk.on_sf_ack(sf, True)
        assert chk.checks["sf-cadence"] == 6

    def test_early_grant_fails(self):
        chk = InvariantChecker()
        sf = _FakeSf(interval_acks=3)
        chk.on_sf_ack(sf, False)
        with expect("sf-cadence"):
            chk.on_sf_ack(sf, True)

    def test_withheld_grant_fails(self):
        chk = InvariantChecker()
        sf = _FakeSf(interval_acks=2)
        chk.on_sf_ack(sf, False)
        with expect("sf-cadence"):
            chk.on_sf_ack(sf, False)

    def test_reset_restarts_the_count(self):
        chk = InvariantChecker()
        sf = _FakeSf(interval_acks=2)
        chk.on_sf_ack(sf, False)
        chk.on_sf_reset(sf)
        chk.on_sf_ack(sf, False)  # count restarted: no grant due yet
        chk.on_sf_ack(sf, True)

    def test_real_sampling_frequency_is_clean(self):
        # The actual implementation, hook sites included, satisfies the
        # cadence check over several periods and a mid-stream reset.
        with invariants.capture() as chk:
            sf = SamplingFrequency(interval_acks=3)
            grants = [sf.on_ack() for _ in range(9)]
            sf.reset()
            grants += [sf.on_ack() for _ in range(3)]
        assert grants.count(True) == 4
        assert chk.checks["sf-cadence"] == 12


class _FakeSwitch:
    def __init__(self, name="sw"):
        self.name = name
        self.sim = FakeSim()


class _FakeEgress:
    def __init__(self, owner, name="sw.p0"):
        self.owner = owner
        self.name = name


class TestSwitchForward:
    def test_own_port_ok(self):
        chk = InvariantChecker()
        sw = _FakeSwitch()
        chk.on_switch_forward(sw, FakePkt(), _FakeEgress(sw))

    def test_foreign_port_fails(self):
        chk = InvariantChecker()
        sw, other = _FakeSwitch("sw0"), _FakeSwitch("sw1")
        with expect("switch-forward"):
            chk.on_switch_forward(sw, FakePkt(), _FakeEgress(other, "sw1.p0"))

    def test_routed_control_frame_fails(self):
        chk = InvariantChecker()
        sw = _FakeSwitch()
        with expect("switch-forward"):
            chk.on_switch_forward(sw, FakePkt(control=True), _FakeEgress(sw))


class TestViolationAndLifecycle:
    def test_violation_carries_replay_context(self):
        chk = InvariantChecker()
        chk.begin_run(config="4-1 incast", cache_key="abcd1234", seed=7)
        with pytest.raises(InvariantViolation) as info:
            chk.on_event(1.0, 2.0)
        exc = info.value
        assert exc.invariant == "event-time-monotonic"
        assert exc.time_ns == 2.0
        assert exc.context == {
            "config": "4-1 incast", "cache_key": "abcd1234", "seed": 7,
        }
        text = str(exc)
        assert "replay:" in text and "seed=7" in text and "at t=2.0ns" in text

    def test_begin_run_resets_shadow_state(self):
        chk = InvariantChecker()
        port = FakePort()
        enqueue(chk, port, FakePkt())
        sf = _FakeSf(interval_acks=5)
        chk.on_sf_ack(sf, False)
        chk.begin_run(config="next")
        assert chk._port_tally == {}
        assert chk._port_fifo == {}
        assert chk._sf_counts == {}

    def test_enable_disable_and_capture(self):
        assert invariants.get() is None
        chk = invariants.enable()
        try:
            assert invariants.enabled() and invariants.get() is chk
        finally:
            invariants.disable()
        assert not invariants.enabled()
        with invariants.capture() as inner:
            assert invariants.get() is inner
        assert invariants.get() is None

    def test_summary_counts_checks(self):
        chk = InvariantChecker()
        chk.on_event(1.0, 0.0)
        chk.on_pfc_occupancy(10.0)
        assert chk.total_checks() == 2
        assert "2 checks across 2 invariant(s), 0 violations" == chk.summary()
