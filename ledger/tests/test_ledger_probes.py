"""The synthetic ACK replay repeats exactly for a seed."""

import calibrate
import probes


def test_synthetic_acks_are_seed_deterministic():
    a = probes.synthetic_acks(7, hops=5, count=300)
    assert a == probes.synthetic_acks(7, hops=5, count=300)
    assert a != probes.synthetic_acks(8, hops=5, count=300)
    assert len(a) == 300 and len(a[0][3]) == 5
    times = [ack[0] for ack in a]
    assert times == sorted(times)


def test_replay_ends_in_the_same_window_every_time():
    cal = calibrate.Calibrator(pin=False)
    acks = probes.synthetic_acks(7, hops=1, count=2000)
    for variant in ("hpcc-vai-sf", "swift-vai-sf"):
        ns_a, window_a = probes.replay_acks(variant, 1, acks, cal)
        ns_b, window_b = probes.replay_acks(variant, 1, acks, cal)
        assert window_a == window_b
        assert ns_a > 0 and ns_b > 0


def test_the_stream_drives_a_protocol_off_its_initial_window():
    cal = calibrate.Calibrator(pin=False)
    acks = probes.synthetic_acks(7, hops=1, count=2000)
    _, window = probes.replay_acks("hpcc", 1, acks, cal)
    line_rate_bdp = 100e9 / 8.0 / 1e9 * 2000.0  # 100 Gbps over the 2 us base RTT
    assert 1000.0 <= window < line_rate_bdp
