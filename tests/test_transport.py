import threading

import numpy as np
import pytest

from semperf import transport
from semperf.kernel import CaseConfig
from semperf.partition import partition_elements
from semperf.solver import RankWorker
from semperf.transport import (
    TransportAborted,
    TransportTimeout,
    allreduce_sum,
    loopback_transport,
)


def test_round_trip_is_bitwise():
    a, b = loopback_transport(2)
    payload = np.array([1.0, -0.0, 1e-300, np.pi])
    a.send(1, payload, tag="halo")
    received = b.receive(0, tag="halo")
    assert received.tobytes() == payload.tobytes()


def test_send_copies_payload():
    a, b = loopback_transport(2)
    payload = np.zeros(3)
    a.send(1, payload, tag="halo")
    payload[:] = 99.0
    assert np.all(b.receive(0, tag="halo") == 0.0)


def test_order_preserved_per_pair():
    a, b = loopback_transport(2)
    for i in range(20):
        a.send(1, np.array([float(i)]), tag="halo")
    got = [float(b.receive(0, tag="halo")[0]) for _ in range(20)]
    assert got == [float(i) for i in range(20)]


def test_counters_equal_payload_sizes():
    a, b = loopback_transport(2)
    a.send(1, np.ones(7), tag="halo")
    a.send(1, np.ones((2, 3)), tag="reduce")
    b.receive(0, tag="halo")
    b.receive(0, tag="reduce")
    assert a.tag_words_sent["halo"] == 7
    assert a.tag_words_sent["reduce"] == 6
    assert a.tag_messages_sent["halo"] == 1
    assert a.tag_messages_sent["reduce"] == 1


def test_receive_rejects_an_unexpected_tag():
    a, b = loopback_transport(2)
    a.send(1, np.ones(2), tag="reduce")
    with pytest.raises(ValueError, match="expected a 'halo' message"):
        b.receive(0, tag="halo")


def test_send_and_receive_name_their_tag():
    a, b = loopback_transport(2)
    with pytest.raises(TypeError):
        a.send(1, np.ones(2))
    a.send(1, np.ones(2), tag="halo")
    with pytest.raises(TypeError):
        b.receive(0)


def test_unknown_peer_rejected():
    (only,) = loopback_transport(1)
    assert only.peers == frozenset()
    a, _ = loopback_transport(2)
    with pytest.raises(ValueError):
        a.send(5, np.ones(1), tag="halo")


def test_receive_from_unknown_peer_rejected():
    a, _ = loopback_transport(2)
    for peer in (0, 2, -1):
        with pytest.raises(ValueError, match="^rank 0 has no peer"):
            a.receive(peer, tag="halo")


def test_barrier_releases_when_all_arrive():
    endpoints = loopback_transport(4)
    arrived = []

    def worker(ep):
        ep.barrier()
        arrived.append(ep.rank)

    threads = [threading.Thread(target=worker, args=(ep,)) for ep in endpoints]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(arrived) == [0, 1, 2, 3]


def test_barrier_with_missing_rank_times_out(monkeypatch):
    monkeypatch.setattr(transport, "WAIT_TIMEOUT_S", 0.2)
    endpoints = loopback_transport(3)
    failures = []

    def worker(ep):
        try:
            ep.barrier()
        except TransportTimeout:
            failures.append(ep.rank)

    # only two of three ranks arrive: the watchdog must fire
    threads = [
        threading.Thread(target=worker, args=(ep,)) for ep in endpoints[:2]
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(failures) == [0, 1]


def test_barrier_after_an_abort_raises_aborted():
    endpoints = loopback_transport(3)
    endpoints[1].abort()
    errors = {}

    def worker(ep):
        try:
            ep.barrier()
        except Exception as exc:
            errors[ep.rank] = type(exc)

    threads = [
        threading.Thread(target=worker, args=(ep,))
        for ep in (endpoints[0], endpoints[2])
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
        assert not t.is_alive()
    assert errors == {0: TransportAborted, 2: TransportAborted}


def test_receive_timeout(monkeypatch):
    monkeypatch.setattr(transport, "WAIT_TIMEOUT_S", 0.05)
    a, _ = loopback_transport(2)
    with pytest.raises(TransportTimeout):
        a.receive(1, tag="halo")


def test_setup_without_its_peer_times_out(monkeypatch):
    # rank 0's setup exchanges halos with rank 1, whose setup has not run
    monkeypatch.setattr(transport, "WAIT_TIMEOUT_S", 0.05)
    case = CaseConfig(elements=(2, 2, 2), degrees=(2, 2, 2))
    plan = partition_elements(case, 2)
    workers = [
        RankWorker(case, plan, ep) for ep in loopback_transport(2)
    ]
    with pytest.raises(TransportTimeout):
        for worker in workers:
            worker.setup()


def test_allreduce_sums_in_rank_order():
    endpoints = loopback_transport(3)
    results = {}

    def worker(ep):
        results[ep.rank] = allreduce_sum(ep, [float(ep.rank + 1), 10.0])

    threads = [threading.Thread(target=worker, args=(ep,)) for ep in endpoints]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for rank in range(3):
        assert results[rank].tolist() == [6.0, 30.0]
    # every rank sees bitwise-identical results
    assert results[0].tobytes() == results[1].tobytes() == results[2].tobytes()


def test_allreduce_single_rank():
    (only,) = loopback_transport(1)
    assert allreduce_sum(only, [2.5]).tolist() == [2.5]


def test_allreduce_single_rank_sends_nothing():
    (only,) = loopback_transport(1)
    allreduce_sum(only, np.ones(4))
    assert only.tag_messages_sent["reduce"] == 0
    assert only.tag_words_sent["reduce"] == 0


def test_allreduce_is_one_hop_in_rank_order():
    n = 5
    endpoints = loopback_transport(3)
    # magnitudes far apart, so (v0 + v1) + v2 and v0 + (v1 + v2) differ
    partials = [
        np.random.default_rng(rank).standard_normal(n) * 10.0 ** (8 * rank)
        for rank in range(3)
    ]
    results = {}

    def worker(ep):
        results[ep.rank] = allreduce_sum(ep, partials[ep.rank])

    threads = [threading.Thread(target=worker, args=(ep,)) for ep in endpoints]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
        assert not t.is_alive()
    expected = ((partials[0] + partials[1]) + partials[2]).tobytes()
    for ep in endpoints:
        assert results[ep.rank].tobytes() == expected
        # one n-word message to each peer and one from each
        assert ep.tag_messages_sent["reduce"] == 2
        assert ep.tag_words_sent["reduce"] == 2 * n
