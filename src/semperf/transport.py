"""In-memory message transport connecting rank workers on one host.

Endpoints are fully connected through one ``queue.SimpleQueue`` mailbox
per ordered pair, so message order is preserved between any two ranks and
delivery is exact (payloads are copied on send).  Every send and receive
names its tag, "halo", "reduce" or "barrier", and a receive refuses a
message of another tag; the sender counts words and messages per tag, so
face exchange accounting stays comparable with the partition-module
predictions.  ``allreduce_sum`` is one hop: every rank sends its partial
to every peer and sums all partials in ascending rank order, so each rank
sends (P-1)*n reduction words per n-word reduction.  A barrier is the same
pattern with empty payloads, so every wait is a mailbox receive.  A rank
that fails aborts the fabric: every peer blocked on it, or on a peer that
aborts in turn, raises instead of waiting forever.  Every receive is also
bounded by ``WAIT_TIMEOUT_S``: peers exchange messages in every CG
iteration, so a legitimate wait lasts about one iteration of the slowest
peer, far below the bound.
"""

import queue
from collections import defaultdict

import numpy as np

from .errors import SemperfError

WAIT_TIMEOUT_S = 60.0


class TransportTimeout(SemperfError):
    """A receive waited longer than WAIT_TIMEOUT_S for a peer's message."""


class TransportAborted(SemperfError):
    """A peer aborted the fabric; the message waited for will never come."""


_ABORT = object()  # queue marker of an aborted sender; never counted


class LoopbackEndpoint:
    """One rank's view of the shared loopback fabric: per peer, the mailbox
    it sends to and the one it receives from."""

    def __init__(self, rank, n_ranks, queues):
        self.rank = rank
        self.n_ranks = n_ranks
        others = [r for r in range(n_ranks) if r != rank]
        self.peers = frozenset(others)
        self._outbox = {peer: queues[rank, peer] for peer in others}
        self._inbox = {peer: queues[peer, rank] for peer in others}
        self.tag_words_sent = defaultdict(int)
        self.tag_messages_sent = defaultdict(int)

    def _no_peer(self, peer):
        return ValueError(f"rank {self.rank} has no peer {peer}")

    def send(self, peer, payload, tag):
        try:
            mailbox = self._outbox[peer]
        except KeyError:
            raise self._no_peer(peer) from None
        data = np.array(payload, dtype=float, copy=True)
        self.tag_words_sent[tag] += data.size
        self.tag_messages_sent[tag] += 1
        mailbox.put((tag, data))

    def receive(self, peer, tag):
        """Next message from peer, which must carry the given tag."""
        try:
            mailbox = self._inbox[peer]
        except KeyError:
            raise self._no_peer(peer) from None
        try:
            item = mailbox.get(timeout=WAIT_TIMEOUT_S)
        except queue.Empty:
            raise TransportTimeout(
                f"rank {self.rank} timed out waiting for rank {peer}"
            ) from None
        if item is _ABORT:
            raise TransportAborted(f"rank {peer} aborted the transport")
        got, data = item
        if got != tag:
            raise ValueError(
                f"rank {self.rank} expected a {tag!r} message from rank "
                f"{peer}, got {got!r}"
            )
        return data

    def barrier(self):
        """Return once every peer has entered its matching barrier."""
        for peer in self.peers:
            self.send(peer, np.empty(0), tag="barrier")
        for peer in self.peers:
            self.receive(peer, tag="barrier")

    def abort(self):
        """Make each peer's next receive from this rank raise
        TransportAborted."""
        for mailbox in self._outbox.values():
            mailbox.put(_ABORT)


def loopback_transport(n_ranks):
    """Build n_ranks connected endpoints with ordered in-memory delivery."""
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    queues = {
        (src, dst): queue.SimpleQueue()
        for src in range(n_ranks)
        for dst in range(n_ranks)
        if src != dst
    }
    return [LoopbackEndpoint(rank, n_ranks, queues) for rank in range(n_ranks)]


def allreduce_sum(endpoint, values):
    """Sum a small vector across ranks, deterministically in rank order.

    Every rank sends its partial to every peer and adds all P partials in
    ascending rank order, so every rank gets bitwise-identical sums after
    one hop.
    """
    values = np.array(values, dtype=float, ndmin=1)
    rank, n_ranks = endpoint.rank, endpoint.n_ranks
    for peer in range(n_ranks):
        if peer != rank:
            endpoint.send(peer, values, tag="reduce")
    acc = values if rank == 0 else endpoint.receive(0, tag="reduce")
    for peer in range(1, n_ranks):
        acc = acc + (
            values if peer == rank else endpoint.receive(peer, tag="reduce")
        )
    return acc
