"""Simulated behaviors served on real sockets, for differential tests of the live client.

Each endpoint of a ``SimServices`` backend gets an ephemeral listener of its
own on ``::1``: UDP for the catalog's UDP ports, TCP for the rest. One thread
runs a small ``selectors`` loop that steps every connection's behavior
generator as ``simnet.services._Pipe`` does in memory, but over a socket and
in real time. A read the behavior yields, ``(n, wait)``, is answered once the
socket has bytes or EOF, and gets ``TimeoutError`` thrown in once ``wait``
seconds pass. A datagram endpoint keeps one generator per client address.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time

from resiscan.grab import live_connector
from resiscan.services import default_services
from resiscan.simnet.services import Transcript, _Conn, _key

UDP_PORTS = {s.port for s in default_services() if s.transport == "udp"}
_POLL_S = 0.02  # how often the loop looks whether it should stop


class _Peer:
    """One connection's behavior, the read it waits in, and its socket (None over UDP)."""

    def __init__(self, served, send, sock=None):
        behavior, params = served
        self.gen = behavior(_Conn(send, Transcript(0, 0)), params)
        self.sock = sock
        self.ask = None  # (count, deadline), while the behavior runs


class LoopbackServer:
    """Serve ``endpoints``, ``{(address key, port): (behavior, params)}`` as
    ``SimServices`` holds them, until ``close``. ``connector`` has the live
    connector's shape and refuses any endpoint not served, as the simulator does."""

    def __init__(self, endpoints: dict):
        self._selector = selectors.DefaultSelector()
        self._ports: dict[tuple[int, int], int] = {}
        self._peers: set[_Peer] = set()
        self._stop = threading.Event()
        try:
            for (key, port), served in endpoints.items():
                udp = port in UDP_PORTS
                kind = socket.SOCK_DGRAM if udp else socket.SOCK_STREAM
                sock = socket.socket(socket.AF_INET6, kind)
                self._selector.register(sock, selectors.EVENT_READ, (served, {} if udp else None))
                sock.bind(("::1", 0))
                if not udp:
                    sock.listen(64)
                sock.setblocking(False)
                self._ports[(key, port)] = sock.getsockname()[1]
        except BaseException:
            self._close_all()
            raise
        self._thread = threading.Thread(target=self._loop, name="loopback-server")
        self._thread.start()

    def connector(self, address: str, port: int, timeout: float, udp: bool = False):
        local = self._ports.get((_key(address), port))
        if local is None:
            raise ConnectionRefusedError(f"{address}:{port} closed")
        return live_connector("::1", local, timeout, udp=udp)

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
        self._close_all()

    def __enter__(self) -> LoopbackServer:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _close_all(self) -> None:
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._selector.close()

    def _loop(self) -> None:
        while not self._stop.is_set():
            deadlines = [peer.ask[1] for peer in self._peers]
            wait = min([_POLL_S, *(d - time.monotonic() for d in deadlines)])
            for key, _events in self._selector.select(max(wait, 0)):
                if isinstance(key.data, _Peer):
                    self._read(key.data)
                elif key.data[1] is None:
                    self._accept(key.fileobj, key.data[0])
                else:
                    self._datagram(key.fileobj, *key.data)
            now = time.monotonic()
            for peer in [p for p in self._peers if p.ask[1] <= now]:
                self._step(peer, exc=TimeoutError("timed out"))

    def _accept(self, listener, served) -> None:
        sock, _address = listener.accept()
        sock.settimeout(5.0)  # each send; the loop reads only what is ready
        peer = _Peer(served, sock.sendall, sock)
        self._selector.register(sock, selectors.EVENT_READ, peer)
        self._step(peer)

    def _read(self, peer: _Peer) -> None:
        try:
            data = peer.sock.recv(peer.ask[0])
        except OSError as exc:
            self._step(peer, exc=exc)
        else:
            self._step(peer, data)

    def _datagram(self, sock, served, clients: dict) -> None:
        data, address = sock.recvfrom(65536)
        peer = clients.get(address)
        if peer is None:
            peer = clients[address] = _Peer(served, lambda reply: sock.sendto(reply, address))
            self._step(peer)
        if peer in self._peers:  # a datagram for a behavior that returned is lost
            self._step(peer, data[: peer.ask[0]])

    def _step(self, peer: _Peer, data: bytes | None = None, exc: Exception | None = None) -> None:
        """Resume ``peer`` with ``data`` read, or ``exc`` raised, up to its next read."""
        try:
            n, wait = peer.gen.send(data) if exc is None else peer.gen.throw(exc)
        except Exception:  # noqa: BLE001 - returning, or a broken behavior, closes the connection
            self._peers.discard(peer)
            if peer.sock is not None:
                self._selector.unregister(peer.sock)
                peer.sock.close()
        else:
            peer.ask = n, time.monotonic() + wait
            self._peers.add(peer)
