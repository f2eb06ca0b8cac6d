"""Client helpers for the routing service daemon.

:class:`ServiceClient` is the blocking helper (scripts, tests, the
quickstart example); :class:`AsyncServiceClient` is the ``asyncio``
variant that ``benchmarks/load_test.py`` fans out by the hundred.  Both
perform the versioned hello on connect, raise
:class:`~repro.service.protocol.ServiceError` carrying the server's
typed code on any error reply, and expose one method per verb.

Both clients support *opt-in* retry (``retries=N``): a ``busy`` shed is
retried after a jittered exponential backoff honoring the server's
``retry_after_ms`` hint, and a read timeout (a request or reply frame
lost to chaos/fault injection) is retried by *resending* the request.
Retry mode stamps every request with a client-chosen ``id`` and skips
stale replies whose echoed id does not match, so a late duplicate reply
can never desynchronise the stream.  Resends assume the daemon's verbs
are idempotent (they are: queries are cached, mutations are absolute).
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import time
from typing import Any, Dict, Optional

from .protocol import (
    ERR_BUSY,
    ERR_MALFORMED,
    ERR_SERVER,
    MAX_LINE,
    SERVICE_VERSION,
    ServiceError,
    encode_frame,
)

__all__ = ["ServiceClient", "AsyncServiceClient"]

#: what a verb method returns: the reply dict on :class:`ServiceClient`,
#: an awaitable of it on :class:`AsyncServiceClient`
Reply = Any


def _check(reply: Dict[str, Any]) -> Dict[str, Any]:
    """Raise the server's typed error, else pass the reply through."""
    if not isinstance(reply, dict):
        raise ServiceError(ERR_MALFORMED,
                           f"server sent a non-object reply: {reply!r}")
    if not reply.get("ok"):
        err = reply.get("error") or {}
        extra = {k: v for k, v in err.items()
                 if k not in ("code", "message")}
        raise ServiceError(err.get("code", ERR_SERVER),
                           err.get("message", "unspecified server error"),
                           **extra)
    return reply


def _stale(reply: Any, want: Any) -> bool:
    """True when ``reply`` is a leftover from a timed-out earlier
    attempt (its echoed id exists and differs from ``want``)."""
    if want is None or not isinstance(reply, dict):
        return False
    echoed = reply.get("id")
    return echoed is not None and echoed != want


def _request(verb: str, fields: Dict[str, Any],
             **optional: Any) -> Dict[str, Any]:
    """One verb's request frame: ``fields`` always, then each
    ``optional`` field that is set (``None`` and ``False`` stay off the
    wire)."""
    req = {"verb": verb, **fields}
    req.update((key, value) for key, value in optional.items()
               if value is not None and value is not False)
    return req


class _Client:
    """What both clients share: the retry policy (jittered exponential
    backoff, honoring the server's ``retry_after_ms`` hint when one rode
    on the error) and the verb vocabulary.

    Each verb builds its request once and returns ``self.request(req)``
    — the reply on :class:`ServiceClient`, an awaitable of it on
    :class:`AsyncServiceClient`.  Subclasses provide ``request``.
    """

    def _init_retry(self, retries: int, backoff_base: float,
                    backoff_cap: float) -> None:
        self._retries = max(0, int(retries))
        self._backoff_base = float(backoff_base)
        self._backoff_cap = float(backoff_cap)
        self._req_seq = 0

    def _backoff_s(self, attempt: int,
                   retry_after_ms: Optional[float]) -> float:
        base = self._backoff_base * (2 ** attempt)
        if retry_after_ms:
            base = max(base, retry_after_ms / 1000.0)
        return min(base, self._backoff_cap) * (0.5 + random.random() * 0.5)

    def _stamp(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """Retry mode: give the request a client id so a resend can
        recognise (and discard) the stale reply of a lost attempt."""
        req = dict(req)
        if req.get("id") is None:
            self._req_seq += 1
            req["id"] = f"rt-{self._req_seq}"
        return req

    # -- verbs -----------------------------------------------------------

    def _hello(self) -> Reply:
        return self.request(_request("hello", {"v": SERVICE_VERSION}))

    def load(self, algebra: str, n: int, *, topology: str = "random",
             seed: int = 0, engine: Optional[str] = None) -> Reply:
        return self.request(_request(
            "load", {"algebra": algebra, "n": n, "topology": topology,
                     "seed": seed}, engine=engine))

    def sigma(self, session: str, *, start_seed: Optional[int] = None,
              max_rounds: int = 10_000,
              include_state: bool = False) -> Reply:
        return self.request(_request(
            "sigma", {"session": session, "max_rounds": max_rounds},
            start_seed=start_seed, include_state=bool(include_state)))

    def delta(self, session: str, *,
              schedule: Optional[Dict[str, Any]] = None,
              start_seed: Optional[int] = None, max_steps: int = 2_000,
              include_state: bool = False) -> Reply:
        return self.request(_request(
            "delta", {"session": session, "max_steps": max_steps},
            schedule=schedule, start_seed=start_seed,
            include_state=bool(include_state)))

    def routes(self, session: str, *, node: Optional[int] = None,
               dest: Optional[int] = None,
               start_seed: Optional[int] = None,
               max_rounds: int = 10_000) -> Reply:
        """One row (``node=``) or column (``dest=``) of the fixed point
        as route strings — O(n) on the wire, cheaper than asking
        ``sigma`` for the full state matrix."""
        return self.request(_request(
            "routes", {"session": session, "max_rounds": max_rounds},
            node=node, dest=dest, start_seed=start_seed))

    def convergence(self, session: str, *, n_starts: int = 3,
                    seed: int = 0, max_steps: int = 2_000) -> Reply:
        return self.request(_request(
            "convergence", {"session": session, "n_starts": n_starts,
                            "seed": seed, "max_steps": max_steps}))

    def set_edge(self, session: str, i: int, k: int, *,
                 edge_seed: int = 0) -> Reply:
        return self.request(_request(
            "set_edge", {"session": session, "i": i, "k": k,
                         "edge_seed": edge_seed}))

    def remove_edge(self, session: str, i: int, k: int) -> Reply:
        return self.request(_request(
            "remove_edge", {"session": session, "i": i, "k": k}))

    def stats(self) -> Reply:
        return self.request(_request("stats", {}))

    def health(self) -> Reply:
        """Lifecycle state (``restoring``/``ready``/``draining``) plus
        durability lag — served in every state, even mid-restore."""
        return self.request(_request("health", {}))

    def snapshot(self) -> Reply:
        """Force a durable snapshot now (daemon must have a state dir)."""
        return self.request(_request("snapshot", {}))

    def shutdown(self) -> Reply:
        return self.request(_request("shutdown", {}))


class ServiceClient(_Client):
    """Blocking JSON-over-TCP client (one socket, hello on connect).

    ``retries=N`` opts into retry: ``busy`` sheds back off (honoring
    the server's ``retry_after_ms``) and a read timeout (the socket
    ``timeout``) resends the request instead of failing.

    Usage::

        with ServiceClient("127.0.0.1", 7432) as client:
            sid = client.load("hop-count", n=32)["session"]
            report = client.sigma(sid)
            client.set_edge(sid, 0, 1, edge_seed=7)   # invalidates cache
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 timeout: float = 60.0, retries: int = 0,
                 backoff_base: float = 0.05, backoff_cap: float = 2.0):
        self.host = host
        self.port = port
        self._init_retry(retries, backoff_base, backoff_cap)
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")
        self.server_hello = self._hello()

    # -- plumbing --------------------------------------------------------

    def request(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """One request/reply round trip; raises ``ServiceError`` on an
        error reply or a dropped connection.  With ``retries`` set,
        ``busy`` sheds and read timeouts are retried first."""
        if self._retries <= 0:
            return self._roundtrip(req)
        req = self._stamp(req)
        for attempt in range(self._retries + 1):
            try:
                return self._roundtrip(req)
            except ServiceError as exc:
                if exc.code != ERR_BUSY or attempt >= self._retries:
                    raise
                time.sleep(self._backoff_s(attempt, exc.retry_after_ms))
            except socket.timeout:
                if attempt >= self._retries:
                    raise
                time.sleep(self._backoff_s(attempt, None))
        raise AssertionError("unreachable")  # pragma: no cover

    def _roundtrip(self, req: Dict[str, Any]) -> Dict[str, Any]:
        self._sock.sendall(encode_frame(req))
        want = req.get("id")
        while True:
            line = self._file.readline(MAX_LINE)
            if not line:
                raise ServiceError(
                    ERR_MALFORMED,
                    "server closed the connection without replying")
            reply = json.loads(line.decode("utf-8"))
            if _stale(reply, want):
                continue  # late reply from a timed-out earlier attempt
            return _check(reply)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class AsyncServiceClient(_Client):
    """``asyncio`` client — what the load generator fans out.

    ``retries=N`` opts into retry: ``busy`` sheds back off (honoring
    the server's ``retry_after_ms``) and — when ``request_timeout`` is
    set — a reply that never arrives resends the request.

    Usage::

        client = await AsyncServiceClient.connect(host, port)
        try:
            sid = (await client.load("hop-count", n=64))["session"]
            report = await client.sigma(sid)
        finally:
            await client.close()
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, *, retries: int = 0,
                 backoff_base: float = 0.05, backoff_cap: float = 2.0,
                 request_timeout: Optional[float] = None):
        self._reader = reader
        self._writer = writer
        self._init_retry(retries, backoff_base, backoff_cap)
        self._request_timeout = request_timeout
        self.server_hello: Optional[Dict[str, Any]] = None

    @classmethod
    async def connect(cls, host: str = "127.0.0.1", port: int = 0, *,
                      retries: int = 0, backoff_base: float = 0.05,
                      backoff_cap: float = 2.0,
                      request_timeout: Optional[float] = None,
                      ) -> "AsyncServiceClient":
        reader, writer = await asyncio.open_connection(host, port,
                                                       limit=MAX_LINE)
        client = cls(reader, writer, retries=retries,
                     backoff_base=backoff_base, backoff_cap=backoff_cap,
                     request_timeout=request_timeout)
        client.server_hello = await client._hello()
        return client

    async def request(self, req: Dict[str, Any]) -> Dict[str, Any]:
        if self._retries <= 0:
            return await self._roundtrip(req)
        req = self._stamp(req)
        for attempt in range(self._retries + 1):
            try:
                return await self._roundtrip(req)
            except ServiceError as exc:
                if exc.code != ERR_BUSY or attempt >= self._retries:
                    raise
                await asyncio.sleep(
                    self._backoff_s(attempt, exc.retry_after_ms))
            except asyncio.TimeoutError:
                if attempt >= self._retries:
                    raise
                await asyncio.sleep(self._backoff_s(attempt, None))
        raise AssertionError("unreachable")  # pragma: no cover

    async def _roundtrip(self, req: Dict[str, Any]) -> Dict[str, Any]:
        self._writer.write(encode_frame(req))
        await self._writer.drain()
        want = req.get("id")
        while True:
            read = self._reader.readline()
            if self._request_timeout is not None:
                line = await asyncio.wait_for(read, self._request_timeout)
            else:
                line = await read
            if not line:
                raise ServiceError(
                    ERR_MALFORMED,
                    "server closed the connection without replying")
            reply = json.loads(line.decode("utf-8"))
            if _stale(reply, want):
                continue  # late reply from a timed-out earlier attempt
            return _check(reply)

    async def close(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
