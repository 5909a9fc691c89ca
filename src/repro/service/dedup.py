"""In-flight-run deduplication: N identical requests, one simulation.

:class:`InFlightRegistry` arbitrates the concurrent requests of one process
for the same store key, so that exactly one caller (the *leader*) runs the
simulation and every other caller (a *follower*) blocks until the leader
ends it.  It is a ``key -> Flight`` table guarded by a mutex: the first
caller to join a key creates its flight and runs it through :meth:`lead`,
the one place a flight ends; later callers wait on the flight's
:class:`threading.Event` and receive the leader's result, or its error as a
:class:`DedupError` chained to it.  A flight leaves the table when its
leader ends it, so the table holds only keys being computed right now.

Two processes serving one store do not deduplicate each other: each
simulates a key that both miss, and the store's tempfile + atomic rename
keeps every entry whole, the last rename winning with an identical document.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Tuple

from repro.api.results import RunResult


class DedupError(RuntimeError):
    """The leader of a flight failed, so its followers have no result."""


class Flight:
    """One key being computed in this process."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Optional[RunResult] = None
        self.error: Optional[BaseException] = None

    def wait(self) -> RunResult:
        """Follower: block until the leader ends the flight, then return its
        result.

        Raises :class:`DedupError`, chained to the leader's error, if the
        leader failed.
        """
        self.event.wait()
        if self.error is not None:
            raise DedupError(f"in-flight leader failed: {self.error!r}") from self.error
        return self.result


class InFlightRegistry:
    """Exactly-one-computation registry for the threads of one process."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._flights: Dict[str, Flight] = {}
        self.leaders = 0
        self.followers = 0
        self.failures = 0

    def join(self, key: str) -> Optional[Flight]:
        """Lead or follow the flight for ``key``.

        Returns ``None`` when the caller now leads it and must run it with
        :meth:`lead`; otherwise the flight in progress, whose
        :meth:`Flight.wait` gives its outcome even if it ends first.
        """
        with self._mutex:
            flight = self._flights.get(key)
            if flight is None:
                self._flights[key] = Flight()
                self.leaders += 1
            else:
                self.followers += 1
            return flight

    def _end(self, key: str, result: Optional[RunResult], error: Optional[BaseException]) -> None:
        with self._mutex:
            flight = self._flights.pop(key, None)
            if error is not None:
                self.failures += 1
        if flight is not None:
            flight.result, flight.error = result, error
            flight.event.set()

    def complete(self, key: str, result: RunResult) -> None:
        """Leader: publish the result and wake every follower."""
        self._end(key, result, None)

    def fail(self, key: str, error: BaseException) -> None:
        """Leader: publish the failure and wake every follower with it."""
        self._end(key, None, error)

    def lead(self, key: str, compute: Callable[[], RunResult]) -> RunResult:
        """Leader: run ``compute`` and end the flight with its result, or
        with its exception, which then propagates to the caller."""
        try:
            result = compute()
        except BaseException as exc:
            self.fail(key, exc)
            raise
        self.complete(key, result)
        return result

    def run_or_wait(
        self,
        key: str,
        compute: Callable[[], RunResult],
        fetch: Callable[[], Optional[RunResult]],
    ) -> Tuple[RunResult, str]:
        """Produce the result for ``key`` once across this process's callers.

        Returns ``(result, role)``: ``"store"`` when ``fetch`` already has
        it, ``"leader"`` for the caller that ran ``compute``, ``"follower"``
        for one that waited on the leader.  A leader's exception propagates
        to it and reaches its followers as :class:`DedupError`.
        """
        cached = fetch()
        if cached is not None:
            return cached, "store"
        flight = self.join(key)
        if flight is not None:
            return flight.wait(), "follower"
        return self.lead(key, compute), "leader"

    def in_flight(self, key: str) -> bool:
        with self._mutex:
            return key in self._flights

    def stats(self) -> Dict[str, int]:
        with self._mutex:
            return {
                "in_flight": len(self._flights),
                "leaders": self.leaders,
                "followers": self.followers,
                "deduped": self.followers,
                "failures": self.failures,
            }
