"""Scripted drivers: steering (and recording) a live gateway session.

A :class:`ScriptedDriver` turns a prepared timeline into a *stream*:
each event is emitted when the session clock reaches its stamp, which
is how the flash-crowd demo (scenario S16) steers a live gateway in
session time.  The driver remembers exactly what it sent, and
:meth:`ScriptedDriver.recorded_jsonl` renders the session in the wire
format — so a live run leaves behind a recording that the virtual-clock
gateway replays bit-identically against the offline controller (the
acceptance check the perf harness's serve suite automates).
"""

from __future__ import annotations

from typing import AsyncIterator, Iterable

from repro.ops.events import OpsEvent, encode_event, timeline_key
from repro.serve.clock import Clock


async def scripted_source(
    events: Iterable[OpsEvent], clock: Clock
) -> AsyncIterator[OpsEvent]:
    """Emit ``events`` in timeline order as the clock reaches each stamp."""
    for event in sorted(events, key=timeline_key):
        await clock.sleep_until(event.time_s)
        yield event


class ScriptedDriver:
    """Replays a prepared timeline as a live stream and records it."""

    def __init__(self, events: Iterable[OpsEvent]) -> None:
        self.events: tuple[OpsEvent, ...] = tuple(
            sorted(events, key=timeline_key)
        )
        #: what was actually emitted, in emission order
        self.sent: list[OpsEvent] = []

    def source(self, clock: Clock) -> AsyncIterator[OpsEvent]:
        """The event stream a gateway consumes, paced by ``clock``."""
        return self._emit(clock)

    async def _emit(self, clock: Clock) -> AsyncIterator[OpsEvent]:
        for event in self.events:
            await clock.sleep_until(event.time_s)
            self.sent.append(event)
            yield event

    def recorded_jsonl(self) -> list[str]:
        """The emitted session as wire-format lines (one event each)."""
        return [encode_event(event) for event in self.sent]
