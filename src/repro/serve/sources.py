"""Event sources and the line-delimited JSON wire format.

A *source* is an async iterator of :class:`~repro.ops.events.OpsEvent`
— the gateway consumes any of them identically:

- :func:`timeline_source` — adapts an in-memory timeline (anything the
  :mod:`repro.ops.events` generators produce) into a stream;
- :func:`jsonl_source` — decodes an iterable of line-delimited JSON
  strings (a recorded session file);
- :func:`stream_source` — decodes line-delimited JSON from an
  :class:`asyncio.StreamReader` (stdin or a socket) until EOF.

The wire format is one JSON object per line, the event codec of
:mod:`repro.ops.events` (:func:`~repro.ops.events.encode_event`): the
event's dataclass fields plus a ``"kind"`` discriminator, keys sorted —
so a recorded session is diffable and byte-stable, and replays
bit-identically under the virtual clock.
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator, Callable, Iterable, Optional

from repro.ops.events import OpsEvent, decode_event


async def timeline_source(events: Iterable[OpsEvent]) -> AsyncIterator[OpsEvent]:
    """Stream an in-memory timeline, preserving its order."""
    for event in events:
        yield event


async def jsonl_source(
    lines: Iterable[str],
    *,
    on_malformed: Optional[Callable[[str], None]] = None,
) -> AsyncIterator[OpsEvent]:
    """Stream a recorded session: one JSON event per non-blank line.

    By default a malformed line raises :class:`ValueError` (a recorded
    session is supposed to be pristine).  With ``on_malformed`` set, the
    bad line is reported to the callback and skipped instead — the
    gateway's degraded-intake mode, where corruption is counted rather
    than fatal.
    """
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            event = decode_event(line)
        except ValueError:
            if on_malformed is None:
                raise
            on_malformed(line)
            continue
        yield event


async def stream_source(
    reader: asyncio.StreamReader,
    *,
    on_malformed: Optional[Callable[[str], None]] = None,
) -> AsyncIterator[OpsEvent]:
    """Stream line-delimited JSON events from a reader until EOF.

    ``on_malformed`` works as in :func:`jsonl_source`: when set, bad
    lines are reported and skipped; when unset they raise.
    """
    while True:
        raw = await reader.readline()
        if not raw:
            return
        line = raw.decode("utf-8", errors="replace").strip()
        if not line:
            continue
        try:
            event = decode_event(line)
        except ValueError:
            if on_malformed is None:
                raise
            on_malformed(line)
            continue
        yield event


async def resilient_source(
    factory: Callable[[], AsyncIterator[OpsEvent]],
    *,
    max_retries: int = 3,
    backoff_s: float = 0.05,
    on_retry: Optional[Callable[[BaseException], None]] = None,
) -> AsyncIterator[OpsEvent]:
    """Wrap a reconnectable source with retry, backoff, and dedup.

    ``factory`` builds a fresh stream of the *same* logical session each
    time it is called (re-open the file, re-dial the socket).  When the
    live stream dies with a transient transport error
    (:class:`ConnectionError`, :class:`OSError`, :class:`EOFError`), a
    new stream is built and the events already delivered downstream are
    skipped by count — so the merged stream is exactly the session,
    once, in order.

    Each reconnect sleeps ``backoff_s * 2**(attempt-1)``; making forward
    progress (any new event) resets the retry budget.  After
    ``max_retries`` consecutive failures with no progress, the last
    error propagates — that is the gateway's cue to enter safe mode.
    """
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    delivered = 0
    attempt = 0
    while True:
        emitted_this_stream = 0
        try:
            stream = factory()
            async for event in stream:
                emitted_this_stream += 1
                if emitted_this_stream <= delivered:
                    continue  # replayed prefix after a reconnect
                delivered += 1
                attempt = 0  # forward progress resets the budget
                yield event
            return
        except (ConnectionError, OSError, EOFError) as exc:
            attempt += 1
            if attempt > max_retries:
                raise
            if on_retry is not None:
                on_retry(exc)
            await asyncio.sleep(backoff_s * (2 ** (attempt - 1)))
