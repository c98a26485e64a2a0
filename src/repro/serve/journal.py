"""The gateway's write-ahead journal of intake events.

Every event the gateway admits is appended to an on-disk segment file
*before* it enters the intake queue — one canonical wire line
(:func:`~repro.ops.events.encode_event`) per event, so a journal is
also a valid recorded session.  After a crash, replaying the journal
through the virtual-clock gateway reproduces the lost session
bit-identically (:func:`replay_journal`): the wire codec round-trips
exactly and the virtual clock regroups instants exactly like the
offline run loop.

Durability is a policy knob, not a promise baked in:

- ``fsync="always"`` — fsync after every append (maximum durability,
  one syscall per event);
- ``fsync="interval"`` — fsync every ``fsync_every`` appends (the
  default: bounded loss window, amortized cost);
- ``fsync="close"`` — fsync only on rotation and close (OS page cache
  decides; cheapest).

Segments rotate every ``rotate_every`` appends (``segment-000000.jsonl``,
``segment-000001.jsonl``, ...), so recovery after a torn write loses at
most the tail of the *last* segment — :func:`read_journal` tolerates a
partial final line (the expected crash artifact, reported as
``truncated_tail``) and counts any interior undecodable line as
corruption instead of silently absorbing it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, ClassVar, Optional

from repro.ops.events import OpsEvent, decode_event, encode_event

if TYPE_CHECKING:
    from repro.ops.report import OpsReport

SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".jsonl"

FSYNC_POLICIES = ("always", "interval", "close")


def segment_name(index: int) -> str:
    return f"{SEGMENT_PREFIX}{index:06d}{SEGMENT_SUFFIX}"


def journal_segments(dir_path: str | Path) -> list[Path]:
    """All segment files under ``dir_path``, in append order."""
    root = Path(dir_path)
    if not root.is_dir():
        return []
    return sorted(
        p
        for p in root.iterdir()
        if p.name.startswith(SEGMENT_PREFIX)
        and p.name.endswith(SEGMENT_SUFFIX)
    )


@dataclass
class JournalStats:
    """Write-side counters, surfaced through the gateway's ``/health``."""

    appends: int = 0
    fsyncs: int = 0
    rotations: int = 0
    segments: int = 0

    #: the one spec driving both the ``/health`` document and the
    #: ``journal_*`` metric families (see repro.obs.registry.attach)
    OBS_FIELDS: ClassVar[dict[str, str]] = {
        "appends": "counter",
        "fsyncs": "counter",
        "rotations": "counter",
        "segments": "gauge",
    }

    def to_doc(self) -> dict[str, int]:
        return {name: int(getattr(self, name)) for name in self.OBS_FIELDS}


class Journal:
    """Append-only, segment-rotated write-ahead log of intake events."""

    def __init__(
        self,
        dir_path: str | Path,
        *,
        fsync: str = "interval",
        fsync_every: int = 64,
        rotate_every: int = 10_000,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; one of {FSYNC_POLICIES}"
            )
        if fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")
        if rotate_every < 1:
            raise ValueError("rotate_every must be >= 1")
        self.dir = Path(dir_path)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.fsync_every = fsync_every
        self.rotate_every = rotate_every
        existing = journal_segments(self.dir)
        # Appends to an existing journal dir continue the segment
        # numbering — never overwrite what a previous run persisted.
        self._next_index = (
            _segment_index(existing[-1]) + 1 if existing else 0
        )
        self._fh: Optional[IO[str]] = None
        self._lines = 0
        self._since_sync = 0
        self.stats = JournalStats(segments=len(existing))

    @property
    def closed(self) -> bool:
        return self._fh is None and self.stats.appends > 0

    def append(self, event: OpsEvent) -> None:
        """Durably record one event (per the fsync policy) before use."""
        if self._fh is None or self._lines >= self.rotate_every:
            self._open_segment()
        assert self._fh is not None
        self._fh.write(encode_event(event))
        self._fh.write("\n")
        self._lines += 1
        self.stats.appends += 1
        if self.fsync == "always":
            self._sync()
        elif self.fsync == "interval":
            self._since_sync += 1
            if self._since_sync >= self.fsync_every:
                self._sync()

    def flush(self) -> None:
        """Flush and fsync the live segment regardless of policy."""
        if self._fh is not None:
            self._sync()

    def close(self) -> None:
        if self._fh is not None:
            self._sync()
            self._fh.close()
            self._fh = None

    def _sync(self) -> None:
        assert self._fh is not None
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.stats.fsyncs += 1
        self._since_sync = 0

    def _open_segment(self) -> None:
        rotating = self._fh is not None
        if self._fh is not None:
            self._sync()
            self._fh.close()
        path = self.dir / segment_name(self._next_index)
        self._next_index += 1
        self._fh = open(path, "a", encoding="utf-8")
        self._lines = 0
        self._since_sync = 0
        self.stats.segments += 1
        if rotating:
            self.stats.rotations += 1

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _segment_index(path: Path) -> int:
    stem = path.name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError as exc:
        raise ValueError(f"not a journal segment name: {path.name}") from exc


@dataclass
class JournalRecovery:
    """What crash recovery read back — and what it had to tolerate."""

    events: list[OpsEvent]
    segments: int
    #: non-blank lines seen (decoded + skipped + the torn tail)
    lines: int
    #: interior lines that failed to decode (corruption, never silent)
    skipped_lines: int
    #: the final line was partial — the expected torn-write artifact
    truncated_tail: bool

    def to_doc(self) -> dict[str, object]:
        return {
            "events": len(self.events),
            "segments": self.segments,
            "lines": self.lines,
            "skipped_lines": self.skipped_lines,
            "truncated_tail": self.truncated_tail,
        }


def read_journal(dir_path: str | Path) -> JournalRecovery:
    """Read every recoverable event back from a journal directory.

    A partial *final* line (crash mid-append) is dropped and flagged as
    ``truncated_tail``; any other undecodable line is counted in
    ``skipped_lines`` — corruption is surfaced, never absorbed.
    """
    segments = journal_segments(dir_path)
    events: list[OpsEvent] = []
    lines_seen = 0
    skipped = 0
    truncated = False
    for seg_pos, segment in enumerate(segments):
        raw = segment.read_text(encoding="utf-8", errors="replace")
        lines = raw.split("\n")
        for line_pos, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            lines_seen += 1
            final = (
                seg_pos == len(segments) - 1 and line_pos == len(lines) - 1
            )
            try:
                events.append(decode_event(line))
            except ValueError:
                if final:
                    truncated = True
                else:
                    skipped += 1
    return JournalRecovery(
        events=events,
        segments=len(segments),
        lines=lines_seen,
        skipped_lines=skipped,
        truncated_tail=truncated,
    )


def replay_journal(
    dir_path: str | Path,
    services: list[Any],
    horizon_s: float,
    **gateway_kwargs: Any,
) -> tuple["OpsReport", JournalRecovery]:
    """Crash recovery: replay a journal through the virtual-clock gateway.

    Returns the closed report plus what recovery read.  The replay is
    bit-identical to the crashed session's would-have-been report for
    the journaled prefix: the wire codec round-trips exactly and the
    virtual clock groups instants exactly like the offline run loop.
    """
    from repro.serve.gateway import replay_gateway

    recovery = read_journal(dir_path)
    report = replay_gateway(
        services, recovery.events, horizon_s, **gateway_kwargs
    )
    return report, recovery


__all__ = [
    "FSYNC_POLICIES",
    "Journal",
    "JournalRecovery",
    "JournalStats",
    "journal_segments",
    "read_journal",
    "replay_journal",
    "segment_name",
]
