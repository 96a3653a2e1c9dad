"""One bounded, thread-safe log of acquisition, seeding and spawn events.

Records are dicts with a "kind" ("acquire", "seed" or "spawn") and a wall-clock
"t". Only the newest CAPACITY records are kept, so the log can stay on for a
whole run. Clone detection is not bounded: every seed fingerprint a log has
seen stays in its set, so a duplicate is refused even after its spawn record
has been evicted.
"""
from __future__ import annotations

import json
import threading
import time
from collections import deque

from .errors import DuplicateSeed

CAPACITY = 4096
SCHEMA = "dprand.event/1"


class EventLog:
    """The newest CAPACITY event records, plus the complete set of spawned seed fingerprints.

    Each EventLog is its own clone-detection scope. `dropped` counts the
    records evicted to stay within CAPACITY.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._records: deque[dict] = deque(maxlen=CAPACITY)
        self._fingerprints: set[str] = set()  # complete, never trimmed
        self.dropped = 0

    def _append(self, record: dict) -> None:
        # the caller holds the lock
        if len(self._records) == CAPACITY:
            self.dropped += 1
        self._records.append(record)

    def record(self, kind: str, **fields) -> None:
        record = {"kind": kind, "t": time.time(), **fields}
        with self._lock:
            self._append(record)

    def record_spawn(self, index: int, fingerprint: str) -> None:
        """Log a stream's seed fingerprint; DuplicateSeed if this log has ever seen it."""
        with self._lock:
            if fingerprint in self._fingerprints:
                raise DuplicateSeed(
                    f"stream {index} derived already-seen seed material "
                    f"(fingerprint {fingerprint[:16]}...); refusing to run twins")
            self._fingerprints.add(fingerprint)
            self._append({"kind": "spawn", "t": time.time(),
                          "stream_index": index, "fingerprint_hex": fingerprint})

    def entries(self) -> list[dict]:
        with self._lock:
            return list(self._records)

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps({"schema": SCHEMA, **r}) for r in self.entries())


EVENTS = EventLog()
