"""Checkpoint/resume for trial batches: an append-only JSONL journal.

A :class:`CheckpointJournal` lives in a user-chosen directory (``--checkpoint
dir/``) and streams one JSON line per completed trial: a content-addressed
key (the SHA-256 fingerprint of the trial's function and arguments — the
spec carries the trial seed, so the key *is* the (spec-fingerprint,
trial-seed) pair), a human-readable label, and the pickled trial value.
Rerunning the same invocation skips every journaled key and restores the
recorded value, so an interrupted batch resumes where it stopped and a
completed batch replays for free.

Durability: every record is written as one line followed by ``flush`` +
``fsync``, and the loader tolerates a truncated final line (the one write a
crash can interrupt).  The journal metadata file is written with the same
temp-file + ``os.replace`` pattern as the runner's ``--output``.

Values are pickled (base64 in the JSON line) rather than JSON-encoded so a
restored value round-trips **bit-identically** — Monte-Carlo trial values are
arbitrary Python objects (ints, report dataclasses, tuples) and a JSON
round-trip would silently change their types.  Everything that reaches the
journal already crossed a process-pool boundary, so picklability is given.

A journal reaches its consumers explicitly and has one reader and writer:
``run_trials`` reads it from :attr:`ExecutionPolicy.checkpoint
<repro.resilience.pool.ExecutionPolicy>` and keys every trial by
:func:`fingerprint_call`.  ``--spec`` batches and the Monte-Carlo table
sections get it through their ``policy=`` argument; the ``--churn`` replay
takes it as its ``checkpoint=`` keyword and runs its steps as one such
batch of trial calls.  The runner opens one journal per invocation and
closes it when the invocation ends.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.exceptions import ExperimentError

#: Journal format version, recorded in ``meta.json``.
JOURNAL_FORMAT = 1


def _canonical(obj: Any) -> Any:
    """A JSON-stable projection of a trial argument for fingerprinting.

    Dataclasses with a ``to_dict`` (``ScenarioSpec``, ``EngineConfig``, ...)
    contribute their serialised form, so a fingerprint survives process
    restarts and never depends on ``id()``/``hash()`` (the latter is salted
    per process).
    """
    to_dict = getattr(obj, "to_dict", None)
    if callable(to_dict) and dataclasses.is_dataclass(obj):
        return {"__type__": type(obj).__name__, "value": to_dict()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, Mapping):
        return {str(key): _canonical(value) for key, value in sorted(obj.items(), key=lambda item: str(item[0]))}
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def fingerprint_call(
    func: Callable[..., Any], args: Tuple, kwargs: Dict[str, Any]
) -> str:
    """SHA-256 fingerprint of one trial call (function + arguments)."""
    payload = {
        "func": f"{func.__module__}.{func.__qualname__}",
        "args": _canonical(args),
        "kwargs": _canonical(kwargs),
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _write_atomic(path: str, text: str) -> None:
    """Temp-file + ``os.replace`` write (the ``--output`` pattern)."""
    directory = os.path.dirname(path) or "."
    descriptor, temp_path = tempfile.mkstemp(
        dir=directory, prefix=".checkpoint-", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp_path)
        raise


class CheckpointJournal:
    """Append-only JSONL journal of completed trial values.

    ``reused`` counts restores and ``recorded`` counts appends made through
    this instance — the runner reports both so smoke tests can assert the
    journal-skip count on resume.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, "journal.jsonl")
        meta_path = os.path.join(directory, "meta.json")
        if not os.path.exists(meta_path):
            _write_atomic(
                meta_path, json.dumps({"format": JOURNAL_FORMAT}) + "\n"
            )
        self._entries: Dict[str, str] = {}
        self._handle = None
        self.reused = 0
        self.recorded = 0
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # A crash can truncate at most the final line; tolerate
                    # it (that trial simply reruns) but refuse journals whose
                    # *interior* is corrupt — those were not written by us.
                    continue
                if not isinstance(record, dict) or "key" not in record:
                    raise ExperimentError(
                        f"malformed checkpoint record in {self.path}: {line!r}"
                    )
                self._entries[record["key"]] = record["value"]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def restore(self, key: str) -> Any:
        """Unpickle and return the journaled value for ``key``."""
        encoded = self._entries[key]
        value = pickle.loads(base64.b64decode(encoded))
        self.reused += 1
        return value

    def record(self, key: str, value: Any, label: str = "") -> None:
        """Append one completed trial; durable once this returns."""
        if key in self._entries:
            return
        encoded = base64.b64encode(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
        line = json.dumps(
            {"key": key, "label": label, "value": encoded},
            separators=(",", ":"),
        )
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._entries[key] = encoded
        self.recorded += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
