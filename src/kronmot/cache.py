"""On-disk cache for computed series and tables.

Keys are canonical strings carrying the schema and the package version, so
an entry written by another release is never served; payloads are JSON.
An entry's file is named by the CRC-32 of its key and stores the key, and
``get`` serves an entry only to its own key: two keys whose names collide
share one file, and each finds the other's entry a miss, recomputed and
written over it.  Files named otherwise, such as the sha256-named entries
of earlier releases, are never read.  Corrupted entries are discarded and
recomputed.  Writes go through a temp-file rename so concurrent
invocations never see partial files; a write that fails or is interrupted
(Ctrl-C included) removes its temp file.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import zlib
from pathlib import Path

from . import __version__

SCHEMA = "kronmot/1"
ENV_CACHE_DIR = "KRONMOT_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "kronmot"


class Cache:
    def __init__(self, directory: Path | str | None = None, enabled: bool = True):
        self.directory = Path(directory) if directory else default_cache_dir()
        self.enabled = enabled

    def _path(self, key: str) -> Path:
        return self.directory / f"{zlib.crc32(key.encode()):08x}.json"

    @staticmethod
    def make_key(command: str, **params) -> str:
        canon = json.dumps(params, sort_keys=True, separators=(",", ":"))
        return f"{SCHEMA}|{__version__}|{command}|{canon}"

    def get(self, key: str):
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            with open(path) as fh:
                entry = json.load(fh)
            if not isinstance(entry, dict) or entry.get("key") != key:
                return None
            return entry["payload"]
        except (OSError, ValueError, KeyError, RecursionError):
            return None

    def put(self, key: str, payload) -> None:
        if not self.enabled:
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        except OSError:
            return  # cache is best effort
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump({"key": key, "payload": payload}, fh)
            os.replace(tmp, self._path(key))
            tmp = None
        except OSError:
            pass  # still best effort
        finally:
            # a failed or interrupted write leaves no temp file behind
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
