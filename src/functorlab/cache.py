"""Content-addressed caching for Groebner output.

Only bases that need the Buchberger loop come here: a module spanned by
terms gets its basis from its minimal terms (groebner.spans_terms), which
costs less than building a key, so it never reads or writes an entry.

Keys are SHA-256 digests of a canonical JSON rendering of the parts the caller
names (for a Groebner basis: kind, ring and order signatures, twists, rank and
the generators' term rows); values are JSON.
A hit must be byte-reproducible from the key's content, so cached and fresh
runs give identical results.

Two tiers: an in-process dict, and an optional directory (FUNCTORLAB_CACHE_DIR
or configure()). Disk writes go through a temp file and os.replace so a
killed process never leaves a half-written entry. Each disk entry carries
its own key and the SHA-256 of its canonical payload JSON; an entry that is
unreadable, lacks a field, or whose key or digest does not match counts as
corrupt and is recomputed, never trusted. So does a sealed entry whose value
the caller's decoder rejects.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile


def _canonical_json(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _same(value):
    return value


def _is_sealed(entry, key):
    """entry is {"key", "sha256", "value"} with this key and a matching digest."""
    return (
        isinstance(entry, dict)
        and entry.keys() == {"key", "sha256", "value"}
        and entry["key"] == key
        and entry["sha256"] == _digest(_canonical_json(entry["value"]))
    )


class Cache:
    def __init__(self, directory=None, enabled=True):
        self.directory = directory
        self.enabled = enabled
        self.memory = {}
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0

    def key(self, *parts):
        return _digest(_canonical_json(parts))

    def _path(self, key):
        return os.path.join(self.directory, key[:2], key + ".json")

    def get(self, key, decode=_same):
        """decode(value) for the value under key, or None on a miss.

        decode raises ValueError on a value it cannot use; a disk entry it
        rejects counts as corrupt and reads as a miss. Memory holds only values
        that were put or already accepted by decode.
        """
        if not self.enabled:
            return None
        if key in self.memory:
            self.hits += 1
            return decode(self.memory[key])
        if self.directory:
            path = self._path(key)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    entry = json.load(fh)
            except (FileNotFoundError, NotADirectoryError):
                pass
            except (OSError, ValueError):
                self.corrupt += 1
            else:
                if _is_sealed(entry, key):
                    value = entry["value"]
                    try:
                        result = decode(value)
                    except ValueError:
                        pass
                    else:
                        self.memory[key] = value
                        self.hits += 1
                        return result
                self.corrupt += 1
        self.misses += 1
        return None

    def put(self, key, value):
        if not self.enabled:
            return
        self.memory[key] = value
        self.puts += 1
        if not self.directory:
            return
        # an unusable directory only costs the disk copy: memory keeps the entry
        path = self._path(key)
        tmp = None
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
            entry = {"key": key, "sha256": _digest(_canonical_json(value)), "value": value}
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(_canonical_json(entry))
            os.replace(tmp, path)
        except OSError:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def stats(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "corrupt": self.corrupt,
        }


_ACTIVE = Cache(directory=os.environ.get("FUNCTORLAB_CACHE_DIR"))


def active_cache():
    return _ACTIVE


def install(store):
    """Make store the active cache; returns the cache it replaces."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, store
    return previous


def configure(directory=None, enabled=True):
    """Install a fresh cache (used by the CLI); returns it."""
    store = Cache(directory=directory, enabled=enabled)
    install(store)
    return store
