"""Content-addressed caching for Groebner output.

Only bases that need the Buchberger loop come here: a module spanned by
terms gets its basis from its minimal terms (groebner.spans_terms), which
costs less than building a key, so it never reads or writes an entry.

Keys are SHA-256 digests of a canonical JSON rendering of the parts the caller
names (for a Groebner basis: kind, ring and order signatures, twists, rank and
the generators' term rows); values are JSON.
A hit must be byte-reproducible from the key's content, so cached and fresh
runs give identical results.

One tier: a directory (FUNCTORLAB_CACHE_DIR or configure()). Without one
the cache is off: the caller builds no key and nothing is counted. Within
a process each basis is kept by the Submodule that owns it, so the cache
only carries bases from one process to the next. Disk writes go through a
temp file and os.replace so a killed process never leaves a half-written
entry. Each entry carries its own key and the SHA-256 of its canonical
payload JSON; an entry that is unreadable, lacks a field, or whose key or
digest does not match counts as corrupt and is recomputed, never trusted.
So does a sealed entry whose value the caller's decoder rejects.
"""

from __future__ import annotations

import json
import os
import tempfile


def _canonical_json(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _digest(text):
    import hashlib  # here, not at import: it loads OpenSSL, and only entries need it

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
    """The disk cache under directory; off when directory is None."""

    def __init__(self, directory=None):
        self.directory = directory or None
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

        decode raises ValueError on a value it cannot use; an entry it
        rejects counts as corrupt and reads as a miss.
        """
        if not self.directory:
            return None
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (FileNotFoundError, NotADirectoryError):
            pass
        except (OSError, ValueError):
            self.corrupt += 1
        else:
            if _is_sealed(entry, key):
                try:
                    result = decode(entry["value"])
                except ValueError:
                    pass
                else:
                    self.hits += 1
                    return result
            self.corrupt += 1
        self.misses += 1
        return None

    def put(self, key, value):
        if not self.directory:
            return
        self.puts += 1
        # an unusable directory only costs the entry: the caller has the value
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
    """Install a fresh cache (used by the CLI); returns it. enabled=False is
    the same as no directory."""
    store = Cache(directory if enabled else None)
    install(store)
    return store
