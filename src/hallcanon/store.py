"""Content-addressed on-disk store of JSON records.

One record per key, at <root>/<quiver-id>/<sha256 of the key's canonical
JSON>.json.  The quiver's directory is its name with ``:`` and ``/`` made
``_``; a name longer than ``MAX_DIR_NAME`` characters (an inline JSON
quiver spells out every vertex and arrow) is replaced by ``sha256-`` and
its digest, since file systems cap a name at 255 bytes.  A record holds
its ``version``, its ``key``, ``created_at``, the payload's fields and a
``checksum``, the sha256 of the record without it.  A record is served
only if it is a JSON object of this version whose checksum holds and whose
key is the one its file name is the digest of; anything else reads as
missing, and ``verify``/``gc`` report or remove it.
The store holds Hall polynomials and certified bundles, what ``hallpoly``
and ``canonical`` print; lifted words are memoized in process.  This
module imports no algebra layer, so a run served from the store loads none.
Digests come from the interpreter's own SHA-256 (``_sha2``/``_sha256``, the
one ``hashlib`` uses without OpenSSL), so a run with a store loads no
OpenSSL; ``hashlib`` serves only an interpreter built without it.  The
digests are the same either way.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

# The built-in SHA-256 adds no measurable memory; ``hashlib`` loads OpenSSL,
# about 3.5 MB of a store run's peak.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # an interpreter built without its own SHA-256
        from hashlib import sha256

STORE_VERSION = 1
MAX_DIR_NAME = 128


def _digest(obj) -> str:
    """sha256 of obj's canonical JSON: store file names and record checksums."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return sha256(text.encode()).hexdigest()


def _checksum(record: dict) -> str:
    return _digest({k: v for k, v in record.items() if k != "checksum"})


def _jsonable(obj):
    if isinstance(obj, tuple):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, (list, dict, str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def _load(path: str):
    """The record at path, or None if it is missing, unreadable, not a JSON
    object, of another version, fails its checksum or holds a key whose
    digest is not its file name."""
    try:
        with open(path) as fh:
            record = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    if record.get("version") != STORE_VERSION or record.get("checksum") != _checksum(record):
        return None
    if os.path.basename(path) != _digest(record.get("key")) + ".json":
        return None
    return record


class CacheStore:
    """One JSON file per key under <root>/<quiver-id>/<keyhash>.json."""

    def __init__(self, root: str):
        self.root = root

    def path_for(self, quiver_id: str, key) -> str:
        h = _digest(_jsonable(key))
        safe = quiver_id.replace(":", "_").replace("/", "_")
        if len(safe) > MAX_DIR_NAME:
            safe = "sha256-" + _digest(quiver_id)
        return os.path.join(self.root, safe, f"{h}.json")

    def get(self, quiver_id: str, key):
        return _load(self.path_for(quiver_id, key))

    def put(self, quiver_id: str, key, payload: dict) -> dict:
        record = {
            "version": STORE_VERSION,
            "key": _jsonable(key),
            "created_at": time.time(),
            **payload,
        }
        record["checksum"] = _checksum(record)
        path = self.path_for(quiver_id, key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                # One dumps call runs the C encoder; json.dump streams
                # through the pure-Python one.  The text is the same.
                fh.write(json.dumps(record, sort_keys=True))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return record

    def entries(self):
        if not os.path.isdir(self.root):
            return
        for sub in sorted(os.listdir(self.root)):
            d = os.path.join(self.root, sub)
            if not os.path.isdir(d):
                continue
            for name in sorted(os.listdir(d)):
                if name.endswith(".json"):
                    yield os.path.join(d, name)

    def verify(self):
        """Return a list of (path, ok) for every record in the store."""
        return [(path, _load(path) is not None) for path in self.entries()]

    def gc(self):
        """Remove corrupt or out-of-version records; returns removed paths."""
        removed = []
        for path, ok in self.verify():
            if not ok:
                os.unlink(path)
                removed.append(path)
        return removed
