"""Run manifests: every output embeds (JSON) or accompanies (CSV) a record of
the command line, parameter set, artifact version and a checksum of the
canonical payload.  Reruns with identical manifests produce identical payload
checksums; Monte Carlo runs are covered through their seeds.

Outputs reach their path through ``atomic_writer`` only, so a failed run
leaves no file; a CSV payload is written and hashed a block at a time
(``TextChecksum``), never held whole."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from datetime import datetime, timezone

from . import __version__


def canonical_json(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def build_manifest(argv, params):
    return {
        "command": " ".join(argv),
        "params": params,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def attach_checksum(manifest, payload):
    manifest = dict(manifest)
    manifest["payload_sha256"] = hashlib.sha256(
        canonical_json(payload).encode()
    ).hexdigest()
    return manifest


class TextChecksum:
    """The payload checksum of a str payload fed in pieces, equal to
    ``attach_checksum``'s.  ``canonical_json`` of a str is a quote, the
    escape of each character and a quote; a character's escape does not
    depend on its neighbours, so hashing the escape of each piece in turn
    covers the whole text without holding it."""

    def __init__(self):
        self._sha = hashlib.sha256(b'"')

    def update(self, piece):
        self._sha.update(canonical_json(piece)[1:-1].encode())

    def hexdigest(self):
        sha = self._sha.copy()
        sha.update(b'"')
        return sha.hexdigest()


@contextlib.contextmanager
def atomic_writer(path):
    """A text handle on a temp file beside ``path``, renamed onto it when the
    block ends and unlinked if anything raises: no partial files on error."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text):
    """Write ``text`` to ``path`` through ``atomic_writer``."""
    with atomic_writer(path) as handle:
        handle.write(text)
