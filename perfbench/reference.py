"""A fixed unit of work that tracks the host's speed during a run.

A shared host can change speed by 1.7x from one second to the next and
drift by a third over minutes, in CPU time as in wall time (measured on a
2-CPU x86_64 virtual machine).  The timed loop runs this snippet at
regular points of the run and the latency metrics are reported as
multiples of its mean time in the same run: the same kind of work
(interpreter, canonical JSON, SHA3-256, base32, one ed25519 verification
through ``cryptography``) slows down with the host in the same
proportion, so the ratio reflects what satakit does, not how busy the
host was.

It never calls satakit, so no change to the program can change it.
Workloads whose ops are whole processes run it as a script, in a fresh
interpreter of their own (see ``wl_cli.Workload.reference``).
"""

from __future__ import annotations

import base64
import hashlib
import json

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUB = _KEY.public_key()
_DOC = {
    "sattestor_domain": "reference.example",
    "sattestees": [{"domain": f"site{i}.example", "labels": ["news"], "n": i} for i in range(4)],
    "refreshed_on": "2020-09-01",
}
_MSG = json.dumps(_DOC, sort_keys=True, separators=(",", ":")).encode()
_SIG = _KEY.sign(_MSG)


def run() -> None:
    text = json.dumps(json.loads(_MSG), sort_keys=True, separators=(",", ":")).encode()
    digest = hashlib.sha3_256(text).digest()
    label = base64.b32encode(digest + digest[:3]).decode().lower()
    total = 0
    for ch in label:
        total += ord(ch)
    if text != _MSG or total <= 0:
        raise AssertionError("reference work gave a different result")
    _PUB.verify(_SIG, text)


if __name__ == "__main__":
    run()
