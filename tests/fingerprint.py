"""Deterministic fingerprints of simulation results, shared by the
equivalence suites (kernel equivalence, scenario report equivalence).

A fingerprint is canonical JSON: dict keys sorted, tuples and lists
alike, sets sorted by repr. Two runs that produce the same fingerprint
produced the same observable result.
"""

from __future__ import annotations

import hashlib
import json


def freeze(obj):
    """Deterministic, comparison-friendly form of a report/probe value.

    Atoms pass through; containers recurse; anything else must have an
    address-free repr (asserted) so two separate runs can be compared.
    """
    if isinstance(obj, (str, int, float, bool, type(None))):
        return obj
    if isinstance(obj, dict):
        return {str(k): freeze(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [freeze(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(repr(v) for v in obj)
    r = repr(obj)
    assert "0x" not in r, f"address-dependent repr in fingerprint: {r}"
    return r


def fingerprint(obj) -> str:
    return json.dumps(freeze(obj), sort_keys=True)


def digest(obj) -> str:
    """SHA-256 of :func:`fingerprint` — compact enough to commit as a golden."""
    return hashlib.sha256(fingerprint(obj).encode()).hexdigest()
