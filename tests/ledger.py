"""Decoding of the builder's p-bit ledger, for the tests that compare it with
enumeration."""

from __future__ import annotations


def residues(bits: int) -> set[int]:
    """The residues r whose bit r is set in ``bits``."""
    return {r for r, digit in enumerate(reversed(bin(bits)[2:])) if digit == "1"}
