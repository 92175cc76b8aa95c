"""Candidate-solution representations and their canonical serialization.

Three closed representations: bit vectors, permutations, and real vectors.
The JSON serialization here is the wire/digest canonical form used by both
the RPC tier and tabu digests. A solution travels as
``{"t": tag, "v": payload}``:

- ``bits``: ``v`` is a string of ``0``/``1`` characters, one per bit
  (``{"t": "bits", "v": "0110"}``); any other payload, a list of numbers
  included, is a `SolutionFormatError`.
- ``perm``: ``v`` is a list of the integers ``0..n-1`` in tour order.
- ``real``: ``v`` is a list of finite numbers.

Every bit tuple the constructor accepts serializes to this form and parses
back to an equal vector (bools and floats equal to 0/1 come back as ints).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Tuple, Union


class SolutionFormatError(Exception):
    """Serialized solution text violates the representation invariants."""


_BITS_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")
_TEXT_TO_BITS = bytes(0 if c == ord("0") else 1 if c == ord("1") else 2 for c in range(256))


@dataclass(frozen=True)
class BitVector:
    bits: Tuple[int, ...]

    def __post_init__(self):
        bits = self.bits
        try:
            valid = len(bits) >= 1 and bits.count(0) + bits.count(1) == len(bits)
        except (AttributeError, TypeError):  # not a sequence of numbers
            valid = False
        if not valid:
            raise ValueError("bits must be a nonempty 0/1 sequence")
        if not isinstance(bits, tuple):  # a list: keep it hashable and comparable
            object.__setattr__(self, "bits", tuple(bits))

    @staticmethod
    def of(bits) -> "BitVector":
        return BitVector(tuple(int(b) for b in bits))

    @staticmethod
    def from_string(text: str) -> "BitVector":
        # Any byte but '0'/'1' maps to 2, which the constructor rejects;
        # non-ASCII text raises UnicodeEncodeError, a ValueError.
        return BitVector(tuple(text.encode("ascii").translate(_TEXT_TO_BITS)))

    def to_string(self) -> str:
        try:
            raw = bytes(self.bits)
        except TypeError:  # floats (and other numbers) equal to 0 or 1
            raw = bytes(map(bool, self.bits))
        return raw.translate(_BITS_TO_TEXT).decode("ascii")

    def __len__(self):
        return len(self.bits)


@dataclass(frozen=True)
class Permutation:
    order: Tuple[int, ...]

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("not a permutation of 0..n-1")

    @staticmethod
    def of(order) -> "Permutation":
        return Permutation(tuple(int(i) for i in order))

    def __len__(self):
        return len(self.order)


@dataclass(frozen=True)
class RealVector:
    coords: Tuple[float, ...]

    def __post_init__(self):
        if any(not math.isfinite(c) for c in self.coords):
            raise ValueError("coordinates must be finite")

    @staticmethod
    def of(coords) -> "RealVector":
        return RealVector(tuple(float(c) for c in coords))

    def __len__(self):
        return len(self.coords)


Solution = Union[BitVector, Permutation, RealVector]


def representation_of(sol: Solution) -> str:
    if isinstance(sol, BitVector):
        return "bits"
    if isinstance(sol, Permutation):
        return "perm"
    if isinstance(sol, RealVector):
        return "real"
    raise TypeError(f"not a solution: {type(sol).__name__}")


def solution_to_json(sol: Solution) -> dict:
    tag = representation_of(sol)
    if tag == "bits":
        return {"t": "bits", "v": sol.to_string()}
    if tag == "perm":
        return {"t": "perm", "v": list(sol.order)}
    return {"t": "real", "v": list(sol.coords)}


def serialize_solution(sol: Solution) -> str:
    return json.dumps(solution_to_json(sol), sort_keys=True, separators=(",", ":"))


def solution_from_json(obj: dict) -> Solution:
    try:
        tag, payload = obj["t"], obj["v"]
    except (TypeError, KeyError) as exc:
        raise SolutionFormatError(f"malformed solution object: {obj!r}") from exc
    try:
        if tag == "bits":
            if not isinstance(payload, str):
                raise SolutionFormatError(
                    f"bits payload must be a 0/1 string, got {type(payload).__name__}"
                )
            return BitVector.from_string(payload)
        if tag == "perm":
            return Permutation.of(payload)
        if tag == "real":
            return RealVector.of(payload)
    except (ValueError, TypeError) as exc:
        raise SolutionFormatError(str(exc)) from exc
    raise SolutionFormatError(f"unknown representation tag: {tag!r}")


def deserialize_solution(text: str, representation: str) -> Solution:
    obj = json.loads(text)
    if obj.get("t") != representation:
        raise SolutionFormatError(
            f"expected representation {representation!r}, got {obj.get('t')!r}"
        )
    return solution_from_json(obj)


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def solution_digest(sol: Solution) -> int:
    """Stable 64-bit FNV-1a over the canonical serialization."""
    h = _FNV_OFFSET
    for byte in serialize_solution(sol).encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h
