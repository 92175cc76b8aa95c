"""Candidate-solution representations and their canonical serialization.

Four representations: bit vectors, permutations, real vectors, and a
model's assignment for `metafold solve`'s generic route. `REPRESENTATIONS`
holds one record per tag: the class its evaluators take, its JSON payload
both ways, its start sampler and its GA crossover. The JSON form is the
wire/digest canonical form of the RPC tier and tabu digests; a solution
travels as ``{"t": tag, "v": payload}``:

- ``bits``: ``v`` is a string of ``0``/``1`` characters, one per bit
  (``{"t": "bits", "v": "0110"}``); any other payload, a list of numbers
  included, is a `SolutionFormatError`.
- ``perm``: ``v`` is a list of the integers ``0..n-1`` in tour order,
  each a JSON integer: ``[0.7, 1]``, ``["1", "0"]`` and ``[true, false]``
  are a `SolutionFormatError`, not read as ``(0, 1)`` or ``(1, 0)``.
- ``real``: ``v`` is a list of finite JSON numbers (not booleans, not
  strings such as ``"1.5"``).
- ``assignment``: ``v`` is an object from variable names to JSON integers
  (not booleans or floats); a plain dict serializes as an `Assignment`.

A `BitVector` stores its bits in one `bytes` object, `packed`, one 0 or 1
byte per bit. The constructor takes a tuple, list, `bytes` or `bytearray`
(any sized sequence with `count`) of ints, bools, floats or other numbers
equal to 0 or 1, and normalises it to those bytes, so vectors built from
`[1, 0]`, `(True, False)`, `bytes((1, 0))` and `(1.0, 0.0)` are equal, hash
alike, and serialize and parse back to an equal vector. `.bits` builds a
new tuple of ints on each access; it is there for callers outside the
package, and no internal hot path reads it.

A `Permutation` stores its order as a tuple of ints and a `RealVector` its
coordinates as a tuple of floats, whatever iterable of numbers the
constructor was given, so `Permutation([1, 0])`, `Permutation(range(2))`
and `Permutation((1.0, 0.0))` are equal, hash alike, and serialize and
digest alike, as do `RealVector((1, 2))` and `RealVector((1.0, 2.0))`.

Checks sit at the boundaries. Every path that takes outside values checks
them: the `BitVector`, `Permutation` and `RealVector` constructors (the one
way to build each from values), `BitVector.from_string` and
`solution_from_json`. None of them truncates: `BitVector([0.7, 1])` and
`Permutation([0.9, 1.2])` raise ValueError. An internal producer that
can only yield a valid vector from a valid one (bitflip, one-point
crossover, `sample_bits`, swap, two_opt, the Fisher-Yates
`sample_permutation`) builds its result with `_unchecked`, which skips the
check; bitflip, two_opt, the generic route's reassign and one-point
crossover (when a parent was scored) build theirs with `_child`, which
also records the provenance.
Real vectors and order-1 crossover stay checked, as their outputs can be
invalid (an overflow to inf, parents of unequal length).

An `Assignment` is the generic route's solution (see
`whitebox.generic_solve`): a dict from a model's variable names to ints,
which `sample_assignment` draws. Any dict is an assignment to
its evaluators; this subclass only adds the two attributes below.

A `BitVector`, a `Permutation` and an `Assignment` also have two
attributes that are not dataclass fields or dict items, so `==`, `hash`,
`repr`, `dict(...)`, `json.dumps`, `solution_to_json`,
`serialize_solution`, `solution_digest` and pickling all ignore them.
`_memo` is what an incremental evaluator keeps on a solution it scored;
`problems.problem_instance` gives its layout. `_provenance` is `(the
parent's memo, move)` on a child of a scored parent that bitflip (the
move is the flipped indices), one-point crossover (the indices where the
child differs from its nearer parent), two_opt (`(i, j)`, the reversed
segment) or the generic route's reassign (`(name, old value)`) built with
`_child`. Bit-vector moves compose: the child of an unscored bit vector
that carries provenance keeps its memo, with the indices flipped an odd
number of times over both moves as its move. No other move composes. A
child holds no reference to its parent, so it keeps no chain of
ancestors alive. Both start as None.
"""

from __future__ import annotations

import functools
import json
import math
from array import array
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Dict, Optional, Tuple, Union

from .env import (
    _JSON_TYPES,
    Environment,
    ShapeError,
    _advanced,
    _below,
    _from_lanes,
    _new,
    _to_lanes,
    read,
    rng_below,
    rng_bits,
    rng_uniform,
)


class SolutionFormatError(Exception):
    """Serialized solution text violates the representation invariants."""


_BITS_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")
_TEXT_TO_BITS = bytes(0 if c == ord("0") else 1 if c == ord("1") else 2 for c in range(256))
# The containers the constructor converts in C first. Each has `count`, and
# converts to one byte per item exactly when its items are ints in 0..255,
# so all-0/1 bytes of its length are what the count test accepts. A dict or
# set converts too, but has no `count`, so it is not here.
_BYTE_SEQUENCES = (tuple, list, bytes, bytearray, array)


@dataclass(frozen=True, init=False)
class BitVector:
    """A bit vector stored as `packed`, one 0 or 1 byte per bit."""

    packed: bytes
    _provenance = None  # not fields; see the module docstring
    _memo = None

    def __init__(self, bits):
        if type(bits) in _BYTE_SEQUENCES:
            try:
                # ints and bools; bytearray reads a tuple 3x faster than bytes does
                packed = bytes(bytearray(bits))
            except (TypeError, ValueError):  # floats, negative or wider ints
                packed = b""
            if len(packed) == len(bits) and packed and not packed.translate(None, b"\x00\x01"):
                object.__setattr__(self, "packed", packed)
                return
        try:
            valid = len(bits) >= 1 and bits.count(0) + bits.count(1) == len(bits)
        except (AttributeError, TypeError):  # not a sequence of numbers
            valid = False
        if not valid:
            raise ValueError("bits must be a nonempty 0/1 sequence")
        # floats and other numbers equal to 0 or 1, or a buffer of wider
        # items, say array("d")
        object.__setattr__(self, "packed", bytes(1 if b == 1 else 0 for b in bits))

    @classmethod
    def _unchecked(cls, packed: bytes) -> "BitVector":
        """A vector an internal producer built from valid 0/1 bytes; not checked."""
        new = object.__new__(cls)
        new.__dict__["packed"] = packed  # what object.__setattr__ does, in a third of the time
        return new

    def __reduce__(self):
        # pickle and copy rebuild from the bits alone: a copy is no child,
        # and a memo is only good on the solution that its evaluator scored
        return type(self), (self.packed,)

    @property
    def bits(self) -> Tuple[int, ...]:
        """The bits as a new tuple of ints, built on each access."""
        return tuple(self.packed)

    @staticmethod
    def from_string(text: str) -> "BitVector":
        # Any byte but '0'/'1' maps to 2, which the constructor rejects;
        # non-ASCII text raises UnicodeEncodeError, a ValueError.
        if type(text) is not str:
            got = _JSON_TYPES.get(type(text)) or type(text).__name__
            raise TypeError(f"bits payload must be a 0/1 string, got {got}")
        return BitVector(text.encode("ascii").translate(_TEXT_TO_BITS))

    def to_string(self) -> str:
        return self.packed.translate(_BITS_TO_TEXT).decode("ascii")

    def __len__(self):
        return len(self.packed)


@dataclass(frozen=True, init=False)
class Permutation:
    """A tour, `order`, of the integers 0..n-1, stored as a tuple of ints."""

    order: Tuple[int, ...]
    _provenance = None  # not fields; see the module docstring
    _memo = None

    def __init__(self, order):
        order = tuple(order)
        if sorted(order) != list(range(len(order))):
            raise ValueError("not a permutation of 0..n-1")
        if not set(map(type, order)) <= {int}:
            order = tuple(map(int, order))  # numbers equal to 0..n-1, say 1.0 or True
        object.__setattr__(self, "order", order)

    @classmethod
    def _unchecked(cls, order: Tuple[int, ...]) -> "Permutation":
        """A permutation an internal producer built from valid input; not checked."""
        new = object.__new__(cls)
        new.__dict__["order"] = order  # what object.__setattr__ does, in a third of the time
        return new

    def __reduce__(self):
        # as for BitVector: rebuild from the order alone
        return type(self), (self.order,)

    def __len__(self):
        return len(self.order)


@dataclass(frozen=True, init=False)
class RealVector:
    """A point, `coords`, stored as a tuple of finite floats."""

    coords: Tuple[float, ...]

    def __init__(self, coords):
        coords = tuple(coords)
        try:
            finite = all(map(math.isfinite, coords))
        except (OverflowError, TypeError):  # an int too large for a float, or no number
            finite = False
        if not finite:
            raise ValueError("coordinates must be finite real numbers")
        object.__setattr__(self, "coords", tuple(map(float, coords)))

    def __len__(self):
        return len(self.coords)


class Assignment(dict):
    """A model's assignment, variable name -> int, that can carry the two
    attributes of the module docstring. It is a dict in every other way."""

    _provenance = None  # not items; see the module docstring
    _memo = None

    @classmethod
    def _unchecked(cls, mapping) -> "Assignment":
        """An assignment an internal producer built from a valid one; not checked."""
        return cls(mapping)

    def __reduce__(self):
        # as for BitVector: rebuild from the items alone
        return type(self), (dict(self),)


Solution = Union[BitVector, Permutation, RealVector, Assignment]


def _child(parent, value, move):
    """`parent`'s child, `value` (packed bits, order or a mapping), built by
    `move`; not checked. It carries `(parent._memo, move)` if the parent was
    scored. A bit vector's child of an unscored parent that carries
    provenance composes the two moves: it keeps the first memo, and its
    move is the positions flipped an odd number of times."""
    child = parent._unchecked(value)
    if parent._memo is not None:
        child.__dict__["_provenance"] = (parent._memo, move)
    elif parent._provenance is not None and type(parent) is BitVector:
        memo, first = parent._provenance
        child.__dict__["_provenance"] = (memo, tuple(set(first).symmetric_difference(move)))
    return child


def sample_bits(n: int):
    def sample(env):
        bits, env = rng_bits(env, n)
        return BitVector._unchecked(bits), env

    return sample


def sample_permutation(n: int):
    # Fisher-Yates, descending index order.
    def sample(env):
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j, env = rng_below(env, i + 1)
            order[i], order[j] = order[j], order[i]
        return Permutation._unchecked(tuple(order)), env

    return sample


def sample_box(d: int, lo: float, hi: float):
    def sample(env):
        coords = []
        for _ in range(d):
            u, env = rng_uniform(env)
            coords.append(lo + u * (hi - lo))
        return RealVector(tuple(coords)), env

    return sample


def sample_assignment(domains: Dict[str, Tuple[int, int]]):
    # each variable uniform in its domain lo..hi, drawn in `domains` order
    def sample(env):
        assignment = Assignment()
        for name, (lo, hi) in domains.items():
            offset, env = rng_below(env, hi - lo + 1)
            assignment[name] = lo + offset
        return assignment, env

    return sample


def _two_cuts(env: Environment, n: int):
    """Two distinct cut points in 0..n-1 as (i, j) with i < j, for n >= 2:
    i is drawn below n, then j below n - 1 skipping over i."""
    seed, counter = env.rng
    i, counter = _below(seed, counter, n)
    j, counter = _below(seed, counter, n - 1)
    env = _new(Environment, (env.entries, _advanced(seed, counter)))
    if j >= i:
        return (i, j + 1), env
    return (j, i), env


def crossover_one_point():
    """Bit-vector one-point crossover at a cut in 1..n-1. A 1-bit vector
    has no cut, so its parents pass through unchanged and nothing is drawn.

    If a parent was scored, each child is built with `_child` from its
    nearer parent, the one it differs from in fewer positions, with those
    positions as its move (see the module docstring)."""

    def step(pair, env):
        a, b = pair
        n = len(a)
        if n < 2:
            return (a, b), env
        cut, env = rng_below(env, n - 1)
        cut += 1
        pa, pb = a.packed, b.packed
        c1, c2 = pa[:cut] + pb[cut:], pb[:cut] + pa[cut:]
        if a._memo is None and b._memo is None:
            return (BitVector._unchecked(c1), BitVector._unchecked(c2)), env
        # 1 where the parents differ: c1 differs from a after the cut and
        # from b before it, c2 from b after it and from a before it
        d = (int.from_bytes(pa, "big") ^ int.from_bytes(pb, "big")).to_bytes(n, "big")
        if d.count(1, cut) <= d.count(1, 0, cut):
            move = tuple(compress(range(cut, n), d[cut:]))
            return (_child(a, c1, move), _child(b, c2, move)), env
        move = tuple(compress(range(cut), d[:cut]))
        return (_child(b, c1, move), _child(a, c2, move)), env

    return step


def crossover_order1():
    """Order-1 permutation crossover over a random segment. One element has
    no two cuts, so its parents pass through unchanged and nothing is drawn."""

    def step(pair, env):
        a, b = pair
        if len(a) < 2:
            return (a, b), env
        (i, j), env = _two_cuts(env, len(a))

        def child(keep, fill):
            segment = keep.order[i : j + 1]
            held = set(segment)
            rest = [g for g in fill.order if g not in held]
            out = rest[:i] + list(segment) + rest[i:]
            return Permutation(tuple(out))

        return (child(a, b), child(b, a)), env

    return step


def crossover_blend():
    """Real-vector blend: per coordinate, children are the two convex mixes
    with a fresh uniform weight."""

    def step(pair, env):
        a, b = pair
        c1, c2 = [], []
        for x, y in zip(a.coords, b.coords):
            u, env = rng_uniform(env)
            c1.append(u * x + (1 - u) * y)
            c2.append(u * y + (1 - u) * x)
        return (RealVector(tuple(c1)), RealVector(tuple(c2))), env

    return step


def _json_items(payload, kind, types, tag: str, what: str):
    """`payload` if it is a `kind` (list or dict) whose items, a dict's values, have
    types all in `types` (a bool is not an int here); else SolutionFormatError."""
    items = payload.values() if type(payload) is dict else payload
    if type(payload) is not kind or not set(map(type, items)) <= types:
        raise SolutionFormatError(f"{tag} payload must be {what}")
    return payload


@dataclass(frozen=True)
class Representation:
    cls: type  # the class its evaluators take; a solution's record is the first its MRO names
    to_json: Callable  # solution -> JSON payload
    from_json: Callable  # JSON payload -> solution; raises on an invalid one
    sampler: Callable  # (size, metadata) -> start sampler, env -> (solution, env)
    crossover: Optional[Callable]  # () -> GA crossover, or None where a GA has none


REPRESENTATIONS: Dict[str, Representation] = {
    "bits": Representation(
        BitVector, BitVector.to_string, BitVector.from_string, lambda n, _: sample_bits(n),
        crossover_one_point,
    ),
    "perm": Representation(
        Permutation, lambda sol: list(sol.order),
        lambda v: Permutation(_json_items(v, list, {int}, "perm", "a list of JSON integers")),
        lambda n, _: sample_permutation(n), crossover_order1,
    ),
    "real": Representation(
        RealVector, lambda sol: list(sol.coords),
        lambda v: RealVector(_json_items(v, list, {int, float}, "real", "a list of JSON numbers")),
        lambda d, meta: sample_box(d, *meta["bounds"]), crossover_blend,
    ),
    "assignment": Representation(
        dict, dict,
        lambda v: Assignment(_json_items(v, dict, {int}, "assignment", "an object of JSON integers")),
        lambda n, meta: sample_assignment(meta["domains"]), None,
    ),
}
_TAG_OF = {record.cls: tag for tag, record in REPRESENTATIONS.items()}


def representation_of(sol: Solution) -> str:
    for cls in type(sol).__mro__:
        if cls in _TAG_OF:
            return _TAG_OF[cls]
    raise TypeError(f"not a solution: {type(sol).__name__}")


def solution_to_json(sol: Solution) -> dict:
    tag = representation_of(sol)
    return {"t": tag, "v": REPRESENTATIONS[tag].to_json(sol)}


def serialize_solution(sol: Solution) -> str:
    return json.dumps(solution_to_json(sol), sort_keys=True, separators=(",", ":"))


# A solution's JSON, as `read` takes it; its payload is read by its
# representation's `from_json`.
_SOLUTION_SHAPE = {"t": "string", "v": "any"}


def solution_from_json(obj: dict) -> Solution:
    try:
        tag, payload = read(obj, _SOLUTION_SHAPE, "solution")["t"], obj["v"]
        record = REPRESENTATIONS.get(tag)
        if record is None:
            raise SolutionFormatError(f"unknown representation tag: {tag!r}")
        return record.from_json(payload)
    except (ValueError, TypeError) as exc:  # a ShapeError, or a payload its record refuses
        raise SolutionFormatError(str(exc)) from exc


def deserialize_solution(text: str, representation: str) -> Solution:
    try:
        obj = read(json.loads(text), "object", "solution")
    except ShapeError as exc:
        raise SolutionFormatError(str(exc)) from exc
    if obj.get("t") != representation:
        raise SolutionFormatError(
            f"expected representation {representation!r}, got {obj.get('t')!r}"
        )
    return solution_from_json(obj)


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv(h: int, data: bytes) -> int:
    """FNV-1a over `data`, starting from state `h`."""
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


# A bit vector serializes as this prefix, one "0"/"1" byte per bit, then '"}'.
_BITS_PREFIX = _fnv(_FNV_OFFSET, b'{"t":"bits","v":"')
_PRIME_8 = pow(_FNV_PRIME, 8, 1 << 64)


@functools.lru_cache(maxsize=1)
def _bits_step_table() -> array:
    """FNV-1a over 8 bit characters as one step: the state h goes to
    `h * _PRIME_8 + table[p << 8 | (h & 0xFF)]` (mod 2^64), where the 8 bits
    of p are the characters, first one highest.

    A byte xor changes only the state's low byte, and a product's low byte
    depends only on its factors' low bytes, so the low byte evolves on its
    own and what the 8 steps add to `h * _PRIME_8` depends on (p, h & 0xFF)
    alone. Each entry is the run from the low byte l alone, minus
    l * _PRIME_8; the 256 values of l run at once, as lanes.
    """
    ones = _to_lanes(array("Q", [1]) * 256)
    low = ones * _MASK64
    starts = _to_lanes(array("Q", range(256)))
    minus_starts = _to_lanes(array("Q", (-l * _PRIME_8 & _MASK64 for l in range(256))))
    table = array("Q")
    for p in range(256):
        h = starts
        for shift in range(7, -1, -1):
            h = (h ^ (0x30 | (p >> shift) & 1) * ones) * _FNV_PRIME & low
        table.extend(_from_lanes(h + minus_starts, 256))
    return table


def solution_digest(sol: Solution) -> int:
    """Stable 64-bit FNV-1a over the canonical serialization."""
    if not isinstance(sol, BitVector):
        return _fnv(_FNV_OFFSET, serialize_solution(sol).encode("utf-8"))
    text = sol.to_string()
    whole = len(text) - len(text) % 8
    h = _BITS_PREFIX
    if whole:
        table = _bits_step_table()
        for p in int(text[:whole], 2).to_bytes(whole // 8, "big"):
            h = (h * _PRIME_8 + table[p << 8 | (h & 0xFF)]) & _MASK64
    return _fnv(h, (text[whole:] + '"}').encode("ascii"))
