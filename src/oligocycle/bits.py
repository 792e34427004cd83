"""Bit utilities: '0'/'1' strings, Gray code and Knuth's balanced words.

Strings of '0'/'1' characters, most significant bit first within each byte
and each integer field, are the boundary format only: the public functions
take and return them, while the codec works on integers.  Knuth balancing
follows "Efficient balanced codes" (IEEE T-IT 1986).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, TypeVar

from .errors import CorruptDataError, DomainError

T = TypeVar("T")


def validate_bits(bits: str) -> str:
    """Return *bits* unchanged, or raise DomainError on a non-binary character."""
    if not isinstance(bits, str) or bits.strip("01"):
        raise DomainError("expected a string of '0'/'1' characters")
    return bits


def bits_from_bytes(data: bytes) -> str:
    """Expand bytes into a bit string, MSB first within each byte."""
    return "".join(format(b, "08b") for b in data)


def bytes_from_bits(bits: str) -> bytes:
    """Pack a bit string whose length is a multiple of 8 back into bytes."""
    validate_bits(bits)
    if len(bits) % 8:
        raise DomainError("bit count is not a multiple of 8")
    return bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))


def int_from_bits(bits: str) -> int:
    """Interpret a bit string as an unsigned integer; empty means zero."""
    validate_bits(bits)
    return int(bits, 2) if bits else 0


def bits_from_int(value: int, width: int) -> str:
    """Render *value* as exactly *width* bits, MSB first."""
    if value < 0 or width < 0:
        raise DomainError("value and width must be non-negative")
    if value.bit_length() > width:
        raise DomainError(f"{value} does not fit in {width} bits")
    return format(value, f"0{width}b") if width else ""


def gray_encode(value: int) -> int:
    """Reflected binary Gray code of a non-negative integer."""
    if value < 0:
        raise DomainError("Gray code is defined for non-negative integers")
    return value ^ (value >> 1)


def gray_decode(code: int) -> int:
    """Inverse of gray_encode."""
    if code < 0:
        raise DomainError("Gray code is defined for non-negative integers")
    value = 0
    while code:
        value ^= code
        code >>= 1
    return value


def project(values: Sequence[T], mask: str) -> tuple[T, ...]:
    """Keep the entries of *values* whose mask bit is '1', preserving order."""
    validate_bits(mask)
    if len(mask) != len(values):
        raise DomainError("mask length must match the sequence length")
    return tuple(v for v, m in zip(values, mask) if m == "1")


def balanced_data_bits(size: int) -> int:
    """The largest f whose balanced word, f + ceil(log2 f) + 1 bits, fits in size."""
    f = 1
    while f + 1 + f.bit_length() + 1 <= size:
        f += 1
    return f


@lru_cache(maxsize=None)
def flip_layout_complete(f: int) -> bool:
    """Whether balance_word succeeds on every f-bit word."""
    # Flipping one more bit moves the running weight by +-1 and the Gray
    # weight by +-1, so the balance shortfall moves in steps of {-2, 0, +2}
    # and each word weight W chases a single parity-matched target V.  A
    # width-first walk over the flip trajectories, pruned at every k where
    # the target is hit, reaches the final weight f-2W iff some word of
    # weight W escapes every valid k.
    g = (f - 1).bit_length()
    target_total = (f + g + 1) // 2
    k_max = min(f, (1 << g) - 1)
    for weight in range(f + 1):
        v = target_total - (target_total - weight) % 2
        targets = [v - weight - gray_encode(k).bit_count() for k in range(k_max + 1)]
        reachable = {0} - {targets[0]}
        for k in range(f):
            reachable = {z + 1 for z in reachable} | {z - 1 for z in reachable}
            if k + 1 <= k_max:
                reachable.discard(targets[k + 1])
            if not reachable:
                break
        if f - 2 * weight in reachable:
            return False
    return True


def balance_word(word: int, f: int) -> int:
    """The f-bit word with its first k bits flipped, then the Gray code of k in
    ceil(log2 f) bits and one balance bit: a word of half weight."""
    g = (f - 1).bit_length()
    target_total = (f + g + 1) // 2
    weight = word.bit_count()
    for k in range(min(f, (1 << g) - 1) + 1):
        balance = target_total - weight - gray_encode(k).bit_count()
        if balance in (0, 1):
            flipped = word ^ ((1 << f) - (1 << (f - k)))  # the first k bits
            return (flipped << g | gray_encode(k)) << 1 | balance
        if k < f:
            weight += 1 - 2 * (word >> (f - 1 - k) & 1)
    raise DomainError(f"no flip count balances this {f}-bit word")


def unbalance_word(word: int, f: int) -> int:
    """Inverse of balance_word; raises CorruptDataError on a malformed word."""
    g = (f - 1).bit_length()
    if word.bit_count() != (f + g + 1) // 2:
        raise CorruptDataError("block weight is off balance")
    k = gray_decode(word >> 1 & ((1 << g) - 1))
    if k > f:
        raise CorruptDataError("flip count exceeds the word length")
    return (word >> (g + 1)) ^ ((1 << f) - (1 << (f - k)))


def knuth_balance(word: str) -> str:
    """Balance a word by flipping a prefix: output is the flipped word, the
    Gray code of the flip count, and one balance bit, at weight exactly half
    the (even) output length rounded down."""
    validate_bits(word)
    f = len(word)
    if f < 1:
        raise DomainError("cannot balance an empty word")
    return format(balance_word(int(word, 2), f), f"0{f + (f - 1).bit_length() + 1}b")


def knuth_unbalance(word: str) -> str:
    """Invert knuth_balance; raises CorruptDataError on malformed blocks."""
    validate_bits(word)
    f = balanced_data_bits(len(word))
    if f + (f - 1).bit_length() + 1 != len(word):
        raise DomainError(f"{len(word)} is not a balanced block size")
    return format(unbalance_word(int(word, 2), f), f"0{f}b")
