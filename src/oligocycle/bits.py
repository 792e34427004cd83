"""Bit utilities: '0'/'1' strings, Gray code and Knuth's balanced words.

Strings of '0'/'1' characters, most significant bit first within each byte
and each integer field, are the boundary format only: the public functions
take and return them, while the codec works on integers.  Knuth balancing
follows "Efficient balanced codes" (IEEE T-IT 1986).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CorruptDataError, DomainError


_NOT_BITS = str.maketrans("", "", "01")  # deletes every '0' and '1'


def validate_bits(bits: str) -> str:
    """Return *bits* unchanged, or raise DomainError on a non-binary character."""
    if not isinstance(bits, str) or bits.translate(_NOT_BITS):
        raise DomainError("expected a string of '0'/'1' characters")
    return bits


def bits_from_bytes(data: bytes) -> str:
    """Expand bytes into a bit string, MSB first within each byte."""
    return format(int.from_bytes(data, "big"), f"0{8 * len(data)}b") if data else ""


def bytes_from_bits(bits: str) -> bytes:
    """Pack a bit string whose length is a multiple of 8 back into bytes."""
    validate_bits(bits)
    if len(bits) % 8:
        raise DomainError("bit count is not a multiple of 8")
    return int(bits or "0", 2).to_bytes(len(bits) // 8, "big")


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


def balanced_data_bits(size: int) -> int:
    """The largest f whose balanced word, f + ceil(log2 f) + 1 bits, fits in size.

    At least 1.  Every f that fits is below size, so ceil(log2 f) is at most
    b, the bit length of size - 2; hence f = size - 1 - b fits, and of the
    larger f at most the next one does.
    """
    f = max(size - 1 - (size - 2).bit_length(), 1)
    return f + 1 if f + 1 + f.bit_length() + 1 <= size else f


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
