"""Periodic binary sequences and generators for two-level autocorrelation families.

A sequence is a fixed tuple of bits, read cyclically: index i always means
index i mod v, where v is the stored period. Sequences are immutable; every
operation returns a new object. ``PeriodicSequence`` is the one place that
decides the alphabet: it refuses a modulus other than 2 and a value outside
{0, 1}, so no other module checks either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk-scale inputs)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def _integers(items, what: str, convert=int) -> tuple:
    # ``items`` mapped through ``convert``; an entry that it changes or
    # cannot convert (1.7, inf, nan, a string) raises ValueError instead of
    # being truncated. One bulk map and one tuple comparison keep long
    # sequences cheap.
    raw = tuple(items)
    try:
        values = tuple(map(convert, raw))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} is not an integer ({exc})") from None
    if values != raw:
        bad = next(x for x, y in zip(raw, values) if x != y)
        raise ValueError(f"{what} {bad!r} is not an integer")
    return values


def _same_shape(seqs) -> None:
    # Every sequence of ``seqs`` has the first one's period.
    for s in seqs[1:]:
        if s.period != seqs[0].period:
            raise ValueError(f"period mismatch: {seqs[0].period} vs {s.period}")


@dataclass(frozen=True)
class PeriodicSequence:
    """A period-v binary sequence, indexed cyclically.

    ``modulus`` must be 2 and every value 0 or 1; anything else raises
    ValueError. The period is the declared length of ``values``; it is not
    reduced to the minimal period, so a doubled-up sequence keeps its
    declared length. ``value_bytes``, one byte per value, is computed on
    first use and kept; it is not a field, so equality, hashing and repr
    ignore it.
    """

    modulus: int
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _integers(self.values, "value"))
        if self.modulus != 2:
            raise ValueError(f"sequences are binary: modulus must be 2, got {self.modulus}")
        if len(self.values) < 1:
            raise ValueError("a sequence needs at least one element")
        for x in self.values:
            if not 0 <= x < 2:
                raise ValueError(f"value {x} is outside [0, 2)")

    @classmethod
    def _valid(cls, values: tuple[int, ...], value_bytes: bytes | None = None) -> PeriodicSequence:
        # A sequence from values already known to be a tuple of Python ints in
        # {0, 1}: the checks of __post_init__ are skipped. ``value_bytes``,
        # when given, must be bytes(values); it fills the cached property.
        seq = object.__new__(cls)
        object.__setattr__(seq, "modulus", 2)
        object.__setattr__(seq, "values", values)
        if value_bytes is not None:
            seq.__dict__["value_bytes"] = value_bytes
        return seq

    @cached_property
    def value_bytes(self) -> bytes:
        """The values, one byte each."""
        return bytes(self.values)

    @property
    def period(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i % len(self.values)]

    def __iter__(self):
        return iter(self.values)

    def __str__(self) -> str:
        return format_sequence(self)


def left_shift(seq: PeriodicSequence, i: int) -> PeriodicSequence:
    """Return L^i(seq), the sequence starting i places later (i reduced mod v)."""
    v = seq.period
    i %= v
    return PeriodicSequence(2, seq.values[i:] + seq.values[:i])


def _doubled(seq: PeriodicSequence) -> bytes:
    # Two periods of seq's values, one byte each.
    return seq.value_bytes * 2


def shift_equivalence(a: PeriodicSequence, b: PeriodicSequence) -> int | None:
    """Smallest k in [0, v) with a_i = b_(i+k) for all i, or None.

    Requires equal periods. When b has minimal period d < v, the
    returned k is the smallest representative of its class mod d.
    """
    _same_shape((a, b))
    k = _doubled(b).find(a.value_bytes)
    return k if 0 <= k < a.period else None


@dataclass(frozen=True)
class LfsrSpec:
    """A binary linear feedback register.

    ``poly`` holds the characteristic polynomial's coefficient bits, highest
    degree first (length degree+1); leading and constant bits must be 1.
    ``state`` holds the first ``degree`` output bits and must not be all zero.
    """

    degree: int
    poly: tuple[int, ...]
    state: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "poly", _integers(self.poly, "polynomial bit"))
        object.__setattr__(self, "state", _integers(self.state, "state bit"))
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if len(self.poly) != self.degree + 1:
            raise ValueError(
                f"polynomial needs {self.degree + 1} coefficient bits, got {len(self.poly)}"
            )
        if any(bit not in (0, 1) for bit in self.poly + self.state):
            raise ValueError("polynomial and state bits must be 0 or 1")
        if self.poly[0] != 1 or self.poly[-1] != 1:
            raise ValueError("leading and constant polynomial coefficients must be 1")
        if len(self.state) != self.degree:
            raise ValueError(f"state needs {self.degree} bits, got {len(self.state)}")
        if not any(self.state):
            raise ValueError("initial state must not be all zero")


#: Verified maximal-period polynomials (coefficient bits, highest degree first).
PRIMITIVE_POLYS: dict[int, str] = {
    2: "111",
    3: "1011",
    4: "10011",
    5: "100101",
    6: "1000011",
    7: "10000011",
    8: "100011101",
    9: "1000010001",
    10: "10000001001",
}


def gen_mseq(spec: LfsrSpec) -> PeriodicSequence:
    """Run the register for one full cycle and return the period-(2^n - 1) output.

    The recurrence is s_(t+n) = sum of c_d * s_(t+d) over d < n, with c_d the
    coefficient of x^d. Raises ValueError if the state orbit closes before
    2^n - 1 steps (the polynomial is then not maximal for this state).
    """
    n = spec.degree
    target = (1 << n) - 1
    taps = [d for d in range(n) if spec.poly[n - d]]
    state = list(spec.state)
    init = tuple(state)
    out = []
    for step in range(1, target + 1):
        out.append(state[0])
        new = 0
        for d in taps:
            new ^= state[d]
        state = state[1:] + [new]
        if tuple(state) == init and step != target:
            raise ValueError(
                f"state orbit closed after {step} steps; expected period {target}"
            )
    # The constant coefficient is 1, so the state map is invertible: an orbit
    # that did not close early closes at step 2^n - 1.
    return PeriodicSequence(2, tuple(out))


def gen_legendre(v: int, zero_convention: int = 0) -> PeriodicSequence:
    """Binary quadratic-residue indicator sequence of prime period v >= 3.

    Index i in [1, v) maps to 1 when i is a square mod v, else 0; index 0
    takes ``zero_convention``. Two-level autocorrelation holds exactly when
    v = 3 (mod 4), for either convention.
    """
    if not is_prime(v) or v < 3:
        raise ValueError(f"period must be an odd prime >= 3, got {v}")
    if zero_convention not in (0, 1):
        raise ValueError(f"zero convention must be 0 or 1, got {zero_convention}")
    squares = {pow(i, 2, v) for i in range(1, v)}
    values = [zero_convention] + [1 if i in squares else 0 for i in range(1, v)]
    return PeriodicSequence(2, tuple(values))


def parse_sequence(text: str) -> PeriodicSequence:
    """Parse a compact bit string ("1001110") or comma-separated bits ("1,0,0")."""
    text = text.strip()
    if not text:
        raise ValueError("empty sequence text")
    if not text.isascii():  # int() reads every script's decimal digits, and isdigit() passes '²'
        raise ValueError(f"bad sequence text: {text!r}")
    if "," in text:
        try:
            values = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise ValueError(f"bad bit in sequence text: {text!r}") from None
    else:
        if not text.isdigit():
            raise ValueError(f"bad sequence text: {text!r}")
        values = tuple(int(ch) for ch in text)
    return PeriodicSequence(2, values)


def format_sequence(seq: PeriodicSequence) -> str:
    """Compact bit string, as ``parse_sequence`` reads it."""
    return "".join(str(x) for x in seq.values)
