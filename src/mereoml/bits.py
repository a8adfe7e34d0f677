"""Object sets (granules, meanings) as integer bitsets, bit x for object x.

Only :func:`pack_rows` and :func:`unpack_rows` know that order and its range.
"""

from collections.abc import Sequence, Set
from itertools import repeat

import numpy as np

from .errors import ParameterError


def pack_rows(mask: np.ndarray) -> list[int]:
    """Each row of a 2-D boolean mask as an integer bitset, bit y for column y."""
    width = (mask.shape[1] + 7) // 8
    if not width:
        return [0] * len(mask)
    data = np.packbits(mask, axis=1, bitorder="little").tobytes()
    rows = (data[i : i + width] for i in range(0, len(data), width))
    return list(map(int.from_bytes, rows, repeat("little")))


def unpack_rows(bits: Sequence[int], n: int) -> np.ndarray:
    """Bitsets over n objects as a len(bits) x n matrix of 0/1 uint8."""
    if max(bits, default=0) >> n:
        raise ParameterError(f"a bitset holds an object outside the {n} objects")
    width = (n + 7) // 8
    data = b"".join(b.to_bytes(width, "little") for b in bits)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(bits), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def _plain(other) -> frozenset | set | None:
    """``other`` as a built-in set, or None if it is not a set at all."""
    if isinstance(other, MemberView):
        return other.frozen
    if isinstance(other, (set, frozenset)):
        return other
    return frozenset(other) if isinstance(other, Set) else None


def _on_frozen(op):
    """A set operator applied to the view's frozenset and a built-in set."""

    def method(self, other):
        other = _plain(other)
        return NotImplemented if other is None else op(self.frozen, other)

    return method


class MemberView(Set):
    """A set of objects as a read-only set view of its integer bitset.

    ``bits`` has bit x set iff object x is a member.  ``len`` is its
    popcount and :func:`member_bits` reads it as is, so neither decodes a
    member; anything else builds the frozenset of members on first use.  A
    view equals and hashes like that frozenset, its ``&``, ``|``, ``-``,
    ``^`` return plain frozensets (or sets, with a ``set`` on the left), and
    its comparisons are the ``Set`` mixin's.
    """

    __slots__ = ("bits", "_frozen")

    def __init__(self, bits: int):
        self.bits = bits
        self._frozen = None

    @property
    def frozen(self) -> frozenset[int]:
        if self._frozen is None:
            members = np.flatnonzero(unpack_rows([self.bits], self.bits.bit_length()))
            self._frozen = frozenset(members.tolist())
        return self._frozen

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, x) -> bool:
        if type(x) is int:
            return x >= 0 and bool(self.bits >> x & 1)
        return x in self.frozen

    def __iter__(self):
        return iter(self.frozen)

    def __eq__(self, other):
        if isinstance(other, MemberView):
            return self.bits == other.bits
        other = _plain(other)
        return NotImplemented if other is None else self.frozen == other

    def __hash__(self) -> int:
        return hash(self.frozen)

    def __repr__(self) -> str:
        return f"MemberView({sorted(self)})"

    __and__ = _on_frozen(lambda s, o: s & o)
    __or__ = _on_frozen(lambda s, o: s | o)
    __sub__ = _on_frozen(lambda s, o: s - o)
    __xor__ = _on_frozen(lambda s, o: s ^ o)
    __rand__ = _on_frozen(lambda s, o: o & s)
    __ror__ = _on_frozen(lambda s, o: o | s)
    __rsub__ = _on_frozen(lambda s, o: o - s)
    __rxor__ = _on_frozen(lambda s, o: o ^ s)


def member_bits(members: Set[int]) -> int:
    """The members as an integer bitset: bit x is set iff object x is a member."""
    if isinstance(members, MemberView):
        return members.bits
    # a set's members are distinct, so adding their bits sets each once
    return sum(map((1).__lshift__, members))
