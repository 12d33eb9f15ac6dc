"""Calkin-Wilf enumeration of the positive rationals.

Breadth-first order over the tree rooted at 1/1 where a/b has children
a/(a+b) (left) and (a+b)/b (right). Index 0 is 1/1; every positive
rational appears exactly once, in lowest terms.
"""

from fractions import Fraction


def fraction_at(index: int) -> Fraction:
    """Rational at the given enumeration index (0-based)."""
    if index < 0:
        raise IndexError("enumeration index must be >= 0")
    n = index + 1
    a, b = 1, 1
    # Bits of n below its leading 1 encode the root-to-node path.
    for shift in range(n.bit_length() - 2, -1, -1):
        if (n >> shift) & 1:
            a = a + b
        else:
            b = a + b
    return Fraction(a, b)


def index_of(value: Fraction | int | str) -> int:
    """Enumeration index of a positive rational; inverse of fraction_at."""
    q = Fraction(value)
    if q <= 0:
        raise ValueError("enumeration covers positive rationals only")
    a, b = q.numerator, q.denominator
    bits = []
    while (a, b) != (1, 1):
        if a > b:
            bits.append(1)
            a -= b
        else:
            bits.append(0)
            b -= a
    n = 1
    for bit in reversed(bits):
        n = (n << 1) | bit
    return n - 1

