"""Two concrete compress-then-reconstruct learners on familiar ground:
bounding rectangles for planar point clouds, and the take-the-maximum
rule for sequentially numbered serial data. Both see positive examples
only and both are sound: the reconstruction contains every sample point.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable


@dataclass(frozen=True, order=True)
class PlanePoint:
    x: Fraction
    y: Fraction


def plane_point(x: Fraction | int | str, y: Fraction | int | str) -> PlanePoint:
    """Build a point from exact inputs ("0.2", "1/5", ints, Fractions)."""
    return PlanePoint(Fraction(x), Fraction(y))


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle with closed boundaries; points on an edge
    count as inside, which round-trip soundness requires."""

    x_min: Fraction
    x_max: Fraction
    y_min: Fraction
    y_max: Fraction

    def __post_init__(self):
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError("rectangle bounds are inverted")

    def contains(self, point: PlanePoint) -> bool:
        return self.x_min <= point.x <= self.x_max and self.y_min <= point.y <= self.y_max


def rect_compress(sample: Iterable[PlanePoint]) -> frozenset[PlanePoint]:
    """Keep the four coordinate-extreme points, collapsed to a set.

    A single point is its own kernel. Ties on an extreme go to the
    lexicographically smallest point; the reconstructed rectangle is the
    same whichever tied point is kept.
    """
    points = sorted(set(sample))
    if not points:
        raise ValueError("sample must be non-empty")
    kernel = {
        min(points, key=lambda p: p.x),
        max(points, key=lambda p: p.x),
        min(points, key=lambda p: p.y),
        max(points, key=lambda p: p.y),
    }
    return frozenset(kernel)


def rect_reconstruct(kernel: Iterable[PlanePoint]) -> Rectangle:
    """Bounding rectangle of the kernel."""
    points = list(kernel)
    if not points:
        raise ValueError("kernel must be non-empty")
    return Rectangle(
        min(p.x for p in points),
        max(p.x for p in points),
        min(p.y for p in points),
        max(p.y for p in points),
    )


def max_estimator(sample: Iterable[int]) -> frozenset[int]:
    """Guess every serial number up to the largest seen: the one-point
    compression learner for counting from uniform serial draws."""
    values = list(sample)
    if not values:
        raise ValueError("sample must be non-empty")
    if min(values) < 1:
        raise ValueError("serial numbers start at 1")
    return frozenset(range(1, max(values) + 1))


def load_plane_csv(path: str) -> list[PlanePoint]:
    """Read plane points from CSV rows `x,y` of exact decimals or num/den
    rationals; lines starting with # are skipped."""
    points: list[PlanePoint] = []
    with open(path, newline="") as handle:
        for row in csv.reader(handle):
            if not row or row[0].lstrip().startswith("#"):
                continue
            points.append(plane_point(row[0].strip(), row[1].strip()))
    return points
