"""Integer sensor-array algebra: difference coarrays, central ULAs, symmetry.

Sensor positions are non-negative integers in units of the element spacing
(half a wavelength). Everything here is exact integer arithmetic; physical
units only matter at display time.
"""

import json
from dataclasses import dataclass, field

import numpy as np


class ArrayFormatError(ValueError):
    """Raised for malformed array files or element lists."""


@dataclass(frozen=True)
class SensorArray:
    """Strictly increasing non-negative integer sensor positions.

    Input elements may be unsorted, duplicated or shifted; they are
    normalized on construction (sorted, deduplicated, translated so the
    leftmost sensor sits at 0). Empty arrays are rejected. The optional name
    is carried through reports and does not take part in equality.
    """

    elements: tuple
    name: str = field(default="", compare=False)

    def __post_init__(self):
        cleaned = []
        for raw in self.elements:
            try:
                v = int(raw)
            except (TypeError, ValueError):
                raise ArrayFormatError(f"bad element {raw!r}") from None
            if v != raw:
                raise ArrayFormatError(f"non-integer element {raw!r}")
            cleaned.append(v)
        if not cleaned:
            raise ArrayFormatError("array needs at least one element")
        cleaned = sorted(set(cleaned))
        lo = cleaned[0]
        if cleaned[-1] - lo >= 2 ** 63:  # positions are stored as int64
            raise ArrayFormatError(f"aperture {cleaned[-1] - lo} does not fit a 64-bit integer")
        object.__setattr__(self, "elements", tuple(e - lo for e in cleaned))
        if not isinstance(self.name, str):
            raise ArrayFormatError("array name must be a string")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def aperture(self):
        return self.elements[-1]

    def as_array(self):
        """Positions as an int64 vector."""
        return np.asarray(self.elements, dtype=np.int64)

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"SensorArray({list(self.elements)}{label})"


# element budget of one temporary in the chunked pair passes
PAIR_BUDGET = 4_000_000


def pair_blocks(pos):
    """Walk the pairs j > i of sorted positions in bounded row blocks.

    Yields (i, d) with d[r, c] = pos[i + 1 + c] - pos[i + r], a new array
    the caller may overwrite: rows i.. of the pair table against every later
    column. Every pair j > i has d > 0
    and lies in exactly one block; the entries with c < r are no pairs and
    have d <= 0. A block holds at most PAIR_BUDGET entries (at least one
    row) and at most half as many rows as columns, so at most a quarter of
    it is no pairs.
    """
    n = pos.size
    i = 0
    while i < n - 1:
        cols = n - 1 - i
        rows = max(1, min(PAIR_BUDGET // cols, cols // 2))
        yield i, pos[i + 1:] - pos[i:i + rows, None]
        i += rows


def _pair_counts(pos):
    # counts[d] = number of ordered pairs with difference d >= 0
    A = int(pos[-1])
    counts = np.zeros(A + 1, dtype=np.int64)
    counts[0] = pos.size
    for _, d in pair_blocks(pos):
        counts += np.bincount(d[d > 0], minlength=A + 1)
    return counts


class CoarrayProfile:
    """Difference coarray of one array: lags, multiplicities, central ULA.

    Attributes:
        array: the source SensorArray
        aperture: largest possible lag (the array aperture)
        counts: read-only int64 vector, counts[d] = ordered pairs at lag d
            for d in 0..aperture; negative lags mirror by symmetry
        dof: number of distinct lags
        hole_free: True when the lags fill [-aperture, aperture] completely
        central_ula_halfwidth: largest m with all of [-m, m] present
        ula_size: central ULA size M = 2m + 1, the copy spacing factor of
            fractal expansion
    """

    def __init__(self, array):
        self.array = array
        pos = array.as_array()
        self.aperture = int(pos[-1])
        self.counts = _pair_counts(pos)
        self.counts.setflags(write=False)
        present = self.counts > 0
        self.dof = 2 * int(np.count_nonzero(present)) - 1
        self.hole_free = bool(present.all())
        missing = np.nonzero(~present)[0]
        m = int(missing[0]) - 1 if missing.size else self.aperture
        self.central_ula_halfwidth = m
        self.ula_size = 2 * m + 1

    def weight(self, lag):
        """Ordered-pair count at one lag; zero outside the coarray."""
        d = abs(int(lag))
        return int(self.counts[d]) if d <= self.aperture else 0

    def __repr__(self):
        return (f"CoarrayProfile(aperture={self.aperture}, dof={self.dof}, "
                f"hole_free={self.hole_free}, ula_halfwidth={self.central_ula_halfwidth})")


def difference_coarray(array):
    """All pairwise position differences with multiplicities, in one pass."""
    return CoarrayProfile(array)


def reversed_array(array):
    """Reflection about the aperture midpoint, renormalized to start at 0."""
    a = array.aperture
    return SensorArray(tuple(a - e for e in array.elements), name=array.name)


def is_symmetric(array):
    """True when the array equals its own reflection."""
    return reversed_array(array).elements == array.elements


def parse_array(doc, source="array literal"):
    """Build a SensorArray from a decoded JSON document.

    Accepts {"name": str, "elements": [int, ...]} or a bare element list;
    elements are normalized like any other constructor input.
    """
    if isinstance(doc, list):
        doc = {"elements": doc}
    if not isinstance(doc, dict) or "elements" not in doc:
        raise ArrayFormatError(f'{source}: expected an object with an "elements" list')
    name = doc.get("name", "")
    elems = doc["elements"]
    if not isinstance(elems, list):
        raise ArrayFormatError(f"{source}: elements must be a list of integers")
    try:
        return SensorArray(tuple(elems), name=name)
    except ArrayFormatError as exc:
        raise ArrayFormatError(f"{source}: {exc}") from None


def load_array(path):
    """Read one array from a JSON file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ArrayFormatError(f"{path}: {exc}") from None
    return parse_array(doc, source=str(path))


def dump_array(array, path):
    """Write one array as a JSON object."""
    with open(path, "w") as fh:
        json.dump({"name": array.name, "elements": list(array.elements)}, fh)
        fh.write("\n")
