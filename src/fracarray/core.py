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


def _checked_element(raw):
    # True == 1, so a boolean would otherwise pass as a position
    if isinstance(raw, (bool, np.bool_)):
        raise ArrayFormatError(f"bad element {raw!r}")
    try:
        v = int(raw)
    except (TypeError, ValueError, OverflowError):
        raise ArrayFormatError(f"bad element {raw!r}") from None
    if v != raw:
        raise ArrayFormatError(f"non-integer element {raw!r}")
    return v


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
        raw_elements = tuple(self.elements)
        # exact ints (expand's tolist(), decoded JSON) need no element checks
        if raw_elements and set(map(type, raw_elements)) <= {int}:
            cleaned = raw_elements
        else:
            cleaned = [_checked_element(raw) for raw in raw_elements]
            if not cleaned:
                raise ArrayFormatError("array needs at least one element")
        cleaned = sorted(set(cleaned))
        lo = cleaned[0]
        if cleaned[-1] - lo >= 2 ** 63:  # positions are stored as int64
            raise ArrayFormatError(f"aperture {cleaned[-1] - lo} does not fit a 64-bit integer")
        if lo:
            cleaned = [e - lo for e in cleaned]
        object.__setattr__(self, "elements", tuple(cleaned))
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


def pair_blocks(pos, rows=None):
    """Walk the unordered pairs of n sorted positions as a folded table.

    Row g of the table is |pos[(c + g) % n] - pos[c]| for c = 0..n-1: the
    pair (c, c + g), or (c + g - n, c) once c + g wraps. Rows 1..n//2 hold
    every pair i < j exactly once, in row j - i or n - (j - i). For even n,
    the second half of row n/2 repeats its first half and is zeroed, so
    every pair entry is positive and those repeats are the only zeros.

    Yields (g, d) with d[r] the table row g + r, from row n//2 down to row
    1, in blocks of at most `rows` rows and at most PAIR_BUDGET entries (at
    least one row). Every d is a view of one reused int64 buffer, valid
    until the next block is asked for.
    """
    n = pos.size
    half = n // 2
    if half == 0:
        return
    rows = min(half, max(1, PAIR_BUDGET // n), rows or half)
    buf = np.empty((rows, n), dtype=np.int64)
    ext = np.concatenate([pos, pos[:-1]])
    # wrapped[g, c] = ext[g + c] = pos[(c + g) % n], a view of ext
    wrapped = np.ndarray((n, n), ext.dtype, buffer=ext, strides=(ext.itemsize,) * 2)
    top = half
    while top > 0:
        g = max(1, top - rows + 1)
        d = buf[:top + 1 - g]
        np.subtract(wrapped[g:top + 1], pos, out=d)
        np.abs(d, out=d)
        if top == half and n % 2 == 0:
            d[-1, half:] = 0
        yield g, d
        top = g - 1


def _pair_counts(pos):
    # counts[d] = number of ordered pairs with difference d >= 0; the
    # zeroed repeat of an even row lands at lag 0, which is set after
    A = int(pos[-1])
    counts = np.zeros(A + 1, dtype=np.int64)
    for _, d in pair_blocks(pos):
        counts += np.bincount(d.ravel(), minlength=A + 1)
    counts[0] = pos.size
    return counts


class CoarrayProfile:
    """Difference coarray of one array: lags, multiplicities, central ULA.

    Attributes:
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

    def __repr__(self):
        return (f"CoarrayProfile(aperture={self.aperture}, dof={self.dof}, "
                f"hole_free={self.hole_free}, ula_halfwidth={self.central_ula_halfwidth})")


def difference_coarray(array):
    """All pairwise position differences with multiplicities, in one pass.

    The profile is built once per array and kept on it: a SensorArray never
    changes, so every later call returns the same profile."""
    try:
        return array._coarray
    except AttributeError:
        # racing threads each build an equal profile, and no lock serialises them
        profile = CoarrayProfile(array)
        object.__setattr__(array, "_coarray", profile)
        return profile


def is_symmetric(array):
    """True when each element and the one at the mirror index sum to the
    aperture: the array equals its reflection about the aperture midpoint."""
    e = array.elements
    return all(a + b == array.aperture for a, b in zip(e, reversed(e)))


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


def _array_json(array):
    """The text of an array file: one JSON object and a newline."""
    return json.dumps({"name": array.name, "elements": list(array.elements)}) + "\n"


def dump_array(array, path):
    """Write one array as a JSON object."""
    with open(path, "w") as fh:
        fh.write(_array_json(array))
