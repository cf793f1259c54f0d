"""Integer sensor-array algebra: difference coarrays, central ULAs, symmetry.

Sensor positions are non-negative integers in units of the element spacing
(half a wavelength). Everything here is exact integer arithmetic; physical
units only matter at display time.
"""

import json
from dataclasses import dataclass, field
from functools import cached_property

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

    @classmethod
    def _trusted(cls, elements):
        """The unnamed array of elements that are already normalized: distinct
        ints, ascending from 0, as the design search decodes its optima. They
        are taken as given, without the constructor's checks."""
        array = object.__new__(cls)
        object.__setattr__(array, "elements", tuple(elements))
        object.__setattr__(array, "name", "")
        return array

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
# entries per block of the walk that counts pairs
COUNT_BLOCK = 1 << 16
# fewest sensors counted from a factorisation; below it the walk is faster
FACTOR_MIN = 256


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
    # zeroed repeat of an even row lands at lag 0, which is set after.
    # Blocks of about COUNT_BLOCK entries keep each np.add.at in cache.
    A = int(pos[-1])
    counts = np.zeros(A + 1, dtype=np.int64)
    for _, d in pair_blocks(pos, max(1, COUNT_BLOCK // pos.size)):
        np.add.at(counts, d.ravel(), 1)
    counts[0] = pos.size
    return counts


def _factor(pos):
    """(n1, m) of the factorisation pos = G + m * Y that CoarrayProfile
    describes, G = pos[:n1] with 2 <= n1 <= n/2, for the smallest n1 that
    has one; None when none does."""
    n = pos.size
    sizes = np.arange(2, n // 2 + 1)
    # m divides the second translate, pos[n1], so pos[n1] >= m > 2 max(G):
    # the gap after G exceeds max(G) = pos[n1 - 1]
    gap = pos[sizes] - pos[sizes - 1]
    for n1 in sizes[(n % sizes == 0) & (gap > pos[sizes - 1])].tolist():
        g = pos[:n1]
        if not np.array_equal(pos[n1:2 * n1] - pos[n1], g):
            continue
        blocks = pos.reshape(-1, n1)
        offsets = blocks[:, 0]
        if not np.array_equal(blocks - offsets[:, None], np.broadcast_to(g, blocks.shape)):
            continue
        m = int(np.gcd.reduce(offsets))
        if m > 2 * int(g[-1]):
            return n1, m
    return None


def _product_counts(g_counts, m, y_counts):
    # counts of G + m * Y from its factors': lag L = l1 + m * l2 >= 0 has
    # l2 = 0 and l1 >= 0, or l2 >= 1 and any l1 in -a..a. Row l2 of the
    # second kind is G's full map times w_Y(l2), at lags m * l2 - a ..
    # m * l2 + a; m > 2a keeps the rows apart, and lags between them stay 0
    a = g_counts.size - 1
    counts = np.zeros(a + m * (y_counts.size - 1) + 1, dtype=np.int64)
    np.multiply(g_counts, y_counts[0], out=counts[:a + 1])
    rows = np.ndarray((y_counts.size - 1, 2 * a + 1), counts.dtype, buffer=counts,
                      offset=(m - a) * counts.itemsize, strides=(m * counts.itemsize, counts.itemsize))
    np.multiply(y_counts[1:, None], np.concatenate([g_counts[:0:-1], g_counts]), out=rows)
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
        factors: (G, m, Y) when the array factors as X = G + m * Y, with G
            and Y arrays whose own profiles difference_coarray keeps; None
            when the pairs were walked

    An array of FACTOR_MIN sensors or more is factored when it can be: G is
    its first n1 sensors (n1 divides N, 2 <= n1 <= N/2), every block of n1
    sensors is a translate of G, and m, the gcd of the translates, is at
    least 2 * max(G) + 1. Every lag then splits uniquely as l1 + m * l2
    with |l1| <= max(G), so w_X = w_G(l1) * w_Y(l2) exactly, whether or not
    G and Y have holes. The summary follows from the factors' summaries:
    dof = dof_G * dof_Y, and since m >= 2 * max(G) + 1 >= |U_G|, with
    equality only when G is hole-free, the rows l2 of G's lags tile the
    line exactly when m = |U_G|. Then X takes Y's holes, so X is hole-free
    iff Y is and its half-width is max(G) + m * h_Y; otherwise it is h_G.
    The counts, one int64 outer product of the factors' counts, are built
    only when first read: O(N + aperture) in all. Expansions of hole-free
    generators factor from order 2 on. Those of holed ones (m = |U| <
    2 * max(G) + 1), the baselines and most other arrays do not, and take
    the O(N^2) pair walk for their counts and summary.
    """

    def __init__(self, array):
        pos = array.as_array()
        self.aperture = int(pos[-1])
        split = _factor(pos) if pos.size >= FACTOR_MIN else None
        if split is None:
            self.factors = None
            self.counts = _pair_counts(pos)
            self.counts.setflags(write=False)
            # the one pass over the counts: the holes give dof, hole_free and
            # the half-width, since lag 0 always has a pair
            missing = np.flatnonzero(self.counts == 0)
            self.dof = 2 * (self.counts.size - missing.size) - 1
            self.hole_free = not missing.size
            m = int(missing[0]) - 1 if missing.size else self.aperture
        else:
            n1, step = split
            g = SensorArray._trusted(pos[:n1].tolist())
            y = SensorArray._trusted((pos[::n1] // step).tolist())
            self.factors = (g, step, y)
            pg, py = difference_coarray(g), difference_coarray(y)
            self.dof = pg.dof * py.dof
            tiled = step == pg.ula_size
            self.hole_free = tiled and py.hole_free
            m = g.aperture + step * py.central_ula_halfwidth if tiled else pg.central_ula_halfwidth
        self.central_ula_halfwidth = m
        self.ula_size = 2 * m + 1

    @cached_property
    def counts(self):
        # a walked profile sets its counts on itself, so only a factored one gets here
        g, m, y = self.factors
        counts = _product_counts(difference_coarray(g).counts, m, difference_coarray(y).counts)
        counts.setflags(write=False)
        return counts

    def __repr__(self):
        return (f"CoarrayProfile(aperture={self.aperture}, dof={self.dof}, "
                f"hole_free={self.hole_free}, ula_halfwidth={self.central_ula_halfwidth})")


def difference_coarray(array):
    """All pairwise position differences with multiplicities: from the
    array's factors when it factors, else from one walk over its pairs.

    The profile is built once per array and kept on it: a SensorArray never
    changes, so every later call returns the same profile. A factored
    profile builds its factors' profiles, each kept on its factor."""
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
