"""Reference array constructions used for comparisons."""

from dataclasses import dataclass
from math import gcd

from .core import SensorArray
from .fractal import cantor

# Known minimum-aperture hole-free configurations (minimum redundancy) and
# minimum-aperture all-distinct-difference configurations (minimum hole,
# i.e. optimal Golomb rulers) for small sensor counts. Literature data,
# re-verified structurally by the test suite.
_MRA = {
    1: (0,),
    2: (0, 1),
    3: (0, 1, 3),
    4: (0, 1, 4, 6),
    5: (0, 1, 2, 6, 9),
    6: (0, 1, 2, 6, 10, 13),
    7: (0, 1, 2, 3, 8, 13, 17),
    8: (0, 1, 2, 11, 15, 18, 21, 23),
    9: (0, 1, 2, 14, 18, 21, 24, 27, 29),
    10: (0, 1, 3, 6, 13, 20, 27, 31, 35, 36),
}
_MHA = {
    1: (0,),
    2: (0, 1),
    3: (0, 1, 3),
    4: (0, 1, 4, 6),
    5: (0, 1, 4, 9, 11),
    6: (0, 1, 4, 10, 12, 17),
    7: (0, 1, 4, 10, 18, 23, 25),
    8: (0, 1, 4, 9, 15, 22, 32, 34),
    9: (0, 1, 5, 12, 25, 27, 35, 41, 44),
    10: (0, 1, 6, 10, 23, 26, 34, 41, 53, 55),
}


def ula(n):
    """Uniform array with n sensors at unit spacing."""
    if n < 1:
        raise ValueError("need at least one sensor")
    return SensorArray(tuple(range(n)), name=f"ULA({n})")


def nested(n1, n2):
    """Two-level nested array: dense run {1..n1} plus sparse {k(n1+1)},
    shifted to start at 0. Hole-free coarray with 2*n2*(n1+1) - 1 lags."""
    if n1 < 1 or n2 < 1:
        raise ValueError("both levels need at least one sensor")
    elems = set(range(1, n1 + 1)) | {k * (n1 + 1) for k in range(1, n2 + 1)}
    return SensorArray(tuple(elems), name=f"NA({n1},{n2})")


def coprime(m, n):
    """Extended coprime array {m*k : 0 <= k < n} union {n*k : 0 <= k < 2m},
    for coprime m < n. 2m + n - 1 sensors; the coarray has holes."""
    if m < 1 or n < 1:
        raise ValueError("factors must be positive")
    if m >= n:
        raise ValueError("expected m < n")
    if gcd(m, n) != 1:
        raise ValueError(f"{m} and {n} are not coprime")
    elems = {m * k for k in range(n)} | {n * k for k in range(2 * m)}
    return SensorArray(tuple(elems), name=f"CP({m},{n})")


def mra(n):
    """Minimum redundancy array for n sensors, from the embedded table."""
    if n not in _MRA:
        raise ValueError(f"minimum redundancy table covers 1..{max(_MRA)}")
    return SensorArray(_MRA[n], name=f"MRA({n})")


def mha(n):
    """Minimum hole array (optimal Golomb ruler) for n sensors, from the
    embedded table."""
    if n not in _MHA:
        raise ValueError(f"minimum hole table covers 1..{max(_MHA)}")
    return SensorArray(_MHA[n], name=f"MHA({n})")


_BUILDERS = {
    "ula": (ula, ("n",)),
    "nested": (nested, ("n1", "n2")),
    "coprime": (coprime, ("m", "n")),
    "mra": (mra, ("n",)),
    "mha": (mha, ("n",)),
    "cantor": (cantor, ("r",)),
}


@dataclass(frozen=True)
class BaselineSpec:
    """Named baseline family plus its integer parameters, in builder order."""

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in _BUILDERS:
            raise ValueError(f"unknown baseline kind {self.kind!r}; "
                             f"choose from {sorted(_BUILDERS)}")
        names = _BUILDERS[self.kind][1]
        params = tuple(int(p) for p in self.params)
        if len(params) != len(names):
            raise ValueError(f"{self.kind} takes parameters {names}")
        object.__setattr__(self, "params", params)


def build_baseline(spec):
    """Construct the array described by a BaselineSpec."""
    fn = _BUILDERS[spec.kind][0]
    return fn(*spec.params)
