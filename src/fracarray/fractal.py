"""Fractal array construction by recursive translation of a generator."""

import numpy as np

from .core import SensorArray, difference_coarray

# expansion is exponential in the order; larger orders need an explicit opt-in
MAX_ORDER = 8


def expand(generators, r, max_order=MAX_ORDER):
    """Order-r fractal expansion.

    generators is one SensorArray, reused at every order, or a sequence that
    gives the generator of each order (r must then lie in 1..len). Order 0
    is the single sensor {0}; each further order unions translated copies of
    the current array, one copy per element n of that order's generator,
    shifted by n times the product of the central-ULA sizes M of the
    generators already applied. Overlapping replicas (possible only when a
    generator coarray has holes) are deduplicated and the true element count
    is whatever survives.
    """
    if isinstance(generators, SensorArray):
        if r < 0:
            raise ValueError("order must be non-negative")
        gens = [generators] * r
        name = f"{generators.name}^{r}" if generators.name else ""
    else:
        gens = list(generators)
        if not gens:
            raise ValueError("need at least one generator")
        if not 1 <= r <= len(gens):
            raise ValueError(f"order must lie in 1..{len(gens)}")
        gens = gens[:r]
        name = ""
    if r > max_order:
        raise ValueError(f"order {r} exceeds the safety cap {max_order}; "
                         f"pass max_order to override")
    elems = np.zeros(1, dtype=np.int64)
    factor = 1
    for g in gens:
        elems = np.unique((elems[None, :] + g.as_array()[:, None] * factor).ravel())
        factor *= difference_coarray(g).ula_size
    return SensorArray(elems.tolist(), name=name)


def cantor(r):
    """Cantor array of order r: the expansion of {0, 1}, whose central ULA
    has M = 3, so 2^r sensors spanning (3^r - 1) / 2."""
    if r > MAX_ORDER:
        # expand's message would name a max_order that cantor does not take
        raise ValueError(f"order {r} exceeds the safety cap {MAX_ORDER}")
    return SensorArray(expand(SensorArray((0, 1)), r).elements, name=f"cantor({r})")
