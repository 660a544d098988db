"""Class-product analysis over class bitmasks.

A normal set of Alt(n) is the bitmask of its classes in the canonical
order.  Products are asked of a ProductAlgebra, and there is one cached
algebra per (n, mode) (``_algebra``): the engine's, whose pair masks come
from the exact character sums of ``classprod.pair_sums``; the brute-force
oracle's; and, for ``both``, one that asks the other two for each pair
mask and raises ConsistencyError where they differ.  Each pair mask is
computed once, when first asked for.  ``times`` and ``product`` multiply,
and ``powers`` is the one routine for iterated products; the named sweeps
in ``classprod.sweeps`` are built from these.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .alt_group import (
    MODES,
    AltClass,
    NormalSet,
    check_same_n,
    class_index,
    enumerate_alt_classes,
    identity_class,
)
from .errors import ConsistencyError, UsageError
from .pair_sums import _compute_pair_mask
from .pair_sums import exactness_check_count  # noqa: F401  read from here by perfbench/replay.py


def contains(a: AltClass, b: AltClass, g: AltClass) -> bool:
    """Does the normal set AB contain the class of g?  Read from the
    engine's pair mask of (A, B), computed once."""
    n = check_same_n(a, b, g)
    idx = class_index(n)
    return bool(_algebra(n, "engine").pair(idx[a], idx[b]) >> idx[g] & 1)


def ensure_pair_masks(n: int, pairs: Iterable[tuple[int, int]], jobs: int = 1) -> None:
    """Compute the engine's masks of the class pairs (i, j), i <= j, in
    ``pairs`` that it does not hold yet, one after another.  Only
    ``perfbench/replay.py`` calls this; it goes when the replay does."""
    alg = _algebra(n, "engine")
    for i, j in pairs:
        alg.pair(i, j)


def _bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(n: int, classes: Iterable[AltClass]) -> int:
    """The class bitmask of some classes of Alt(n)."""
    idx = class_index(n)
    mask = 0
    for cls in classes:
        mask |= 1 << idx[cls]
    return mask


def names_in(names: Sequence, mask: int) -> tuple:
    """The entries of ``names`` (classes in canonical order, or their
    names) at the set bits of a class bitmask."""
    return tuple(names[j] for j in _bit_indices(mask))


class ProductAlgebra:
    """Normal-set products of Alt(n) as class bitmasks; ``_algebra(n,
    mode)`` holds the one algebra of each (n, mode).  ``pairs`` holds the
    mask of each class pair (i, j), i <= j (normal sets commute), that has
    been asked for; ``pair_mask(i, j)`` computes a missing one.
    ``times(mask, c)`` multiplies a normal set by a class: it asks only for
    the pairs of c with the classes in the mask and stops as soon as their
    union is all of Alt(n); all of Alt(n) times any class is all of Alt(n)
    (GC = G) without a pair.  ``product`` multiplies two normal sets, and
    ``powers`` is the one iterated product.  So only the pairs a product
    needs are computed, and ``times`` is memoised, so a product or a power
    met again asks for none.
    """

    def __init__(self, n: int, pair_mask: Callable[[int, int], int]):
        self.full = (1 << len(enumerate_alt_classes(n))) - 1
        self.pairs: dict[tuple[int, int], int] = {}
        self._pair_mask = pair_mask
        self._memo: dict[tuple[int, int], int] = {}

    def pair(self, i: int, j: int) -> int:
        """The product of the classes with indices i and j."""
        key = (i, j) if i <= j else (j, i)
        if key not in self.pairs:
            self.pairs[key] = self._pair_mask(*key)
        return self.pairs[key]

    def times(self, mask: int, c: int) -> int:
        """The normal set ``mask`` times the class with index c."""
        if mask == self.full:
            return mask
        key = (mask, c)
        if key not in self._memo:
            out = 0
            for i in _bit_indices(mask):
                out |= self.pair(i, c)
                if out == self.full:
                    break
            self._memo[key] = out
        return self._memo[key]

    def product(self, mask_a: int, mask_b: int) -> int:
        """The product of two normal sets."""
        out = 0
        for c in _bit_indices(mask_b):
            out |= self.times(mask_a, c)
            if out == self.full:
                break
        return out

    def powers(self, c: int, k: int) -> tuple[list[int], Optional[int]]:
        """C, C^2, ..., C^k for the class C with index c, cut before the
        first repeated mask, and the position in that list of the mask the
        cut repeats (None: no cut).  Each power is a function of the one
        before, so from a repeat on the powers cycle through the list's
        tail: no later one is new."""
        masks = [1 << c]
        seen = {masks[0]: 0}
        while len(masks) < k:
            mask = self.times(masks[-1], c)
            if mask in seen:
                return masks, seen[mask]
            seen[mask] = len(masks)
            masks.append(mask)
        return masks, None


_ALGEBRAS: dict[tuple[int, str], ProductAlgebra] = {}


def _algebra(n: int, mode: str) -> ProductAlgebra:
    """The one algebra of (n, mode), built when first asked for, so its
    pairs and memo outlive a single call: the engine's, the brute-force
    oracle's, or, for ``both``, one whose every pair mask is asked of the
    other two and must agree.  ``both`` builds the oracle's first, so a
    group too large for it fails before any engine work.
    """
    if mode not in MODES:
        raise UsageError(f"unknown mode {mode!r}")
    if (n, mode) in _ALGEBRAS:
        return _ALGEBRAS[n, mode]
    if mode == "engine":
        pair_mask = partial(_compute_pair_mask, n)
    elif mode == "oracle":
        from . import brute_force

        brute_force.check_oracle_n(n)
        classes = enumerate_alt_classes(n)

        def pair_mask(i: int, j: int) -> int:
            return _mask_of(n, brute_force.oracle_class_product(classes[i], classes[j]))
    else:
        oracle, engine = _algebra(n, "oracle"), _algebra(n, "engine")
        classes = enumerate_alt_classes(n)

        def pair_mask(i: int, j: int) -> int:
            mask = engine.pair(i, j)
            if mask != oracle.pair(i, j):
                raise ConsistencyError(
                    f"engine and oracle products of {classes[i].name} and "
                    f"{classes[j].name} disagree at n={n}"
                )
            return mask

    _ALGEBRAS[n, mode] = ProductAlgebra(n, pair_mask)
    return _ALGEBRAS[n, mode]


def product_set(s: NormalSet, t: NormalSet, mode: str = "engine") -> NormalSet:
    """All classes meeting the product of two normal sets."""
    n = check_same_n(s, t)
    mask = _algebra(n, mode).product(_mask_of(n, s.classes), _mask_of(n, t.classes))
    return NormalSet(n, names_in(enumerate_alt_classes(n), mask))


def covering_number(cls: AltClass, k_max: int, mode: str = "engine") -> Optional[int]:
    """Least k <= k_max whose k-fold product covers Alt(n), if any."""
    if k_max < 1:
        raise UsageError("k_max must be positive")
    if cls == identity_class(cls.n):
        raise UsageError("covering number is defined for nontrivial classes")
    alg = _algebra(cls.n, mode)
    masks, _ = alg.powers(class_index(cls.n)[cls], k_max)
    return next((k for k, mask in enumerate(masks, 1) if mask == alg.full), None)


def missing_classes(cls: AltClass, k: int, mode: str = "engine") -> tuple[AltClass, ...]:
    """Classes not reached by the k-fold product of a class with itself."""
    if k < 1:
        raise UsageError("k must be positive")
    alg = _algebra(cls.n, mode)
    masks, start = alg.powers(class_index(cls.n)[cls], k)
    if k > len(masks):  # C^k is read off the cycle of the powers
        k = start + 1 + (k - 1 - start) % (len(masks) - start)
    return names_in(enumerate_alt_classes(cls.n), alg.full & ~masks[k - 1])


_SWEEPS = {
    "check_dvir_rodgers", "dvir_rodgers_applies",
    "long_cycle_product_checks", "verify_four_class_theorem",
}


def __getattr__(name: str):
    """The sweeps ``perfbench/replay.py`` imports from here, read from
    ``classprod.sweeps`` (PEP 562); this goes when the replay does.  The
    replay passes the sweeps a ``jobs=`` that none of them takes, so each
    is returned wrapped to drop it."""
    if name in _SWEEPS:
        from . import sweeps

        sweep = getattr(sweeps, name)

        def without_jobs(*args, jobs: int = 1, **kwargs):
            return sweep(*args, **kwargs)

        return without_jobs
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
