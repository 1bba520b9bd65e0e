"""Monoid library for the comprehension calculus (paper Section 3.2, Table 1).

A monoid of type T is an associative merge function ``⊕`` with a left/right
identity ``Z⊕``. Collection monoids additionally provide a unit function
``U⊕(x)`` building singleton collections. The paper's query language is
``for {q1, ..., qn} yield ⊕ e``; the accumulator ``⊕`` is one of the monoids
defined here.

Implementation note: some of the paper's "monoids" (avg, median) are not
monoids on their output domain but are implemented — exactly as Fegaras &
Maier suggest — via an internal accumulator domain plus a finalizer:
``lift`` maps an element into the accumulator domain, ``merge`` combines
accumulators, ``finalize`` maps the accumulator to the user-visible result.
For true monoids ``lift``/``finalize`` are identities.

Algebraic properties (``commutative``, ``idempotent``) gate which
normalization rewrites are sound (e.g. unnesting a ``set`` generator into a
``bag`` comprehension is only sound because bag-merge is commutative).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from . import types as T


@dataclass(frozen=True, eq=False)
class Monoid:
    """A (possibly lifted) monoid usable as a comprehension accumulator.

    Attributes:
        name: surface syntax name used after ``yield``.
        zero: nullary callable producing the identity accumulator.
        lift: maps one element into the accumulator domain.
        merge: associative binary function on accumulators.
        finalize: maps the final accumulator to the user-visible value.
        commutative / idempotent: algebraic flags used by the normalizer.
        collection: True for set/bag/list/array monoids.
        kind: for collection monoids, the collection kind name.
    """

    name: str
    zero: Callable[[], Any]
    lift: Callable[[Any], Any]
    merge: Callable[[Any, Any], Any]
    finalize: Callable[[Any], Any]
    commutative: bool = True
    idempotent: bool = False
    collection: bool = False
    kind: str | None = None
    params: tuple = ()

    def __eq__(self, other) -> bool:
        """Identity by (name, params): parameterised monoids constructed
        twice (fresh closures) must still compare equal in AST equality."""
        if not isinstance(other, Monoid):
            return NotImplemented
        return self.name == other.name and self.params == other.params

    def __hash__(self) -> int:
        return hash((self.name, self.params))

    def __reduce__(self):
        """Pickle by (name, params): the lambda fields cannot cross a process
        boundary, but every monoid is reconstructible from the registry —
        required by the process-pool morsel backend, which ships monoids
        inside kernel specs."""
        return (get_monoid, (self.name, self.params))

    def unit(self, value: Any) -> Any:
        """Build a singleton accumulator ``U⊕(value)``."""
        return self.merge(self.zero(), self.lift(value))

    def fold(self, values) -> Any:
        """Fold an iterable through the monoid and finalize the result."""
        acc = self.zero()
        for v in values:
            acc = self.merge(acc, self.lift(v))
        return self.finalize(acc)

    def result_type(self, elem: T.Type) -> T.Type:
        """The result type of a comprehension with this accumulator over elem."""
        if self.collection:
            return T.CollectionType(self.kind or "bag", elem)
        if self.name in ("sum", "prod", "max", "min", "median"):
            return elem
        if self.name == "avg":
            return T.FLOAT
        if self.name == "count":
            return T.INT
        if self.name in ("all", "any"):
            return T.BOOL
        if self.name == "topk":
            return T.CollectionType("list", elem)
        return elem


def _bag_merge(a: list, b: list) -> list:
    if not a:
        return b
    if not b:
        return a
    return a + b


def _set_merge(a: set, b: set) -> set:
    if not a:
        return b
    if not b:
        return a
    return a | b


def _hashable(v: Any) -> Any:
    """Convert a runtime value into a hashable representative for set semantics."""
    if isinstance(v, dict):
        return tuple((k, _hashable(x)) for k, x in v.items())
    if isinstance(v, (list, set)):
        return tuple(_hashable(x) for x in v)
    return v


class _SetAcc:
    """Set accumulator that tolerates unhashable elements (dicts, lists).

    Stores canonical hashable keys alongside the original values so results
    keep their natural Python shape.
    """

    __slots__ = ("items",)

    def __init__(self):
        self.items: dict[Any, Any] = {}

    def add(self, value: Any) -> None:
        self.items.setdefault(_hashable(value), value)

    def merge(self, other: "_SetAcc") -> "_SetAcc":
        out = _SetAcc()
        out.items = dict(self.items)
        for k, v in other.items.items():
            out.items.setdefault(k, v)
        return out

    def values(self) -> list:
        return list(self.items.values())


def _set_zero() -> _SetAcc:
    return _SetAcc()


def _set_lift(v: Any) -> _SetAcc:
    acc = _SetAcc()
    acc.add(v)
    return acc


SUM = Monoid("sum", zero=lambda: 0, lift=lambda x: x, merge=lambda a, b: a + b,
             finalize=lambda a: a, commutative=True)
PROD = Monoid("prod", zero=lambda: 1, lift=lambda x: x, merge=lambda a, b: a * b,
              finalize=lambda a: a, commutative=True)
COUNT = Monoid("count", zero=lambda: 0, lift=lambda _x: 1, merge=lambda a, b: a + b,
               finalize=lambda a: a, commutative=True)
# max/min replace the accumulator only when the new value is strictly better
# — the rule builtin max/min and the generated code follow, so a NaN (which
# compares False both ways) never displaces an accumulated value
MAX = Monoid("max", zero=lambda: None, lift=lambda x: x,
             merge=lambda a, b: b if a is None else (a if b is None else (b if b > a else a)),
             finalize=lambda a: a, commutative=True, idempotent=True)
MIN = Monoid("min", zero=lambda: None, lift=lambda x: x,
             merge=lambda a, b: b if a is None else (a if b is None else (b if b < a else a)),
             finalize=lambda a: a, commutative=True, idempotent=True)
ANY = Monoid("any", zero=lambda: False, lift=bool, merge=lambda a, b: a or b,
             finalize=lambda a: a, commutative=True, idempotent=True)
ALL = Monoid("all", zero=lambda: True, lift=bool, merge=lambda a, b: a and b,
             finalize=lambda a: a, commutative=True, idempotent=True)
AVG = Monoid("avg", zero=lambda: (0.0, 0), lift=lambda x: (x, 1),
             merge=lambda a, b: (a[0] + b[0], a[1] + b[1]),
             finalize=lambda a: (a[0] / a[1]) if a[1] else None, commutative=True)


def _median_finalize(values: list) -> Any:
    if not values:
        return None
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


MEDIAN = Monoid("median", zero=list, lift=lambda x: [x], merge=_bag_merge,
                finalize=_median_finalize, commutative=True)

BAG = Monoid("bag", zero=list, lift=lambda x: [x], merge=_bag_merge,
             finalize=lambda a: a, commutative=True, collection=True, kind="bag")
LIST = Monoid("list", zero=list, lift=lambda x: [x], merge=_bag_merge,
              finalize=lambda a: a, commutative=False, collection=True, kind="list")
SET = Monoid("set", zero=_set_zero, lift=_set_lift,
             merge=lambda a, b: a.merge(b),
             finalize=lambda a: a.values(), commutative=True, idempotent=True,
             collection=True, kind="set")


def make_topk(k: int) -> Monoid:
    """The top-k monoid: keeps the k largest elements, descending order.

    Accumulator is a bounded min-heap of (key, seq, value) entries; ``seq``
    breaks ties so unorderable payloads never reach comparison.
    """
    if k <= 0:
        raise ValueError("topk requires k >= 1")

    def merge(a: list, b: list) -> list:
        out = list(a)
        for item in b:
            if len(out) < k:
                heapq.heappush(out, item)
            elif item[0] > out[0][0]:
                heapq.heapreplace(out, item)
        return out

    counter = iter(range(10**18))

    def lift(x: Any) -> list:
        pair = isinstance(x, (tuple, list)) and len(x) == 2
        key = x[0] if pair else x
        val = x[1] if pair else x
        return [(key, next(counter), val)]

    def finalize(acc: list) -> list:
        return [val for _key, _seq, val in sorted(acc, key=lambda t: (-_sortkey(t[0]), t[1]))]

    def _sortkey(key: Any):
        return key

    return Monoid(f"topk", zero=list, lift=lift, merge=merge, finalize=finalize,
                  commutative=True, collection=False, params=(k,))


def make_orderby(descending: bool = False) -> Monoid:
    """The ordering monoid: collects (key, value) pairs, yields values sorted by key."""

    def lift(x: Any) -> list:
        if isinstance(x, (tuple, list)) and len(x) == 2:
            return [(x[0], x[1])]
        return [(x, x)]

    def finalize(acc: list) -> list:
        return [v for _k, v in sorted(acc, key=lambda kv: kv[0], reverse=descending)]

    name = "orderby_desc" if descending else "orderby"
    return Monoid(name, zero=list, lift=lift, merge=_bag_merge, finalize=finalize,
                  commutative=True, params=(descending,))


_REGISTRY: dict[str, Monoid] = {
    m.name: m
    for m in (SUM, PROD, COUNT, MAX, MIN, ANY, ALL, AVG, MEDIAN, BAG, LIST, SET)
}
_REGISTRY["or"] = ANY
_REGISTRY["and"] = ALL
_REGISTRY["exists"] = ANY
_REGISTRY["union"] = SET


def get_monoid(name: str, params: tuple = ()) -> Monoid:
    """Look up a monoid by surface name; parameterised monoids take params.

    >>> get_monoid('sum').fold([1, 2, 3])
    6
    >>> get_monoid('topk', (2,)).fold([5, 1, 9, 3])
    [9, 5]
    """
    if name == "topk":
        if len(params) != 1:
            raise KeyError("topk requires one parameter: k")
        return make_topk(int(params[0]))
    if name in ("orderby", "orderby_desc"):
        return make_orderby(descending=name.endswith("desc"))
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown monoid: {name!r}") from None


def monoid_names() -> tuple[str, ...]:
    """All registered non-parameterised monoid names plus parameterised ones."""
    return tuple(sorted(_REGISTRY)) + ("topk", "orderby", "orderby_desc")


def is_collection_monoid(name: str) -> bool:
    return name in ("bag", "list", "set", "union")


def subsumes(outer: Monoid, inner: Monoid) -> bool:
    """True when a generator over an ``inner``-collection may be unnested into
    an ``outer`` comprehension (the ⊗ ⊑ ⊕ condition of Fegaras & Maier).

    The conditions: merging order may be lost only if the outer monoid is
    commutative; duplicate collapse in the inner collection is only safe if
    the outer monoid is idempotent or the inner monoid preserves duplicates.
    """
    if not inner.collection:
        return False
    if not outer.commutative and inner.commutative:
        # e.g. list comprehension over a set/bag generator: order undefined.
        return False
    if inner.idempotent and not outer.idempotent:
        # A set generator feeding a bag/sum accumulator must NOT be unnested:
        # the set's duplicate elimination is semantically significant and
        # inlining the inner qualifiers would re-introduce duplicates.
        return False
    return True
