"""Views: per-location timestamp frontiers, the backbone of the memory model.

A *view* maps location ids to timestamps and records the writes a thread (or
a message) has observed, exactly as in the paper's Section 2.3:

    View ::= Loc -> Time

Views form a join-semilattice under pointwise maximum.  The machine only
ever *grows* a thread's view (``po`` is approximated by monotonicity) and
transfers views between threads through messages (``sw`` is approximated by
joins), so ``V1 <= V2`` is the logic-level approximation of happens-before.

Views are immutable.  Every update produces a new ``View``; this is what
makes replay-based model checking trivially safe (no aliasing bugs between
re-executions) and lets the Compass layer freeze views inside events, which
is the executable analogue of the paper's view-at modality ``@_V P``.

Components are plain integers.  Real memory locations and *ghost*
components (per-thread race-detector clocks, per-event logical-view
markers) share the same component namespace; the :class:`~repro.rmc.memory.Memory`
allocator keeps them distinct.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Tuple


class View:
    """An immutable map from component ids to timestamps (default 0).

    Missing components are 0, which is the timestamp of every location's
    initialization message — a fresh thread therefore observes exactly the
    initial state.
    """

    __slots__ = ("_m",)

    def __init__(self, mapping: Optional[Mapping[int, int]] = None):
        if mapping:
            self._m: Dict[int, int] = {k: v for k, v in mapping.items() if v}
        else:
            self._m = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, component: int) -> int:
        """Timestamp of ``component`` in this view (0 if unobserved)."""
        return self._m.get(component, 0)

    def __getitem__(self, component: int) -> int:
        return self._m.get(component, 0)

    def components(self) -> Iterator[Tuple[int, int]]:
        """Iterate over the non-zero (component, timestamp) pairs."""
        return iter(self._m.items())

    def is_empty(self) -> bool:
        return not self._m

    def leq(self, other: "View") -> bool:
        """Pointwise order: every observation of self is in ``other``."""
        om = other._m
        for k, v in self._m.items():
            if om.get(k, 0) < v:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        return isinstance(other, View) and self._m == other._m

    def __hash__(self) -> int:
        return hash(frozenset(self._m.items()))

    def __len__(self) -> int:
        return len(self._m)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}:{v}" for k, v in sorted(self._m.items()))
        return f"View({{{inner}}})"

    # ------------------------------------------------------------------
    # Lattice operations
    # ------------------------------------------------------------------
    def join(self, other: "View") -> "View":
        """Least upper bound (pointwise maximum) of two views."""
        a, b = self._m, other._m
        if not a:
            return other
        if not b:
            return self
        # Cheap subsumption checks keep joins allocation-free on the hot
        # path where one side already dominates the other.
        if len(a) < len(b):
            small, big, big_view = a, b, other
        else:
            small, big, big_view = b, a, self
        if small.items() <= big.items():
            return big_view  # every entry shared: a set test in C
        for k, v in small.items():
            if big.get(k, 0) < v:
                break
        else:
            return big_view
        merged = big.copy()
        for k, v in small.items():
            if merged.get(k, 0) < v:
                merged[k] = v
        out = _new(View)
        out._m = merged
        return out

    def extend(self, component: int, ts: int) -> "View":
        """This view with ``component`` raised to at least ``ts``."""
        m = self._m
        if m.get(component, 0) >= ts:
            return self
        merged = m.copy()
        merged[component] = ts
        out = _new(View)
        out._m = merged
        return out

    def restrict(self, components) -> "View":
        """Project the view onto a set of components (used by tests)."""
        out = _new(View)
        out._m = {k: v for k, v in self._m.items() if k in components}
        return out


#: Builds a `View` without running ``__init__``'s zero filter; the
#: lattice operations fill ``_m`` themselves.
_new = object.__new__


#: The bottom view: observes only initialization messages.
EMPTY_VIEW = View()


def join_all(views) -> View:
    """Join an iterable of views (bottom if empty)."""
    acc = EMPTY_VIEW
    for v in views:
        acc = acc.join(v)
    return acc
