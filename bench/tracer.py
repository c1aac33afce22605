"""An in-memory span recorder for the traced benchmark run.

A span has a name, a start, an end and a parent (the span that was open when
it began).  Spans are appended to flat arrays as they open, so the subtree of
a span is the contiguous index range that starts at it; nothing is written out
until :meth:`Tracer.summary` runs at the end.

Derived quantities, all computed from the tree:

* ``self_s`` of a span is its duration minus the durations of its direct
  children (calls are single-threaded and properly nested, so children never
  overlap);
* a *miss* of a parent name with respect to a child name is a parent span
  with at least one direct child of that name (``basis_product`` spans with
  an ``expand`` child, for example).
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

# attribute set on every installed wrapper, so a scan can prove none is left
MARK = "_bench_span"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.tallies: dict[str, int] = {}

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.name_id)

    def tally(self, name: str, amount: int) -> None:
        self.tallies[name] = self.tallies.get(name, 0) + amount

    @contextmanager
    def span(self, name: str):
        """Record one span around a block; yields its index."""
        i = len(self.name_id)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start[i] = self.clock()
        try:
            yield i
        finally:
            self.end[i] = self.clock()
            self._stack.pop()

    def wrap(self, name: str, fn, counter=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``counter``, when given, is ``(key, count)``: on every call
        ``count(args, kwargs)`` is added to the tally ``key``.
        """
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, self.clock
        tallies = self.tallies

        def wrapper(*args, **kwargs):
            if counter is not None:
                key, count = counter
                tallies[key] = tallies.get(key, 0) + count(args, kwargs)
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            start[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARK, name)
        return wrapper

    def summary(self, lo: int = 0, hi: int | None = None, misses=()) -> dict:
        """Aggregate the spans with index in [lo, hi).

        Returns ``{name: {"calls": int, "total_s": float, "self_s": float}}``;
        for each ``(parent_name, child_name)`` in ``misses`` the parent's
        entry also gets ``"misses"``: its spans with a direct child of
        ``child_name``.  Pass whole subtrees: a range that starts at the
        index a :meth:`span` yielded and ends at the length after it closed.
        """
        if hi is None:
            hi = len(self.name_id)
        names, name_id, parent = self.names, self.name_id, self.parent
        start, end = self.start, self.end
        n = len(names)
        calls = [0] * n
        total = [0.0] * n
        covered = [0.0] * n
        miss_pairs = {}
        for pname, cname in misses:
            if pname in self._ids and cname in self._ids:
                miss_pairs.setdefault(self._ids[cname], []).append(self._ids[pname])
        missed: dict[int, set[int]] = {self._ids[p]: set() for p, _ in misses if p in self._ids}
        for i in range(lo, hi):
            nid = name_id[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            total[nid] += dur
            p = parent[i]
            if p >= lo:
                covered[name_id[p]] += dur
                for pid in miss_pairs.get(nid, ()):
                    if name_id[p] == pid:
                        missed[pid].add(p)
        out = {}
        for nid, name in enumerate(names):
            if calls[nid]:
                out[name] = {
                    "calls": calls[nid],
                    "total_s": total[nid],
                    "self_s": total[nid] - covered[nid],
                }
        for pname, _ in misses:
            if pname in out:
                out[pname]["misses"] = len(missed[self._ids[pname]])
        return out
