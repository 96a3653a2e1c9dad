"""Spans around the calls into dprand's layers, kept in memory as per-name totals.

A span's layer is the part of its name before the dot. Its self time is its
duration minus the part covered by spans opened inside it, so the self times
of one run add up to the traced time spent inside dprand without counting
any interval twice.
"""
from __future__ import annotations

from time import perf_counter

LAYERS = ("entropy", "drbg", "bitgen", "mechanisms", "quality")


class SpanTotals:
    __slots__ = ("calls", "total_s", "self_s", "amount")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.amount = 0  # bytes or items, when the wrapped call reports one


class Tracer:
    def __init__(self):
        self.spans: dict[str, SpanTotals] = {}
        self._open: list[list[float]] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, amount=None):
        """fn with a span around every call; amount(result) adds to the span's amount."""
        totals = self.spans.setdefault(name, SpanTotals())
        open_spans = self._open

        def traced(*args, **kwargs):
            child = [0.0]
            open_spans.append(child)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += took
                totals.calls += 1
                totals.total_s += took
                totals.self_s += took - child[0]
            if amount is not None:
                totals.amount += amount(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, amount=None) -> None:
        """Replace owner.attr, a module or class attribute, by its traced form until restore()."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, amount))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def get(self, name: str) -> SpanTotals:
        return self.spans.get(name) or SpanTotals()

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, totals in self.spans.items():
            out[name.split(".")[0]] += totals.self_s
        return out

    def to_dict(self) -> dict:
        return {name: {"calls": t.calls, "total_s": t.total_s, "self_s": t.self_s,
                       "amount": t.amount} for name, t in sorted(self.spans.items())}


class NoTracer:
    """Stands in for Tracer in the untraced run: calls go straight through."""

    def wrap(self, name, fn, amount=None):
        return fn

    def patch(self, owner, attr, name, amount=None):
        pass

    def restore(self):
        pass
