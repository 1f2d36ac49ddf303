"""In-memory spans around calls into powerwise's layers.

The program is not changed: while a ``Tracer`` is installed, each public layer
function listed in ``LAYER_CALLS`` is replaced, in every powerwise module that
binds it, by a wrapper that records a span and keeps the call's arguments and
result for counting after the operation. ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# layer (module under src/powerwise) -> public callables timed as spans
LAYER_CALLS = {
    "cli": ("main",),
    "ingest": ("load_games", "build_season"),
    "power_rating": ("solve_power_ratings",),
    "pairwise": ("run_tournament",),
    "tiebreak": ("rank_season", "break_ties"),
    "rpi": ("compute_rpi",),
    "selection": ("select_at_large",),
    "experiments": ("perturbation_experiment",),
    "report": (
        "render_ranking",
        "export_ratings_csv",
        "export_pairwise_csv",
        "export_points_csv",
        "export_ranking_csv",
        "RunReport.add_artifact",
        "RunReport.write",
    ),
}


def _span_name(layer: str, attr: str, args, kwargs) -> str:
    if attr == "perturbation_experiment":
        method = kwargs.get("method", args[2] if len(args) > 2 else None)
        return f"{layer}.{attr}[{method}]"
    return f"{layer}.{attr}"


class Tracer:
    """Spans (name, start, end, parent, op) kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.calls: list[tuple[str, tuple, object]] = []  # (span name, args, result)
        self.op = None
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(
            {"name": name, "start": 0.0, "end": 0.0, "parent": self._open[-1] if self._open else None, "op": self.op}
        )
        self._open.append(idx)
        self.spans[idx]["start"] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx]["end"] = time.perf_counter()
            self._open.pop()

    def _wrap(self, layer: str, attr: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = _span_name(layer, attr.rpartition(".")[2], args, kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            self.calls.append((name, args, result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "powerwise" or n.startswith("powerwise.")]
        for layer, attrs in LAYER_CALLS.items():
            home = importlib.import_module(f"powerwise.{layer}")
            for attr in attrs:
                owner_name, _, fn_name = attr.rpartition(".")
                if owner_name:  # a method: patch it on its class only
                    owner = getattr(home, owner_name)
                    self._patch(owner, fn_name, self._wrap(layer, attr, getattr(owner, fn_name)))
                    continue
                original = getattr(home, fn_name)
                wrapper = self._wrap(layer, attr, original)
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        self._patch(module, fn_name, wrapper)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
