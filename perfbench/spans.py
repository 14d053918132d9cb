"""In-memory span recorder and call-site patching for the traced run.

The traced run wraps the program's public functions *where their callers
look them up* (``repro.experiments.tables.forecast_series``, not
``repro.core.mixture.forecast_series``, because ``tables`` imports the
name directly).  Each wrapper records one span: name, start, end, parent
span and request id.  Spans stay in memory until :meth:`Spans.dump`
writes them out at exit.  A name that cannot be found is recorded as
missing with a reason instead of raising, so a refactor that renames a
function shows up as a ``missing`` layer, not a crashed benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from collections import defaultdict


class Spans:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.records: list[tuple] = []  # (id, parent, name, start, end, request)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: dict[str, str] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request) -> None:
        """Tag every span this thread records from now on with ``request``."""
        self._local.request = request

    def request(self):
        return getattr(self._local, "request", None)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            record = (span_id, parent, name, start, end, self.request())
            with self._lock:
                self.records.append(record)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # ------------------------------------------------------------- patching

    def patch(
        self, target: str, attr: str, name, *, label=None, before=None, after=None
    ) -> None:
        """Wrap ``target.attr`` (module path or ``module:Class``) in spans.

        ``name`` is the span name, or ``name(args, kwargs)`` computing it
        per call; ``label`` names it in :attr:`missing` (default: the
        span name).  ``before(args, kwargs)`` runs just before the span
        opens and ``after(result, args, kwargs)`` once the call returns,
        to record counts where the work happens.  Class methods, static
        methods and plain methods keep their binding.
        """
        label = label or name
        try:
            module_name, _, class_name = target.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            static = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError) as exc:
            self.missing[label] = f"{target}.{attr} not found ({exc})"
            return
        kind = type(static) if isinstance(static, (classmethod, staticmethod)) else None
        original = static.__func__ if kind is not None else static
        if not callable(original):
            self.missing[label] = f"{target}.{attr} is not callable"
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = name if isinstance(name, str) else name(args, kwargs)
            result = self.call(span, original, *args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._undo.append((owner, attr, static))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, static = self._undo.pop()
            setattr(owner, attr, static)

    # ------------------------------------------------------------- analysis

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, inclusive seconds, self seconds)``.

        Self time is a span's duration minus the durations of its direct
        children (children of one span run on its thread, inside it).
        """
        child = defaultdict(float)
        for _, parent, _, start, end, _ in self.records:
            if parent:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, _, name, start, end, _ in self.records:
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += (end - start) - child[span_id]
        return {name: tuple(v) for name, v in out.items()}

    def dump(self, path) -> None:
        """Write every span and count as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, request in self.records:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "request": request,
                        }
                    )
                    + "\n"
                )
            fh.write(
                json.dumps({"counts": dict(self.counts), "missing": self.missing})
                + "\n"
            )
