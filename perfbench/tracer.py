"""Per-layer tracing from outside the program.

`Tracer.install()` wraps every public function of the layer modules of
`visblock` in a timing wrapper, and rebinds every `visblock.*` module
attribute (and every value of a module-level dict, such as
`cli.TASK_FNS`) that *is* one of those functions.  From-imports such as
`visblock.cli.min_blocking_set` are therefore caught as well.
`uninstall()` puts the originals back.  Nothing in the program changes.

Each call becomes a span: function, op id, parent span, start and
duration.  Self time is the span minus the spans of its direct children.
Spans stay in memory and are written out at the end.  A function that
passes `HOT_CALLS` calls within one pass stops recording single spans
for the rest of that pass; its further calls are only aggregated per
(function, parent function).  `hot_functions` names those functions.
The program is single-threaded and has no queues, so no layer has a
wait time; only busy (self) time and counts are recorded.
"""

from __future__ import annotations

import functools
import importlib
import logging
import os
import re
import sys
import time

LAYERS = (
    "geometry",
    "generators",
    "visibility",
    "cliques",
    "blocking",
    "crossing",
    "midpoints",
    "drawings",
    "cli",
)

HOT_CALLS = 100_000

_RESAMPLES = re.compile(r"random_general_position\(.*\): (\d+) resamples")


def _dir_totals(path) -> dict:
    files = 0
    size = 0
    for root, _dirs, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(root, name))
    return {"files_written": files, "bytes_written": size}


# Counts per function, keyed by "<module>.<function>": the count names and
# how to read them from the return value (None: the log handler counts).
EXTRAS = {
    "geometry.lines_of": (("lines",), lambda r: {"lines": len(r)}),
    "generators.random_general_position_set": (("resamples",), None),
    "blocking.candidate_blockers": (("segments", "candidates"), lambda r: {
        "segments": len(r.segments), "candidates": len(r.candidates)}),
    "blocking.min_blocking_set": (("optimal",), lambda r: {"optimal": int(bool(r.optimal))}),
    "crossing.regular_ngon_multiplicity": (("certified",), lambda r: {"certified": int(bool(r.certified))}),
    "cli.run": (("bytes_written", "files_written"), _dir_totals),
}


class _ResampleLog(logging.Handler):
    """Reads the resample count that `random_general_position_set` logs."""

    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.INFO)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        m = _RESAMPLES.match(record.getMessage())
        if m:
            st = self.tracer.stats.get("generators.random_general_position_set")
            if st is not None:
                st["resamples"] += int(m.group(1))


class Tracer:
    def __init__(self):
        self.names: list[str] = []          # function index -> "<module>.<function>"
        self.stats: dict[str, dict] = {}    # name -> calls, total_s, self_s, extras
        self.by_parent: dict[tuple[str, str], list] = {}  # hot calls: [calls, self_s]
        self.by_group: dict[tuple[str, str], list] = {}  # (name, op group) -> [self_s, total_s]
        self.spans: list[tuple] = []
        self.hot_functions: set[str] = set()
        self.op_id = -1
        self.op_group = "setup"
        self._pass_calls: dict[int, int] = {}
        self._stack: list[list] = []        # [span id, child seconds, function index]
        self._next_span = 0
        self._patches: list[tuple[object, str, object, object]] = []
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper, which holds the original
        self._log_handler = _ResampleLog(self)
        self._log_level = logging.NOTSET

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap (once per tracer) and rebind; stats carry over reinstalls."""
        if self._patches:
            return
        if not self._wrappers:
            for layer in LAYERS:
                mod = importlib.import_module(f"visblock.{layer}")
                for attr, fn in sorted(vars(mod).items()):
                    if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                        continue
                    if getattr(fn, "__module__", None) != mod.__name__:
                        continue
                    self._wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        wrappers = self._wrappers
        targets = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "visblock" or name.startswith("visblock."))]
        for mod in targets:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, attr, value, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._patch(value, key, item, wrappers[id(item)])
        log = logging.getLogger("visblock")
        self._log_level = log.level
        log.setLevel(logging.INFO)
        log.addHandler(self._log_handler)

    def _patch(self, owner, key, original, wrapper) -> None:
        self._patches.append((owner, key, original, wrapper))
        if isinstance(owner, dict):
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _wrapper in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()
        log = logging.getLogger("visblock")
        log.removeHandler(self._log_handler)
        log.setLevel(self._log_level)

    # -- recording ------------------------------------------------------

    def start_pass(self) -> None:
        """Call after the workload's per-pass reset, which lowers the
        `visblock` logger level the resample count needs."""
        self._pass_calls = {}
        logging.getLogger("visblock").setLevel(logging.INFO)

    def start_op(self, op_id: int, group: str) -> None:
        self.op_id = op_id
        self.op_group = group

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        st = self.stats[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        keys, extra = EXTRAS.get(name, ((), None))
        st.update(dict.fromkeys(keys, 0))
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_span
            self._next_span = span_id + 1
            frame = [span_id, 0.0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self_s = dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                st["calls"] += 1
                st["total_s"] += dur
                st["self_s"] += self_s
                grp = self.by_group.setdefault((name, self.op_group), [0.0, 0.0])
                grp[0] += self_s
                grp[1] += dur
                n = self._pass_calls.get(idx, 0) + 1
                self._pass_calls[idx] = n
                if n <= HOT_CALLS:
                    self.spans.append((span_id, -1 if parent is None else parent[0],
                                       idx, self.op_id, t0, dur, self_s))
                else:
                    self.hot_functions.add(name)
                    pkey = (name, "-" if parent is None else self.names[parent[2]])
                    agg = self.by_parent.setdefault(pkey, [0, 0.0])
                    agg[0] += 1
                    agg[1] += self_s
            if extra is not None:
                for key, val in extra(result).items():
                    st[key] += val
            return result

        return traced

    # -- output ---------------------------------------------------------

    def dump(self) -> dict:
        return {
            "hot_calls_threshold": HOT_CALLS,
            "hot_functions": sorted(self.hot_functions),
            "functions": self.stats,
            "hot_by_parent": [
                {"function": f, "parent": p, "calls": c, "self_s": s}
                for (f, p), (c, s) in sorted(self.by_parent.items())
            ],
            "by_op_group": [
                {"function": f, "group": g, "self_s": s, "total_s": t}
                for (f, g), (s, t) in sorted(self.by_group.items())
            ],
            "span_fields": ["span", "parent", "function", "op", "start_s", "dur_s", "self_s"],
            "span_functions": self.names,
            "spans": self.spans,
        }
