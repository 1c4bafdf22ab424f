"""Outside-in tracing: wrap the module attributes the program looks up at
call time, record one span per call, restore the originals afterwards.

Spans live in flat in-memory arrays (name id, parent span, operation, start,
end) and are written out once, when the traced pass ends. Nothing inside the
program changes: a wrapper calls the original with the same arguments and
returns its result untouched.
"""

from __future__ import annotations

import gzip
import time
from array import array

# (module, attribute, span name). The attribute is the name the caller
# resolves at call time, so one function can appear under two attributes.
WRAPPED = (
    ("slider", "solve", "slider.solve"),
    ("slider", "iterate_once", "slider.iterate_once"),
    ("slider", "apply_overshoot_schedule", "slider.apply_overshoot_schedule"),
    ("slider", "convergence_metrics", "slider.convergence_metrics"),
    ("slider", "initial_state", "slider.initial_state"),
    ("slider", "line_surface_entry", "geometry.line_surface_entry"),
    ("contact", "analyze", "contact.analyze"),
    ("contact", "classify", "contact.classify"),
    ("contact", "penetration_depth", "contact.penetration_depth"),
    ("contact", "implicit_value", "contact.implicit_value"),
    ("contact", "advance_param", "contact.advance_param"),
    ("cli", "main", "cli.main"),
    ("cli", "solve", "slider.solve"),
    ("cli", "contact_analyze", "contact.analyze"),
    ("cli", "oracle_min_distance", "oracle.min_distance"),
    ("cli", "load_scenario", "scenarios.load_scenario"),
)

OP = "op"  # the benchmark's own root span around each operation


class Tracer:
    def __init__(self):
        self.names = [OP]
        self.name_ids = {OP: 0}
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("q")
        self.end = array("q")
        self.overshoots = 0  # apply_overshoot_schedule returns that halved
        self._stack = []
        self._op = -1
        self._restore = []

    def _open(self, name_id):
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid):
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def install(self, mods):
        """Replace every attribute in WRAPPED by a recording wrapper."""
        for mod_name, attr, span in WRAPPED:
            module = getattr(mods, mod_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, self._name_id(span), span))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrapper(self, original, name_id, span):
        count_overshoot = span == "slider.apply_overshoot_schedule"

        def traced(*args, **kwargs):
            sid = self._open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(sid)
            if count_overshoot and result.overshoot:
                self.overshoots += 1
            return result

        return traced

    def run_op(self, op_index, fn, *args):
        """Call ``fn`` inside the operation's root span."""
        self._op = op_index
        sid = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(sid)

    def summary(self, scales):
        """Per span name: calls and self time in ns (duration minus the
        time covered by direct children), each span's self time multiplied
        by ``scales[op]``. Also the number of ``contact.advance_param``
        calls below a depth span."""
        n = len(self.name)
        child_ns = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child_ns[p] += self.end[sid] - self.start[sid]
        calls = {name: 0 for name in self.names}
        self_ns = {name: 0 for name in self.names}
        depth_id = self.name_ids.get("contact.penetration_depth")
        advance_id = self.name_ids.get("contact.advance_param")
        advance_in_depth = 0
        for sid in range(n):
            name = self.names[self.name[sid]]
            calls[name] += 1
            own = self.end[sid] - self.start[sid] - child_ns[sid]
            self_ns[name] += own * scales[self.op[sid]]
            if self.name[sid] == advance_id:
                p = self.parent[sid]
                while p >= 0 and self.name[p] != depth_id:
                    p = self.parent[p]
                advance_in_depth += p >= 0
        return calls, self_ns, advance_in_depth

    def write(self, path):
        """Gzipped CSV, one line per span: id, name, parent id, op, start and
        end ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,parent,op,start_ns,end_ns\n")
            for sid in range(len(self.name)):
                fh.write(
                    f"{sid},{self.names[self.name[sid]]},{self.parent[sid]},"
                    f"{self.op[sid]},{self.start[sid]},{self.end[sid]}\n"
                )
