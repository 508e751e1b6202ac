"""Per-layer timing from outside the program.

The tracer replaces public functions of ``recordstart`` with timing
wrappers at the places where callers look the names up at call time, so
nothing under ``src/`` changes.  A wrapped call is a span: its self time is
its duration minus the time covered by the spans it called.  Counts are
kept at the same boundaries, including the caller of each span, so a
ratio such as line-search probes per Newton step is measured where the
work happens.

Only single-process runs can be traced: a worker process would run its
own, unwrapped copy of the package.

``special.digamma`` is called millions of times per pass, and even a bare
counting wrapper on it cost more than all other spans together (on the
deep workload +50 % wall time against +5 %); it is counted in a pass of
its own (``hot=True``) so that the spans' self times are not inflated by
it.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """Self time and call counts per span name; with ``hot`` only the
    call count of ``special.digamma``."""

    def __init__(self, hot: bool = False):
        self.hot = hot
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.missing = set()
        self._stack = []
        self._undo = []

    def _span(self, name, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter
        none_key = f"{name}:none"

        def wrapped(*args, **kwargs):
            caller = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            calls[name] += 1
            calls[(caller, name)] += 1
            if result is None:
                calls[none_key] += 1
            return result

        return wrapped

    def _counter(self, name, fn):
        calls = self.calls

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _replace(self, owner, key, name, make):
        """Wrap ``owner.key`` (or ``owner[key]`` for a dict); a name the
        program no longer has is recorded in ``missing`` and skipped."""
        is_dict = isinstance(owner, dict)
        if not is_dict and not hasattr(owner, key):
            self.missing.add(f"{owner.__name__}.{key}")
            return
        original = owner[key] if is_dict else getattr(owner, key)
        if is_dict:
            owner[key] = make(name, original)
            self._undo.append(lambda: owner.__setitem__(key, original))
        else:
            setattr(owner, key, make(name, original))
            self._undo.append(lambda: setattr(owner, key, original))

    def span(self, owner, key, name):
        self._replace(owner, key, name, self._span)

    def count(self, owner, key, name):
        self._replace(owner, key, name, self._counter)

    @contextmanager
    def installed(self):
        """Wrap every layer boundary of ``recordstart`` for the duration."""
        from recordstart import bench, hasplid, multistart, newton_cg, objectives, special

        try:
            self._install(bench, hasplid, multistart, newton_cg, objectives, special)
            yield self
        finally:
            while self._undo:
                self._undo.pop()()
            self._stack.clear()

    def _install(self, bench, hasplid, multistart, newton_cg, objectives, special):
        if self.hot:
            self.count(special, "digamma", "special.digamma")
            return
        for method in ("f", "grad", "hvp"):
            self.span(objectives.Oracle, method, f"objectives.{method}")
        # the drivers call newton_cg.step/init through the module; the bare
        # baseline in bench imported them by name
        self.span(newton_cg, "init", "newton_cg.init")
        self.span(newton_cg, "step", "newton_cg.step")
        self.span(bench, "ncg_init", "newton_cg.init")
        self.span(bench, "ncg_step", "newton_cg.step")
        self.span(multistart, "n_record_threshold", "special.threshold")
        self.span(multistart, "solve_zeta", "special.zeta")
        self.span(multistart, "p_fail", "special.pfail")
        self.span(multistart, "expected_slope", "special.slope")
        # bench dispatches through _DRIVERS, so patching multistart.run_dmss
        # alone would miss every experiment run
        drivers = getattr(bench, "_DRIVERS", {})
        if not drivers:
            self.missing.add("recordstart.bench._DRIVERS")
        for algorithm in tuple(drivers):
            self.span(drivers, algorithm, "multistart")
        self.span(bench, "run_experiment", "bench")
        self.span(bench, "emit_history", "bench.emit_history")
        self.span(hasplid, "validate_statistics", "hasplid")
        self.count(hasplid, "_trajectory_rng", "hasplid.trajectory")

    def counts(self) -> dict:
        """Counts as ``name -> count``: calls per span, ``caller>name`` per
        caller edge (``top`` outside any span) and ``name:none`` for calls
        that returned None."""
        out = {}
        for key, value in self.calls.items():
            if isinstance(key, tuple):
                key = f"{key[0] or 'top'}>{key[1]}"
            out[key] = value
        return dict(sorted(out.items()))
