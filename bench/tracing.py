"""Per-layer tracing, installed from outside the library.

`Tracer.install` replaces every public function of the traced modules
with a timing wrapper.  The modules import each other's functions by
name (`deciders` does `from .endo import end_monoid`), so the wrapper is
bound in every namespace that holds the original, the package's own
namespace included.  The theorem checks are reached only through
`harness.REGISTRY`, so they are wrapped there.

A wrapper counts calls and, unless the function is in `COUNT_ONLY`,
records a span (name, start, end, parent) in memory.  `COUNT_ONLY`
holds the functions called hundreds of thousands of times per pass,
where a span per call would cost more than the work it times.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

LAYERS = ("monoid", "act", "congruence", "endo", "deciders", "harness", "textio", "cli")

COUNT_ONLY = frozenset(
    {
        "congruence.congruence_closure",
        "congruence.join",
        "congruence.meet",
        "congruence.principal_congruence",
        "congruence.congruence_refines",
        "congruence.kernel_congruence",
        "congruence.image_congruence",
        "congruence.diagonal",
        "congruence.universal",
        "act.compose",
        "act.power",
        "act.identity_hom",
        "monoid.element_power",
        "monoid.row_partition",
        "deciders.k_chain_index",
        "deciders.i_chain_index",
        "deciders.chain_report",
    }
)


class Stat:
    __slots__ = ("calls", "seconds", "active", "items", "bytes", "candidates")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0  # inclusive, outermost calls only
        self.active = 0
        self.items = 0  # len() of the results, where the result is a list
        self.bytes = 0
        self.candidates = 0


class Tracer:
    """Counters and spans for one traced process."""

    def __init__(self):
        self.stats = {}
        self.spans = []  # [name, start, end, parent index, seconds in other layers]
        self.stack = []
        self._restore = []

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    # -- wrappers ----------------------------------------------------------

    def _counting(self, name, fn):
        st = self.stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timing(self, name, fn, measure=None):
        st = self.stat(name)
        layer = name.split(".", 1)[0]
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            st.active += 1
            parent = stack[-1] if stack else -1
            index = len(spans)
            # span: name, start, end, parent, seconds covered by other layers
            span = [name, 0.0, 0.0, parent, 0.0]
            spans.append(span)
            stack.append(index)
            start = span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = span[2] = clock()
                stack.pop()
                st.active -= 1
                if st.active == 0:
                    st.seconds += end - start
                if parent >= 0:
                    up = spans[parent]
                    if up[0].split(".", 1)[0] != layer:
                        up[4] += end - start
                    else:
                        up[4] += span[4]
            if measure is not None:
                measure(st, args, result)
            return result

        return wrapper

    def install(self, lib):
        """Wrap the public functions of every module in LAYERS; `lib`
        holds the modules by layer name and the package itself."""
        modules = {layer: getattr(lib, layer) for layer in LAYERS}
        namespaces = list(modules.values()) + [lib.package]
        measures = _measures(modules)
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrapped = self._counting(name, fn)
                else:
                    wrapped = self._timing(name, fn, measures.get(name))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._restore.append((ns, key, value))
                            setattr(ns, key, wrapped)
        registry = modules["harness"].REGISTRY
        for tid, (title, kind, fn) in list(registry.items()):
            self._restore.append((registry, tid, (title, kind, fn)))
            registry[tid] = (title, kind, self._timing(f"harness.theorem.{tid}", fn))

    def uninstall(self):
        for ns, key, value in reversed(self._restore):
            if isinstance(ns, dict):
                ns[key] = value
            else:
                setattr(ns, key, value)
        self._restore.clear()

    # -- reports -------------------------------------------------------------

    def self_seconds(self, name):
        """Time spent in `name`'s own layer: its spans minus the parts
        covered by spans of other layers."""
        return sum(
            end - start - foreign
            for n, start, end, _, foreign in self.spans
            if n == name
        )

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _measures(modules):
    """Extra per-call counters: result sizes, bytes parsed, candidates."""
    generators = modules["monoid"].monoid_generators

    def count_items(st, args, result):
        st.items += len(result)

    def act_candidates(st, args, result):
        M, m = args[0], args[1]
        k = len(generators(M))
        st.items += len(result)
        st.candidates += m ** (m * k) if k else 1

    def text_bytes(st, args, result):
        st.bytes += len(args[0].encode("utf-8"))

    return {
        "endo.homomorphisms": count_items,
        "harness.enumerate_acts": act_candidates,
        "textio.parse_input": text_bytes,
    }
