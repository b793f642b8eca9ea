"""Per-function spans for a traced benchmark command, installed from outside
the program.

:meth:`Tracer.install` wraps every public function of the extquot layer
modules and rebinds the wrapper under every name that binds the original:
in its own module, in each module that imported it with ``from .x import f``,
in the package namespace, and in module-level dicts such as
``reference.PROPERTY_SUITES``.  Calls are aggregated per function name in
memory (calls, items, rows, total and self nanoseconds); a generator is timed
per item it yields.  Self time is a span's duration minus the durations of
the wrapped spans it encloses.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("partitions", "numtheory", "complex_quotient", "real_quotient", "topology", "reference", "cli")
# Functions whose result is a catalog; their `.rows` count its entries.
CATALOG_FUNCTIONS = ("complex_quotient.decompose_complex", "real_quotient.decompose_real")
CALLS, ITEMS, ROWS, TOTAL_NS, SELF_NS = range(5)

clock = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.stack = [0]  # time covered by wrapped children, per open span
        self.stats: dict[str, list[int]] = {}
        self.cached: dict[str, object] = {}  # lru_cache functions, for cache_info()

    def wrap(self, name: str, fn):
        """A wrapper of ``fn`` that records a span named ``name`` per call."""
        rec = self.stats.setdefault(name, [0, 0, 0, 0, 0])
        stack = self.stack
        count_rows = name in CATALOG_FUNCTIONS

        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                rec[CALLS] += 1
                rec[TOTAL_NS] += elapsed
                rec[SELF_NS] += elapsed - inner
            if count_rows:
                rec[ROWS] += len(result.entries)
            return result

        return functools.update_wrapper(wrapper, fn)

    def wrap_generator(self, name: str, fn):
        """A wrapper of generator function ``fn`` that records one span per item."""
        rec = self.stats.setdefault(name, [0, 0, 0, 0, 0])
        stack = self.stack

        def items(it):
            step = it.__next__
            while True:
                stack.append(0)
                start = clock()
                done = False
                try:
                    item = step()
                except StopIteration:
                    done = True
                finally:
                    elapsed = clock() - start
                    inner = stack.pop()
                    stack[-1] += elapsed
                    rec[TOTAL_NS] += elapsed
                    rec[SELF_NS] += elapsed - inner
                if done:
                    return
                rec[ITEMS] += 1
                yield item

        def wrapper(*args, **kwargs):
            rec[CALLS] += 1
            return items(fn(*args, **kwargs))

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Wrap the public functions of every layer module of the loaded package."""
        replace: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"extquot.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    replace[id(obj)] = self.wrap_generator(name, obj)
                elif inspect.isfunction(obj):
                    replace[id(obj)] = self.wrap(name, obj)
                elif hasattr(obj, "cache_info"):
                    self.cached[name] = obj
                    replace[id(obj)] = self.wrap(name, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "extquot" and not modname.startswith("extquot."):
                continue
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                if id(obj) in replace and replace[id(obj)].__wrapped__ is obj:
                    namespace[attr] = replace[id(obj)]
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replace and replace[id(value)].__wrapped__ is value:
                            obj[key] = replace[id(value)]

    def report(self) -> dict:
        return {
            "stats": self.stats,
            "cache_hits": {name: fn.cache_info().hits for name, fn in self.cached.items()},
        }
