"""Spans around seqlab's public functions, recorded from outside the library.

``Tracer.install`` wraps every public function of the traced modules (and
``IntMatrix.det`` on its class) and rebinds each wrapper in every seqlab
namespace that held the original, because modules import each other's
functions by name.  A wrapper records its span's duration, charges it to the
enclosing span as child time, and keeps ``self = duration - children``.

Spans are aggregated in memory by (parent function, function): arith alone
sees about two million calls in a sparse scan, so no per-call record is kept
and the wrapper does as little as it can.  Counters that need arguments or
results are updated by hooks after the span closes.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("arith", "classical", "realizability", "experiment", "primes", "congruences", "algebraic", "matrices", "bfile", "cli")

ROOT = "<task>"


def _terms_checked(tracer, args, kwargs, result):
    tracer.add("realizability.terms_checked", len(args[0]))


def _trivial_part(tracer, args, kwargs, result):
    # a q-part sequence of all ones: q divides no term of the scanned prefix
    tracer.add("experiment.trivial_primes", all(v == 1 for v in result.values))


def _primes_scanned(tracer, args, kwargs, result):
    tracer.add("experiment.primes_scanned", len(result["local"]))


def _candidates(tracer, args, kwargs, result):
    group = args[0]
    tracer.add("algebraic.candidates", group.order ** len(group.generating_set()))
    tracer.add("algebraic.endomorphisms", len(result))


def _bytes_parsed(tracer, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    tracer.add("bfile.bytes_parsed", len(text.encode()))


def _table_built(tracer, args, kwargs, result):
    # the number engines' recurrences are the classical functions returning a
    # plain list of table entries
    if type(result) is list:
        tracer.add("classical.builds", 1)
        tracer.add("classical.terms_built", len(result))


HOOKS = {
    "realizability.check_realizable": _terms_checked,
    "realizability.p_part_sequence": _trivial_part,
    "experiment.run_experiment": _primes_scanned,
    "algebraic.enumerate_endomorphisms": _candidates,
    "bfile.parse_bfile": _bytes_parsed,
}


class Tracer:
    """Aggregated span tree plus exact counters for one traced process."""

    def __init__(self):
        self.spans: dict[str, dict[str, list]] = {}  # key -> parent -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._stack = [[ROOT, 0.0]]

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def install(self, layers=LAYERS) -> None:
        """Wrap the public functions of ``layers`` in every seqlab namespace."""
        originals = {}
        for layer in layers:
            module = importlib.import_module(f"seqlab.{layer}")
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    originals[id(obj)] = self._wrap(obj, f"{layer}.{name}")
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "seqlab" or mod_name.startswith("seqlab.")):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)
        if "matrices" in layers:
            from seqlab.matrices import IntMatrix

            IntMatrix.det = self._wrap(IntMatrix.det, "matrices.IntMatrix.det")

    def span(self, key: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``key`` (used for the CLI entry)."""
        return self._wrap(fn, key)(*args, **kwargs)

    def _wrap(self, fn, key: str):
        stack = self._stack
        by_parent = self.spans.setdefault(key, {})
        clock = time.perf_counter
        hook = HOOKS.get(key) or (_table_built if key.startswith("classical.") else None)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                record = by_parent.get(parent[0])
                if record is None:
                    record = by_parent[parent[0]] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def export(self) -> dict:
        """JSON-able spans and counters."""
        return {
            "spans": sorted([parent, key, *rec] for key, by_parent in self.spans.items() for parent, rec in by_parent.items()),
            "counts": dict(sorted(self.counts.items())),
        }
