"""Spans and counts at the public boundaries of functorlab's layers.

The tracer wraps functions and methods from outside the package: every
module attribute that is the original function object is re-bound (so
``submodule.buchberger``, imported with ``from .groebner import ...``, is
wrapped too), and methods are replaced on their class.  Ring and polynomial
arithmetic is not wrapped; it is accounted inside ``reduce_vec``'s self time.

Each thread keeps its own span stack and its own table, because grid points
run on a thread pool when ``--jobs`` is above one; the tables are summed at
the end.  Per span name the table holds calls, inclusive time (outermost
activation only, so recursion is not counted twice) and self time
(inclusive time minus the time of child spans).
"""

import importlib
import pkgutil
import threading
from time import perf_counter

# (module, attribute) of every traced function; "Class.method" for methods.
# The span name is "<module>.<attribute>"; a method is named by its module
# and method ("submodule.groebner"), a constructor by its module and class
# ("groebner.LiftSolver", whose calls are the builds).
TARGETS = (
    ("groebner", "reduce_vec"),
    ("groebner", "interreduce"),
    ("groebner", "buchberger"),
    ("groebner", "s_vector"),
    ("groebner", "LiftSolver.__init__"),
    ("fpmodule", "free_resolution"),
    ("fpmodule", "hom_ext_tor"),
    ("fpmodule", "FPModule.presentation"),
    ("invariants", "is_associated"),
    ("invariants", "associated_primes"),
    ("invariants", "betti_number"),
    ("invariants", "bass_number"),
    ("invariants", "projective_dimension"),
    ("invariants", "injective_dimension"),
    ("submodule", "Submodule.groebner"),
    ("submodule", "Submodule.intersect"),
    ("submodule", "Submodule.minimal_generators"),
    ("cache", "Cache.get"),
    ("cache", "Cache.put"),
    ("hilbert", "ideal_numerator"),
    ("multigraded", "graded_component"),
    ("multigraded", "analytic_spread"),
    ("multigraded", "artin_rees_exponent"),
    ("multigraded", "rees_algebra"),
    ("stability", "grid_evaluate"),
    ("stability", "normal_form"),
    ("stability", "FamilySpec.member"),
    ("functors", "evaluate"),
    ("fitting", "fit_polynomial"),
    ("reports", "write_artifacts"),
    ("scenario", "load_scenario"),
)


def span_name(module, attr):
    if "." in attr:
        cls, method = attr.split(".")
        if method == "__init__":
            return "%s.%s" % (module, cls)
        return "%s.%s" % (module, method)
    return "%s.%s" % (module, attr)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []
        self._counters = []
        self._patched = []  # (owner, attribute, original) for uninstall

    def _state(self):
        local = self._local
        try:
            return local.stack, local.table, local.active, local.counts
        except AttributeError:
            local.stack, local.table, local.active, local.counts = [], {}, {}, {}
            with self._lock:
                self._tables.append(local.table)
                self._counters.append(local.counts)
            return local.stack, local.table, local.active, local.counts

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack, table, active, counts = tracer._state()
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            depth = active.get(name, 0)
            active[name] = depth + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                active[name] = depth
                if stack:
                    stack[-1][1] += elapsed
                rec = table.get(name)
                if rec is None:
                    rec = table[name] = [0, 0.0, 0.0]
                rec[0] += 1
                if depth == 0:
                    rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if name == "groebner.reduce_vec" and parent == "groebner.buchberger":
                # inside buchberger, reduce_vec only reduces S-vectors
                counts["spairs_reduced"] = counts.get("spairs_reduced", 0) + 1
                if not result[0]:
                    counts["spairs_zero"] = counts.get("spairs_zero", 0) + 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Wrap every target in the imported functorlab package."""
        import functorlab

        modules = [functorlab] + [
            importlib.import_module("functorlab." + info.name)
            for info in pkgutil.iter_modules(functorlab.__path__)
        ]
        for module_name, attr in TARGETS:
            module = importlib.import_module("functorlab." + module_name)
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patched.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        """Restore every binding install() replaced."""
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def table(self):
        """{span: [calls, incl_s, self_s]} summed over threads."""
        with self._lock:
            tables = list(self._tables)
        out = {}
        for table in tables:
            for name, (calls, incl, self_s) in list(table.items()):
                rec = out.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += incl
                rec[2] += self_s
        return out

    def counts(self):
        with self._lock:
            counters = list(self._counters)
        out = {}
        for counts in counters:
            for key, value in list(counts.items()):
                out[key] = out.get(key, 0) + value
        return out

    def self_total(self):
        return sum(rec[2] for rec in self.table().values())
