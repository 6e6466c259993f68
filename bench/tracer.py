"""Span recorder that wraps malle_lab's public functions from outside.

``install`` replaces, in a job process, each public function of the layer
modules by a wrapper that records a span (identifier, parent span, name,
start, end), and rebinds every name other modules bound with
``from .x import y``; no file of the program changes.  Spans stay in memory
until the job ends.  ``Recorder.layer_totals`` turns them into the raw
per-layer figures of one job: self time (span time minus the time of its
child spans) and calls per wrapped function, plus counters read from the
program's caches and from a few return values.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from collections import defaultdict

import refs

LAYERS = ("numerics", "groups", "invariants", "theta", "lvalues", "series", "oracle", "cli")

# Per-element helpers run hundreds of thousands of times per job at well under
# a microsecond each, as cheap as a wrapper: their time stays in the caller.
LEAVES = {
    "numerics": {"is_prime", "factorize", "divisors", "radical", "smallest_prime_factor",
                 "euler_phi", "moebius_int", "multiplicative_order", "precision_digits"},
    "groups": {"element_order", "character_angle", "character_is_trivial_on"},
    "invariants": {"index_of", "weight_of", "default_zeta_order_hook"},
    "series": {"restricted_local_factor", "zeta_local_data"},
}

CACHES = {  # metric prefix -> (module, lru_cache attribute)
    "numerics.factorize": ("numerics", "factorize"),
    "lvalues.characters_mod": ("lvalues", "characters_mod"),
    "series.restricted_local_factor": ("series", "restricted_local_factor"),
}


class Recorder:
    """Spans and counters of one job process."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.stack: list[int] = []
        self.ids = itertools.count(1)
        self.counts: dict[str, int] = defaultdict(int)
        self.lattices: dict[object, int] = {}
        self.pools: list[tuple[int, list]] = []
        self.product_bounds: list[int] = []
        self.caches: dict[str, object] = {}
        self.hooks = self._hooks()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        hook = self.hooks.get(name)
        ids = self.ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _hooks(self):
        counts = self.counts

        def lattice(args, result):
            self.lattices[args[0]] = len(result)

        def add(metric, size):
            def hook(args, result):
                counts[metric] += size(result)
            return hook

        return {
            "groups.subgroup_lattice": lattice,
            "groups.sieve_terms": add("groups.sieve_subgroups", len),
            "theta.scan_cyclic": add("theta.scan_rows", lambda r: len(r.rows)),
            "series.series_coefficients": add("series.coefficients_out", len),
            "oracle.characters_up_to": lambda args, result: self.pools.append((args[0], result)),
            "series.euler_product_truncated": lambda args, result: self.product_bounds.append(args[2]),
        }

    def count_method(self, cls, attr: str, metric: str) -> None:
        counts = self.counts
        member = cls.__dict__[attr]
        if isinstance(member, property):
            fget = member.fget

            def counted(obj):
                counts[metric] += 1
                return fget(obj)

            setattr(cls, attr, property(counted))
        else:

            def counted(*args, **kwargs):
                counts[metric] += 1
                return member(*args, **kwargs)

            setattr(cls, attr, counted)

    def layer_totals(self) -> dict[str, float]:
        """Raw per-job figures: '<fn>.s', '<fn>.calls', '<layer>.self_s' and counters."""
        out: dict[str, float] = defaultdict(float)
        children: dict[int, list] = defaultdict(list)
        for span in self.spans:
            if span[1] is not None:
                children[span[1]].append(span)
        for sid, _, name, start, end in self.spans:
            own = (end - start) - sum(c[4] - c[3] for c in children[sid])
            out[f"{name}.s"] += own
            out[f"{name}.calls"] += 1
            out[f"{name.split('.')[0]}.self_s"] += own
            if name == "cli.run":
                library = [c for c in children[sid] if not c[2].startswith("cli.")]
                out["cli.overhead_s"] += (end - start) - sum(c[4] - c[3] for c in library)
            elif name == "oracle.count_surjections":
                # the pools are built by characters_up_to calls; the walk
                # starts when the last of them returns
                pools = [c[4] for c in children[sid] if c[2] == "oracle.characters_up_to"]
                if pools:
                    after = [c for c in children[sid] if c[3] >= max(pools)]
                    out["oracle.walk_s"] += (end - max(pools)) - sum(c[4] - c[3] for c in after)
                else:  # walk_s cannot be split off; the runner reports it
                    out["oracle.walk_unmarked"] += 1
        for metric, value in self.counts.items():
            out[metric] += value
        out["groups.subgroups_built"] += sum(self.lattices.values())
        for order, chars in self.pools:
            out["oracle.pool_candidates"] += len(chars)
            out["oracle.pool_characters"] += sum(1 for chi in chars if chi.order == order)
        out["series.inline_factor_evals"] += sum(len(refs.primes_to(p)) for p in self.product_bounds)
        for prefix, cached in self.caches.items():
            info = cached.cache_info()
            out[f"{prefix}.hits"] += info.hits
            out[f"{prefix}.misses"] += info.misses
            out[f"{prefix}.cache_entries"] += info.currsize
        return dict(out)

    def span_rows(self) -> list[list]:
        return [[self.job_id, *span] for span in self.spans]


def install(job_id: str) -> Recorder:
    """Wrap the layer modules of the already imported malle_lab package."""
    rec = Recorder(job_id)
    modules = {layer: importlib.import_module(f"malle_lab.{layer}") for layer in LAYERS}
    wrappers: dict[int, tuple[object, object]] = {}
    for layer, mod in modules.items():
        for attr, value in vars(mod).items():
            if attr.startswith("_") or attr in LEAVES.get(layer, ()):
                continue
            if isinstance(value, type) or not callable(value):
                continue
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            wrappers[id(value)] = (value, rec.wrap(f"{layer}.{attr}", value))
    for prefix, (layer, attr) in CACHES.items():
        rec.caches[prefix] = getattr(modules[layer], attr)
    for name, mod in list(sys.modules.items()):
        if name != "malle_lab" and not name.startswith("malle_lab."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    character = modules["oracle"].DirichletCharacter
    rec.count_method(character, "mul", "oracle.mul.calls")
    rec.count_method(character, "conductor", "oracle.conductor.calls")
    return rec
