"""Per-layer tracing for the benchmark, installed from outside the program.

The tracer wraps public functions and methods of the ``repro`` modules in
spans.  A span records its layer name, duration and the time its child
spans covered; a layer's self time is the sum over its spans of duration
minus child time.  Every thread keeps its own span stack, so the scoring
service's worker threads nest correctly, and a worker's root span can be
adopted by the client span that caused it (see :meth:`Tracer.span`'s
``link`` argument), which makes a request's server-side work a child of
its client-observed latency.

Nothing here edits the program: wrapping happens by attribute
replacement at run time, and :meth:`Tracer.uninstall` restores every
original.  Module-level functions are replaced under every name a
``repro`` module imported them by, and methods are replaced on their
class, so every call site is covered.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class _Frame:
    __slots__ = ("name", "start", "child_s")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Span stacks per thread, aggregated per layer and per phase."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Wrappers installed (a traced run); spans record only while active.
        self.enabled = False
        self.active = False
        self.phase = ""
        #: layer -> {"calls", "self_s", "total_s"}; ``total_s`` counts only
        #: the outermost span of a layer on each stack (no double counting).
        self.layers: Dict[str, Dict[str, float]] = {}
        #: phase -> layer -> self seconds (spans closed while the phase was set).
        self.phase_layers: Dict[str, Dict[str, float]] = {}
        self.counters: Dict[str, float] = {}
        self.spans = 0
        self._links: Dict[str, _Frame] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Entry points that no longer exist; their layers record no calls.
        self.missing: List[str] = []

    def set_active(self, flag: bool) -> None:
        self.active = flag and self.enabled

    # -- recording -------------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def _close(self, stack: List[_Frame], frame: _Frame, parent: Optional[_Frame]) -> None:
        duration = _clock() - frame.start
        stack.pop()
        outermost = all(other.name != frame.name for other in stack)
        with self._lock:
            record = self.layers.setdefault(
                frame.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            )
            record["calls"] += 1
            record["self_s"] += duration - frame.child_s
            if outermost:
                record["total_s"] += duration
            phase = self.phase_layers.setdefault(self.phase, {})
            phase[frame.name] = phase.get(frame.name, 0.0) + duration - frame.child_s
            self.spans += 1
            if stack:
                stack[-1].child_s += duration
            elif parent is not None:
                parent.child_s += duration

    @contextmanager
    def span(self, name: str, link: Optional[str] = None, parent_key: Optional[str] = None):
        """Time one call into layer ``name``.

        ``link`` registers the open span under a key so that a root span on
        another thread opened with the same ``parent_key`` becomes its child.
        """
        if not self.active:
            yield
            return
        stack = self._stack()
        parent = None
        if not stack and parent_key is not None:
            with self._lock:
                parent = self._links.get(parent_key)
        frame = _Frame(name, _clock())
        stack.append(frame)
        if link is not None:
            with self._lock:
                self._links[link] = frame
        try:
            yield
        finally:
            if link is not None:
                with self._lock:
                    self._links.pop(link, None)
            self._close(stack, frame, parent)

    # -- installation ----------------------------------------------------------

    def _replace(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap_function(
        self,
        module: Any,
        attr: str,
        name: str,
        after: Optional[Callable[["Tracer", tuple, dict, Any], None]] = None,
        parent_key: Optional[Callable[[tuple, dict], Optional[str]]] = None,
        before: Optional[Callable[["Tracer", tuple, dict], None]] = None,
    ) -> None:
        """Wrap ``module.attr`` under every name any ``repro`` module bound it to."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = self._make_wrapper(original, name, before, after, parent_key)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, wrapper)

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: str,
        after: Optional[Callable[["Tracer", tuple, dict, Any], None]] = None,
        before: Optional[Callable[["Tracer", tuple, dict], None]] = None,
    ) -> None:
        if attr not in cls.__dict__:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")
            return
        wrapper = self._make_wrapper(cls.__dict__[attr], name, before, after, None)
        self._replace(cls, attr, wrapper)

    def _make_wrapper(self, original, name, before, after, parent_key):
        tracer = self
        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def generator_wrapper(*args, **kwargs):
                # Each next() is one span: the work a generator does happens
                # while it is being iterated, not when it is created.
                iterator = original(*args, **kwargs)
                while True:
                    with tracer.span(name):
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                    if after is not None and tracer.active:
                        after(tracer, args, kwargs, item)
                    yield item

            return generator_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            key = parent_key(args, kwargs) if parent_key is not None else None
            if before is not None and tracer.active:
                before(tracer, args, kwargs)
            with tracer.span(name, parent_key=key):
                result = original(*args, **kwargs)
            if after is not None and tracer.active:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- overhead --------------------------------------------------------------

    @staticmethod
    def span_cost_s(rounds: int = 20000) -> float:
        """Measured cost of one span around a trivial call on this host.

        Recorded into a scratch tracer so the real aggregates stay clean.
        """
        scratch = Tracer()
        scratch.active = True

        def noop() -> None:
            return None

        wrapped = scratch._make_wrapper(noop, "calibration", None, None, None)
        costs = []
        for _ in range(5):
            started = _clock()
            for _ in range(rounds):
                noop()
            bare = _clock() - started
            started = _clock()
            for _ in range(rounds):
                wrapped()
            costs.append(max(0.0, (_clock() - started - bare) / rounds))
        costs.sort()
        return costs[len(costs) // 2]


# ---------------------------------------------------------------------------
# The layer map: which public entry points belong to which layer
# ---------------------------------------------------------------------------


def _count_tokens(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("lang.lexer.tokens", len(result))


def _count_candidates(tracer: Tracer, args, kwargs, result) -> None:
    candidate_sets = args[1] if len(args) > 1 else kwargs["candidate_sets"]
    tracer.count("eval.score.candidates", sum(len(s) for s in candidate_sets))


def _count_neighbor(tracer: Tracer, args, kwargs, item) -> None:
    tracer.count("eval.repair.neighbors")


def _count_cache_get(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("eval.cache.misses" if result is None else "eval.cache.hits")


def _count_cache_get_file(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("eval.cache.hits" if result else "eval.cache.misses")


def _count_cache_put(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("eval.cache.stores")


def _count_build(tracer: Tracer, args, kwargs) -> None:
    # A batch whose binary came from the cache has no build to wait for.
    if getattr(args[0], "_build_proc", None) is not None:
        tracer.count("testing.native.builds")


def _count_outcome(tracer: Tracer, args, kwargs, result) -> None:
    kind, detail = result
    tracer.count("testing.native.pairs")
    if kind == "trap":
        tracer.count("testing.native.traps")
    elif kind == "limit" and detail == "execution timeout":
        tracer.count("testing.native.timeouts")
        tracer.count(
            "testing.native.timeout_wait_s", getattr(args[0], "run_timeout", 0.0)
        )


def _service_parent(args, kwargs) -> Optional[str]:
    entries = args[0] if args else kwargs.get("entries")
    return entries[0].uid if entries else None


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.analysis import lint, verifier
    from repro.compiler import driver
    from repro.eval import cache, dataset, mutate, repair, score, service  # noqa: F401
    from repro.lang import interpreter, lexer, parser, printer, typecheck
    from repro.testing import fuzz, generator, irexec, native, oracle

    tracer.enabled = True
    tracer.wrap_function(lexer, "tokenize", "lang.lexer", after=_count_tokens)
    tracer.wrap_method(parser.Parser, "parse_program", "lang.parser")
    tracer.wrap_method(typecheck.TypeChecker, "check", "lang.typecheck")
    tracer.wrap_function(printer, "print_program", "lang.printer")
    tracer.wrap_method(interpreter.Interpreter, "run_function", "lang.interpreter")

    tracer.wrap_function(driver, "lower_for_backend", "compiler.lower")
    tracer.wrap_function(driver, "emit_from_lowered", "compiler.emit")
    tracer.wrap_function(lint, "lint_program", "analysis.lint")
    tracer.wrap_function(verifier, "verify_function", "analysis.verify")

    tracer.wrap_method(generator.ProgramGenerator, "generate", "testing.generator")
    tracer.wrap_method(irexec.IRExecutor, "run_function", "testing.irexec")
    tracer.wrap_method(oracle.Oracle, "prepare_batch", "testing.oracle")
    tracer.wrap_method(oracle.Oracle, "finish_batch", "testing.oracle")
    tracer.wrap_function(fuzz, "run_campaign", "testing.fuzz")
    tracer.wrap_method(
        native.NativeBatch, "ensure_built", "testing.native.build_wait", before=_count_build
    )
    tracer.wrap_method(
        native.NativeBatch, "outcome", "testing.native.exec_wait", after=_count_outcome
    )

    tracer.wrap_function(dataset, "generated_entries", "eval.dataset")
    tracer.wrap_function(dataset, "build_entry", "eval.dataset")
    tracer.wrap_function(dataset, "front_end_gate", "eval.gate")
    tracer.wrap_method(mutate.Mutator, "candidates", "eval.mutate")
    tracer.wrap_function(mutate, "repair_neighbors", "eval.repair.neighbors", after=_count_neighbor)
    tracer.wrap_function(score, "score_dataset", "eval.score")
    tracer.wrap_function(
        score,
        "score_entry_sets",
        "eval.score",
        after=_count_candidates,
        parent_key=_service_parent,
    )
    tracer.wrap_function(repair, "repair_campaign", "eval.repair")
    tracer.wrap_method(cache.EvalCache, "get", "eval.cache.get", after=_count_cache_get)
    tracer.wrap_method(
        cache.EvalCache, "get_file", "eval.cache.get", after=_count_cache_get_file
    )
    tracer.wrap_method(cache.EvalCache, "put", "eval.cache.put", after=_count_cache_put)
    tracer.wrap_method(cache.EvalCache, "put_file", "eval.cache.put", after=_count_cache_put)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

#: (metric name, unit, better) for every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = []


def _layer(prefix: str, count_name: str = "calls") -> None:
    PER_LAYER.append((f"{prefix}.{count_name}", "count", "lower"))
    PER_LAYER.append((f"{prefix}.self_s", "s", "lower"))


for _prefix in ("lang.lexer", "lang.parser", "lang.typecheck", "lang.printer"):
    _layer(_prefix)
PER_LAYER.insert(2, ("lang.lexer.tokens_per_s", "1/s", "higher"))
_layer("lang.interpreter", "runs")
for _prefix in ("compiler.lower", "compiler.emit", "analysis.lint", "analysis.verify"):
    _layer(_prefix)
_layer("testing.generator")
_layer("testing.irexec", "runs")
_layer("testing.oracle")
PER_LAYER += [
    ("testing.fuzz.self_s", "s", "lower"),
    ("testing.native.builds", "count", "lower"),
    ("testing.native.build_wait_s", "s", "lower"),
    ("testing.native.pairs", "count", "lower"),
    ("testing.native.exec_wait_s", "s", "lower"),
    ("testing.native.timeouts", "count", "lower"),
    ("testing.native.timeout_share", "ratio", "lower"),
    ("testing.native.traps", "count", "lower"),
]
_layer("eval.dataset")
_layer("eval.mutate")
PER_LAYER += [
    ("eval.gate.calls", "count", "lower"),
    ("eval.gate.self_s", "s", "lower"),
    ("eval.gate.calls_per_candidate", "ratio", "lower"),
    ("eval.score.self_s", "s", "lower"),
    ("eval.score.candidates", "count", "higher"),
    ("eval.repair.self_s", "s", "lower"),
    ("eval.repair.neighbors", "count", "higher"),
    ("eval.repair.neighbors_self_s", "s", "lower"),
    ("eval.repair.attempts_per_repaired", "ratio", "lower"),
    ("eval.repair.repair_rate", "ratio", "higher"),
    ("eval.cache.hits", "count", "higher"),
    ("eval.cache.misses", "count", "lower"),
    ("eval.cache.stores", "count", "lower"),
    ("eval.cache.hit_ratio", "ratio", "higher"),
    ("eval.cache.get_s", "s", "lower"),
    ("eval.cache.put_s", "s", "lower"),
    ("eval.service.requests", "count", "higher"),
    ("eval.service.self_s", "s", "lower"),
    ("eval.service.score_s", "s", "lower"),
    ("eval.service.overhead_ms", "ms", "lower"),
    ("phase.build.wall_s", "s", "lower"),
    ("phase.score.wall_s", "s", "lower"),
    ("phase.score.candidates_per_s", "1/s", "higher"),
    ("total.traced_wall_s", "s", "lower"),
    ("total.unattributed_s", "s", "lower"),
    ("total.trace_overhead", "ratio", "lower"),
]

#: Span name -> the layer prefix its per-layer metrics are reported under.
_SPAN_TO_PREFIX = {
    "testing.native.build_wait": "testing.native.build_wait_s",
    "testing.native.exec_wait": "testing.native.exec_wait_s",
    "eval.repair.neighbors": "eval.repair.neighbors_self_s",
    "eval.cache.get": "eval.cache.get_s",
    "eval.cache.put": "eval.cache.put_s",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer, traced_wall_s: float, span_cost_s: float, extra: Dict[str, float]
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run (0 where unused).

    ``extra`` carries what only the workload knows (repair outcomes,
    service request count, phase walls); ``traced_wall_s`` is the wall
    time the spans were recorded in, summed over the threads that drove
    the work.
    """
    layers, counters = tracer.layers, tracer.counters
    values: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}

    def self_s(span: str) -> float:
        return layers.get(span, {}).get("self_s", 0.0)

    def calls(span: str) -> float:
        return layers.get(span, {}).get("calls", 0)

    for span, record in layers.items():
        # Every span's self time is reported, so that the self times plus
        # ``total.unattributed_s`` add up to ``total.traced_wall_s``.
        values[_SPAN_TO_PREFIX.get(span, f"{span}.self_s")] = record["self_s"]
        for count_name in ("calls", "runs"):
            if f"{span}.{count_name}" in values:
                values[f"{span}.{count_name}"] = record["calls"]

    values["lang.lexer.tokens_per_s"] = _ratio(
        counters.get("lang.lexer.tokens", 0), self_s("lang.lexer")
    )
    values["testing.native.builds"] = counters.get("testing.native.builds", 0)
    for name in ("pairs", "timeouts", "traps"):
        values[f"testing.native.{name}"] = counters.get(f"testing.native.{name}", 0)
    values["testing.native.timeout_share"] = _ratio(
        counters.get("testing.native.timeout_wait_s", 0.0),
        layers.get("testing.native.exec_wait", {}).get("total_s", 0.0),
    )
    candidates = counters.get("eval.score.candidates", 0)
    values["eval.score.candidates"] = candidates
    values["eval.gate.calls_per_candidate"] = _ratio(calls("eval.gate"), candidates)
    values["eval.repair.neighbors"] = counters.get("eval.repair.neighbors", 0)
    for name in ("hits", "misses", "stores"):
        values[f"eval.cache.{name}"] = counters.get(f"eval.cache.{name}", 0)
    values["eval.cache.hit_ratio"] = _ratio(
        values["eval.cache.hits"], values["eval.cache.hits"] + values["eval.cache.misses"]
    )
    values.update(extra)

    attributed = sum(record["self_s"] for record in layers.values())
    values["total.traced_wall_s"] = traced_wall_s
    values["total.unattributed_s"] = traced_wall_s - attributed
    values["total.trace_overhead"] = _ratio(tracer.spans * span_cost_s, traced_wall_s)
    return values
