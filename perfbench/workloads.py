"""The four benchmark workloads, each a closed loop driven from one process.

Every workload does its set-up in :meth:`Workload.setup`, runs closed-loop
iterations in :meth:`Workload.run` and checks its outputs in
:meth:`Workload.check`, outside the timed and traced regions.  Each
iteration (and the service) gets fresh cache, build and journal
directories under the run's private work directory, so no state carries
over between iterations or runs.

Content is fixed: every workload replays the reference grid or campaign
of dataset seed :data:`CONTENT_SEED`, the seed the ROADMAP's baselines and
the CI gates use.  The run seed only sets the order in which that content
is submitted (and the service's request mix).  Per-function cost on this
program is heavy-tailed, so grids that vary with the seed spread by 0.14
to 0.72 of the median between runs (README.md), beyond any usable bound.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from spans import Tracer

_clock = time.perf_counter

ISA = "x86"
OPT_LEVEL = "O0"
CONTENT_SEED = 0


class Measurement:
    """What one measured run produced, before metrics are derived."""

    def __init__(self) -> None:
        self.operations = 0
        self.window_s = 0.0
        #: Operations per second of each iteration (service: each
        #: sub-window); the reported throughput is their median, so a burst
        #: of load from outside the run moves it less than a pooled rate.
        self.rates: List[float] = []
        self.traced_wall_s = 0.0  # summed over the threads that drove work
        self.latencies_ms: List[float] = []
        self.layer_extra: Dict[str, float] = {}


class Workload:
    name = ""
    operation = ""  # what one unit of throughput is
    #: Span names that must record calls in a traced run of this workload.
    required_layers: Tuple[str, ...] = ()
    #: Whether the run's timings scale with the host's CPU speed and are
    #: reported normalized by it (run.py).
    cpu_bound = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        #: Operations that failed or produced a wrong output (``fail_rate``).
        self.failed = 0
        #: The subset of ``failed`` whose output was wrong: the run is
        #: incorrect when this is not 0.
        self.wrong = 0
        self.notes: Dict[str, Any] = {}

    def _fresh_dir(self, label: str) -> Path:
        path = self.workdir / label
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        """Inputs, daemons and warm-up; timed as ``setup_s``."""

    def run(self, seconds: float, tracer: Tracer) -> Measurement:
        raise NotImplementedError

    def check(self) -> None:
        """Correctness of everything :meth:`run` produced (untimed)."""

    def close(self) -> None:
        """Stop whatever :meth:`setup` started."""

    def _loop(self, seconds: float, tracer: Tracer, body) -> Measurement:
        """Run ``body(index)`` back to back for about ``seconds``.

        ``body`` returns the operations it completed; each iteration is one
        latency sample and its wall time counts toward the window.  An
        iteration is not started when the previous one's duration says it
        would end past the deadline (the first always runs).  The
        iteration's private directory is removed outside the timed region.
        """
        measurement = Measurement()
        deadline = _clock() + seconds
        index = 0
        last = 0.0
        while index == 0 or _clock() + last <= deadline:
            started = _clock()
            tracer.set_active(True)
            try:
                operations = body(index)
            finally:
                tracer.set_active(False)
            last = _clock() - started
            shutil.rmtree(self.workdir / f"iteration-{index}", ignore_errors=True)
            measurement.operations += operations
            measurement.window_s += last
            measurement.rates.append(operations / last)
            measurement.latencies_ms.append(last * 1000.0)
            index += 1
        measurement.traced_wall_s = measurement.window_s
        return measurement


def _grid(functions: int, candidates: int, cache, rotate: int) -> Tuple[list, list, int]:
    """The score CLI's dataset + candidate build for the reference grid.

    Returns (entries, candidate sets, functions dropped), with the entries
    rotated left by ``rotate``.  The mutator cannot certify a candidate
    set for roughly one generated function in 300 (``MutationError``),
    which aborts the score CLI's whole grid; here the function is dropped
    and the caller charges it as a failed operation.
    """
    from repro.eval.dataset import generated_entries
    from repro.eval.mutate import MutationError, Mutator

    entries = generated_entries(
        CONTENT_SEED, functions, isas=(ISA,), opt_levels=(OPT_LEVEL,), cache=cache
    )
    rotate %= len(entries)
    entries = entries[rotate:] + entries[:rotate]
    kept, candidate_sets = [], []
    for entry in entries:
        try:
            candidate_sets.append(
                Mutator(entry.seed).candidates(entry, candidates, cache=cache)
            )
        except MutationError:
            continue
        kept.append(entry)
    return kept, candidate_sets, len(entries) - len(kept)


def _warm_up(workdir: Path) -> None:
    """Pay the per-process lazy start-up (fork-server harness build, the
    lint import) on a tiny grid, so the first timed iteration does not."""
    from repro.eval.cache import EvalCache
    from repro.eval.score import score_dataset

    cache = EvalCache(workdir / "warm-up")
    entries, candidate_sets, _ = _grid(1, 3, cache, 0)
    score_dataset(entries, candidate_sets, backend=ISA, cache=cache)
    shutil.rmtree(workdir / "warm-up", ignore_errors=True)


class ScoreCold(Workload):
    """``generated_entries`` -> ``Mutator.candidates`` -> ``score_dataset``
    on the reference grid, against an empty cache, once per iteration."""

    name = "score-cold"
    operation = "candidates"
    functions = 8
    candidates = 8
    required_layers = (
        "lang.lexer",
        "lang.parser",
        "lang.typecheck",
        "lang.interpreter",
        "compiler.lower",
        "compiler.emit",
        "analysis.lint",
        "testing.native.build_wait",
        "testing.native.exec_wait",
        "eval.dataset",
        "eval.mutate",
        "eval.gate",
        "eval.score",
        "eval.cache.get",
        "eval.cache.put",
    )

    def setup(self) -> None:
        _warm_up(self.workdir)

    def run(self, seconds: float, tracer: Tracer) -> Measurement:
        from repro.eval.cache import EvalCache
        from repro.eval.score import score_dataset

        phases = {"build": 0.0, "score": 0.0}
        scored = [0]

        def body(index: int) -> int:
            cache = EvalCache(self._fresh_dir(f"iteration-{index}"))
            started = _clock()
            tracer.phase = "build"
            entries, candidate_sets, dropped = _grid(
                self.functions, self.candidates, cache, self.seed + index
            )
            built = _clock()
            tracer.phase = "score"
            report = score_dataset(entries, candidate_sets, backend=ISA, cache=cache)
            tracer.phase = ""
            phases["build"] += built - started
            phases["score"] += _clock() - built
            aggregate = report["aggregate"]
            mismatches = len(aggregate["mismatches"])
            self.attempted += aggregate["candidates"] + dropped * self.candidates
            self.failed += mismatches + dropped * self.candidates
            self.wrong += mismatches
            scored[0] += aggregate["candidates"]
            return aggregate["candidates"]

        measurement = self._loop(seconds, tracer, body)
        measurement.layer_extra = {
            "phase.build.wall_s": phases["build"],
            "phase.score.wall_s": phases["score"],
            "phase.score.candidates_per_s": scored[0] / phases["score"],
        }
        return measurement


class Repair(Workload):
    """``repair_campaign`` over the reference grid, cold, once per iteration."""

    name = "repair"
    operation = "attempts"
    functions = 3
    candidates = 6
    budget = 24
    # Most of the wall time is 1 s pair timeouts, which do not scale with
    # CPU speed: normalizing over-corrected (IQR 0.21 against 0.07 raw).
    cpu_bound = False
    required_layers = (
        "lang.lexer",
        "lang.parser",
        "lang.typecheck",
        "testing.native.build_wait",
        "testing.native.exec_wait",
        "eval.repair",
        "eval.repair.neighbors",
        "eval.score",
        "eval.gate",
    )

    def setup(self) -> None:
        _warm_up(self.workdir)
        self.repaired: List[Tuple[Any, str]] = []
        self.targets = 0
        self.dropped = 0

    def run(self, seconds: float, tracer: Tracer) -> Measurement:
        from repro.eval.cache import EvalCache
        from repro.eval.repair import RepairConfig, repair_campaign

        config = RepairConfig(backend=ISA, opt_level=OPT_LEVEL, budget=self.budget)

        def body(index: int) -> int:
            cache = EvalCache(self._fresh_dir(f"iteration-{index}"))
            entries, candidate_sets, dropped = _grid(
                self.functions, self.candidates, cache, self.seed + index
            )
            self.dropped += dropped
            campaign = repair_campaign(entries, candidate_sets, config=config, cache=cache)
            by_uid = {entry.uid: entry for entry in entries}
            for target in campaign["targets"]:
                self.targets += 1
                if target["status"] == "repaired":
                    self.repaired.append(
                        (by_uid[target["entry_uid"]], target["repaired_source"])
                    )
            return campaign["aggregate"]["attempts"]

        measurement = self._loop(seconds, tracer, body)
        repaired = len(self.repaired)
        rate = repaired / self.targets if self.targets else 0.0
        measurement.layer_extra = {
            "eval.repair.attempts_per_repaired": measurement.operations / repaired
            if repaired
            else 0.0,
            "eval.repair.repair_rate": rate,
        }
        self.notes.update(repair_rate=rate, targets=self.targets)
        return measurement

    def check(self) -> None:
        """Every repaired source must re-score ``io_equivalent`` on the
        default scorer (fresh, cache-free)."""
        from repro.eval.mutate import Candidate
        from repro.eval.score import score_entry_sets

        self.attempted = self.targets + self.dropped
        self.failed = self.dropped
        if not self.repaired:
            return
        scores = score_entry_sets(
            [entry for entry, _ in self.repaired],
            [[Candidate(source, "", "repaired", "io_equivalent")] for _, source in self.repaired],
            None,
            backend=ISA,
            opt_level=OPT_LEVEL,
        )
        self.wrong = sum(1 for [score] in scores if score.verdict != "io_equivalent")
        self.failed += self.wrong


class Fuzz(Workload):
    """``run_campaign`` with legs interp, ir-O3, x86-O0 and x86-O3 over the
    reference campaign's first cases, once per iteration."""

    name = "fuzz"
    operation = "cases"
    cases = 64
    required_layers = (
        "lang.interpreter",
        "compiler.lower",
        "compiler.emit",
        "analysis.verify",
        "testing.generator",
        "testing.irexec",
        "testing.oracle",
        "testing.native.build_wait",
        "testing.native.exec_wait",
    )

    def setup(self) -> None:
        from repro.testing.fuzz import FuzzConfig, run_campaign

        self.config = FuzzConfig(backends=(ISA,))
        run_campaign(self.config, CONTENT_SEED, 4)  # lazy start-up, as in _warm_up

    def run(self, seconds: float, tracer: Tracer) -> Measurement:
        from repro.testing.fuzz import run_campaign

        def body(index: int) -> int:
            results = run_campaign(self.config, CONTENT_SEED, self.cases)
            self.attempted += len(results)
            self.failed += sum(1 for result in results if result.failed)
            self.wrong += sum(1 for result in results if result.status == "divergence")
            return len(results)

        return self._loop(seconds, tracer, body)


def _rename_params(text: str, params: List[str], suffix: str) -> str:
    """Consistently rename the reference's parameters in a candidate.

    Alpha-renaming keeps every verdict (the certified label still holds)
    while making the text, and so every cache key, new: this is how two
    samples of one decompilation differ.
    """
    if not params:
        return text + f"\n/* {suffix} */\n"
    pattern = re.compile(
        r"(?<![A-Za-z0-9_])(" + "|".join(map(re.escape, params)) + r")(?![A-Za-z0-9_])"
    )
    return pattern.sub(lambda match: f"{match.group(1)}_{suffix}", text)


class ServiceMixed(Workload):
    """In-process ``ScoringService`` over a cache warmed with the reference
    grid; one keep-alive client connection in a closed loop sends three
    repeat requests (cache reads) for each novel one (gate, execution and
    cache writes).

    One connection, not two: with two, a repeat request waits on the
    interpreter lock held by the worker scoring the other client's novel
    request, and the median latency spread by 45% between runs (README.md).

    A run sends at most :attr:`max_requests` requests.  The service keeps every
    finished job in memory (about 30 KB each), so an unbounded closed loop
    would make peak RSS grow with throughput.
    """

    name = "service-mixed"
    operation = "requests"
    functions = 8
    candidates = 8
    workers = 2
    novel_every = 4  # every fourth request is novel
    max_requests = 800
    sub_windows = 5
    required_layers = (
        "lang.lexer",
        "lang.parser",
        "lang.typecheck",
        "compiler.lower",
        "compiler.emit",
        "testing.native.build_wait",
        "testing.native.exec_wait",
        "eval.gate",
        "eval.score",
        "eval.cache.get",
        "eval.cache.put",
        "eval.service",
    )

    def setup(self) -> None:
        from repro.eval.cache import EvalCache
        from repro.eval.service import ScoringService
        from repro.lang.parser import parse_program

        cache = EvalCache(self._fresh_dir("cache"))
        entries, self.candidate_sets, dropped = _grid(
            self.functions, self.candidates, cache, 0
        )
        self.notes["pool_functions_dropped"] = dropped
        self.params = [
            [param.name for param in parse_program(entry.source).function(entry.name).params]
            for entry in entries
        ]
        # The request shape of the service's own score-grid client.
        self.requests = [
            {
                "entry": entry.to_json(),
                "candidates": [
                    {key: getattr(candidate, key) for key in ("text", "label", "kind", "expected")}
                    for candidate in candidates
                ],
                "backend": ISA,
                "opt_level": OPT_LEVEL,
                "lint": True,
            }
            for entry, candidates in zip(entries, self.candidate_sets)
        ]
        self.service = ScoringService(
            host="127.0.0.1",
            port=0,
            workers=self.workers,
            backend=ISA,
            cache=cache,
            journal=self.workdir / "journal.jsonl",
            workdir=self._fresh_dir("service"),
        )
        self.port = self.service.start_in_thread()
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            for position, request in enumerate(self.requests):
                status, response = self._post(connection, request)
                if status != 200:
                    raise RuntimeError(f"warm-up request {position} failed: {response}")
        finally:
            connection.close()

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.stop()
            self.service = None

    @staticmethod
    def _post(connection, request: Dict[str, Any]) -> Tuple[int, Any]:
        body = json.dumps(request).encode("utf-8")
        connection.request("POST", "/score", body, {"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())

    def _mismatches(self, position: int, response: Dict[str, Any]) -> int:
        expected = [candidate.expected for candidate in self.candidate_sets[position]]
        verdicts = [item["verdict"] for item in response.get("candidates", [])]
        if len(verdicts) != len(expected):
            return len(expected)
        return sum(1 for want, got in zip(expected, verdicts) if want and want != got)

    def _request(self, serial: int, rng: random.Random) -> Tuple[int, Dict[str, Any]]:
        """The ``serial``-th request: (pool position, body).

        Repeats pick a pool function at random; novel requests walk the
        pool in order from a seed-chosen offset, so every run pays for the
        same mix of novel functions.
        """
        pool = len(self.requests)
        novel = serial % self.novel_every == self.novel_every - 1
        if novel:
            position = (self.seed + serial // self.novel_every) % pool
        else:
            position = rng.randrange(pool)
        request = dict(self.requests[position])
        # A unique uid per request (uids are not part of any cache key)
        # lets the traced run attach the worker's spans to this request.
        uid = f"{request['entry']['uid']}@{self.seed}.{serial}"
        request["entry"] = dict(request["entry"], uid=uid)
        if novel:
            suffix = f"s{self.seed}n{serial}"
            request["candidates"] = [
                dict(spec, text=_rename_params(spec["text"], self.params[position], suffix))
                for spec in request["candidates"]
            ]
        return position, request

    def run(self, seconds: float, tracer: Tracer) -> Measurement:
        measurement = Measurement()
        rng = random.Random(self.seed)
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        finished: List[float] = []
        started = _clock()
        deadline = started + seconds
        serial = 0
        tracer.set_active(True)
        try:
            while serial < self.max_requests and _clock() < deadline:
                position, request = self._request(serial, rng)
                sent = _clock()
                with tracer.span("eval.service", link=request["entry"]["uid"]):
                    try:
                        status, response = self._post(connection, request)
                    except (OSError, http.client.HTTPException, ValueError):
                        status, response = 0, {}
                        connection.close()
                done = _clock()
                measurement.latencies_ms.append((done - sent) * 1000.0)
                finished.append(done)
                if status != 200:
                    self.failed += 1
                elif self._mismatches(position, response):
                    self.failed += 1
                    self.wrong += 1
                serial += 1
        finally:
            tracer.set_active(False)
            connection.close()
        measurement.window_s = _clock() - started
        measurement.traced_wall_s = measurement.window_s
        measurement.operations = self.attempted = serial
        width = measurement.window_s / self.sub_windows
        counts = [0] * self.sub_windows
        for done in finished:
            counts[min(int((done - started) / width), self.sub_windows - 1)] += 1
        measurement.rates = [count / width for count in counts]
        service = tracer.layers.get("eval.service", {})
        requests = service.get("calls", 0)
        measurement.layer_extra = {
            "eval.service.requests": requests,
            "eval.service.score_s": tracer.layers.get("eval.score", {}).get("total_s", 0.0),
            "eval.service.overhead_ms": 1000.0 * service.get("self_s", 0.0) / requests
            if requests
            else 0.0,
        }
        return measurement


WORKLOADS = {cls.name: cls for cls in (ScoreCold, Repair, Fuzz, ServiceMixed)}
