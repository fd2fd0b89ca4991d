"""Candidate scorer: the paper's evaluation loop, end to end.

``python -m repro.eval.score`` takes N candidate C sources per function and
scores each against the reference's IO vectors, exactly the way SLaDe
judges decompilation hypotheses: **IO equivalence against the compiled
ground truth, not text similarity**.  Each candidate walks the gauntlet

    parse -> typecheck -> compile -> execute on every IO vector

and receives one of six verdicts: ``parse_error``, ``type_error``,
``compile_error``, ``trap``, ``io_mismatch`` or ``io_equivalent``.  A
normalized token-level edit similarity to the reference source rides along
as the secondary metric (the "how close did it look" number the paper
contrasts IO accuracy with).

Before anything compiles, the gate also rejects two kinds of candidate
deterministically: one whose parameter list differs from the reference's
in count or class (integer / double / pointer) is a ``type_error``, and
one that calls a function its own translation unit does not define is a
``compile_error`` (``external call 'name'``) — candidate code never links
against, or runs, anything outside itself.

Execution is batched *across functions*: gate survivors from many
functions are grouped into shared
:class:`repro.testing.native.NativeBatch` fork-server builds (one
toolchain invocation per ~32 candidates instead of per candidate or per
function), the same executor the fuzzing pipeline uses.  A group that
fails to build is re-run as one-case batches, so the failure is charged
to the candidate that caused it.  ``--jobs N`` shards functions
round-robin over worker processes; verdicts depend only on each
function's seed, so reports are byte-identical at any job count.

Without a native toolchain (or with ``--backend none``) survivors execute
on the interpreter instead; the front-end gauntlet, including real
assembly emission, still runs.

Typical invocations::

    python -m repro.eval.score --seed 0 --functions 50 --candidates 8
    python -m repro.eval.score --seed 0 --functions 50 --candidates 8 \\
        --opt-level O3 --output eval_report.json
    python -m repro.eval.score --seed 3 --functions 10 --candidates 4 \\
        --backend none
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.compiler.driver import CompileError
from repro.eval.cache import (
    EvalCache,
    add_cache_arguments,
    cache_from_args,
    describe_stats,
    json_digest,
)
from repro.eval.dataset import (
    DatasetEntry,
    Observation,
    classify_with_diffs,
    front_end_gate,
    generated_entries,
    interpreter_observation,
)
from repro.eval.mutate import Candidate, Mutator, walk_nodes
from repro.lang import ast_nodes as ast
from repro.lang import ctypes as ct
from repro.lang.lexer import LexError, TokenKind, tokenize
from repro.testing import native
from repro.testing.frontend import CaseContext


# ---------------------------------------------------------------------------
# Edit similarity (the secondary, text-based metric)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=512)
def _token_texts(source: str) -> Optional[Tuple[str, ...]]:
    # Cached because every candidate is compared against the same reference
    # source; callers only read the returned tuple.
    try:
        return tuple(t.text for t in tokenize(source) if t.kind is not TokenKind.EOF)
    except LexError:
        return None


def _levenshtein(a: Sequence, b: Sequence) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    # Mutation-derived candidates differ from their reference in a small
    # region, so stripping the common prefix/suffix first removes most of
    # the O(len(a) * len(b)) table (the distance is unchanged: edits only
    # happen where the sequences differ).
    start = 0
    limit = min(len(a), len(b))
    while start < limit and a[start] == b[start]:
        start += 1
    end_a, end_b = len(a), len(b)
    while end_a > start and end_b > start and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    a = a[start:end_a]
    b = b[start:end_b]
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for row, item_a in enumerate(a):
        diagonal = previous[0]
        value = row + 1
        current = [value]
        append = current.append
        index = 0
        for item_b in b:
            index += 1
            above = previous[index]
            best = diagonal if item_a == item_b else diagonal + 1
            if above + 1 < best:
                best = above + 1
            if value + 1 < best:
                best = value + 1
            value = best
            append(value)
            diagonal = above
        previous = current
    return previous[-1]


def edit_similarity(candidate: str, reference: str) -> float:
    """Normalized edit similarity in [0, 1]: 1 - dist / max_len.

    Computed over lexer tokens so formatting differences don't count;
    candidates the lexer rejects fall back to whitespace tokenization, so
    both paths measure edits in *tokens* (the fallback previously compared
    whitespace-joined strings character by character, which made unlexable
    candidates score on a different — much finer — scale).
    """
    a = _token_texts(candidate)
    b = _token_texts(reference)
    if a is None or b is None:
        a = tuple(candidate.split())
        b = tuple(reference.split())
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return round(1.0 - _levenshtein(a, b) / longest, 4)


# ---------------------------------------------------------------------------
# Scoring one function's candidate set
# ---------------------------------------------------------------------------


@dataclass
class CandidateScore:
    """One candidate's verdict plus the secondary similarity metric."""

    index: int
    verdict: str
    similarity: float
    detail: str = ""
    kind: str = ""
    label: str = ""
    expected: str = ""
    #: The UB linter proved every call of this candidate traps (a definite
    #: division by zero on the must-execute spine).
    lint_flagged: bool = False
    #: The verdict above was assigned by the lint pre-filter, without
    #: compiling or executing the candidate.
    lint_prefilter: bool = False
    #: Fraction of IO vectors on which the candidate's observation agrees
    #: with the reference's (the repair search's primary score).  ``None``
    #: when the candidate never executed (front-end failure, build failure
    #: or lint pre-filter skip).
    agreement: Optional[float] = None

    @property
    def matches_expected(self) -> bool:
        return not self.expected or self.verdict == self.expected

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "index": self.index,
            "verdict": self.verdict,
            "similarity": self.similarity,
            "detail": self.detail,
        }
        if self.agreement is not None:
            out["agreement"] = self.agreement
        if self.lint_flagged:
            out["lint_flagged"] = True
        if self.lint_prefilter:
            out["lint_prefilter"] = True
        if self.expected:
            out.update(
                {
                    "kind": self.kind,
                    "label": self.label,
                    "expected": self.expected,
                    "ok": self.matches_expected,
                }
            )
        return out


def _signature(context: CaseContext) -> Tuple[str, ...]:
    """Each parameter's argument class, the way the native harness passes it."""
    return tuple(
        "double"
        if isinstance(t, ct.FloatType)
        else "pointer"
        if isinstance(t, ct.PointerType)
        else "integer"
        for t in context.param_types()
    )


def _external_call(program: ast.Program) -> Optional[str]:
    """``compile_error`` detail for the first call that leaves the
    translation unit, or None.

    Every callee must be the name of a function the candidate defines
    itself; a call through a variable that shadows such a name, or through
    any other expression, counts as external too, and so does naming an
    undefined function without calling it (taking its address).
    """
    nodes = list(walk_nodes(program))
    defined = {func.name for func in program.functions()}
    variables = {
        node.name for node in nodes if isinstance(node, (ast.Declaration, ast.Param))
    }
    for node in nodes:
        if isinstance(node, ast.Call):
            callee = node.func
            if not isinstance(callee, ast.Identifier):
                return "external call through a function pointer"
            if callee.name not in defined or callee.name in variables:
                return f"external call {callee.name!r}"
        elif (
            isinstance(node, ast.Identifier)
            and isinstance(node.ctype, ct.FunctionType)
            and node.name not in defined
        ):
            return f"external call {node.name!r}"
    return None


def _front_end_gate(
    candidate: Candidate,
    name: str,
    backend: str,
    opt_level: str,
    reference_signature: Tuple[str, ...],
    cache: Optional[EvalCache] = None,
) -> Union[Tuple[str, str], CaseContext]:
    """Run parse -> typecheck -> compile; (verdict, detail) on failure.

    A certified candidate brings the :class:`CaseContext` the mutator got
    from the shared :func:`repro.eval.dataset.front_end_gate`; any other
    candidate goes through that gate here — by construction the two cannot
    disagree on a candidate's front-end fate.  Two checks follow before anything
    compiles: the parameter list must match ``reference_signature`` (the
    reference's argument classes, see :func:`_signature`) or the verdict is
    ``type_error``, and the candidate may call only functions it defines
    (:func:`_external_call`) or the verdict is ``compile_error``.

    With ``cache`` the emitted assembly (or the compile error) is stored
    keyed by the candidate's raw text, so a warm run seeds the context
    instead of lowering and emitting again.
    """
    context = candidate.context
    if context is None:
        context = front_end_gate(candidate.text, name)
        if isinstance(context, tuple):
            return context
    signature = _signature(context)
    if signature != reference_signature:
        return "type_error", (
            "signature does not match the reference: candidate takes "
            f"({', '.join(signature)}), reference takes "
            f"({', '.join(reference_signature)})"
        )
    external = _external_call(context.program)
    if external is not None:
        return "compile_error", external
    isa = backend if backend != "none" else "x86"
    asm_key = None
    if cache is not None:
        asm_key = cache.key("asm", candidate.text, name, isa, opt_level)
        cached = cache.get("asm", asm_key)
        if cached is not None:
            if cached.get("error"):
                return "compile_error", cached["detail"]
            context.seed_assembly(isa, opt_level, cached["text"])
            return context
    try:
        # The gate always emits real assembly — even when execution later
        # happens on the interpreter — so verdicts do not depend on the
        # execution substrate.
        assembly = context.assembly(isa, opt_level)
    except CompileError as exc:
        if cache is not None and asm_key is not None:
            cache.put("asm", asm_key, {"error": True, "detail": str(exc)})
        return "compile_error", str(exc)
    if cache is not None and asm_key is not None:
        cache.put("asm", asm_key, {"error": False, "text": assembly})
    return context


def _native_outcome_to_observation(outcome: Tuple[str, Any]) -> Observation:
    status, payload = outcome
    if status == "ok":
        return Observation(
            "ok", payload.return_value, list(payload.arg_values), dict(payload.globals)
        )
    return Observation(status, detail=str(payload))


def _lint_trap_finding(context: CaseContext, name: str):
    """The first linter finding proving every call traps, or None.

    Lint failures never block scoring — a candidate the analysis chokes on
    simply falls through to the execution path.
    """
    from repro.analysis.lint import lint_program

    try:
        findings = lint_program(context.program, name=name)
    except Exception:
        return None
    return next((f for f in findings if f.predicts_trap), None)


def _stage_candidates(
    entry: DatasetEntry,
    candidates: Sequence[Candidate],
    backend: str,
    opt_level: str,
    lint: bool,
    cache: Optional[EvalCache] = None,
) -> Tuple[List[CandidateScore], List[Tuple[int, CaseContext]]]:
    """Front-end gate + lint pre-filter for one candidate set.

    Returns the (partially filled) score list plus the execution survivors;
    the staging is independent of how survivors later execute.
    """
    fast_trap_sound = (
        backend in ("x86", "none")
        and opt_level == "O0"
        and len(entry.inputs) > 0
        and all(obs.status == "ok" for obs in entry.reference)
    )
    reference_signature = _signature(entry.reference_context())
    scores: List[CandidateScore] = []
    survivors: List[Tuple[int, CaseContext]] = []
    for index, candidate in enumerate(candidates):
        gate = _front_end_gate(
            candidate, entry.name, backend, opt_level, reference_signature, cache
        )
        similarity = edit_similarity(candidate.text, entry.source)
        if isinstance(gate, tuple):
            verdict, detail = gate
            scores.append(
                CandidateScore(
                    index, verdict, similarity, detail,
                    candidate.kind, candidate.label, candidate.expected,
                )
            )
            continue
        score = CandidateScore(
            index, "", similarity, "",
            candidate.kind, candidate.label, candidate.expected,
        )
        if lint:
            finding = _lint_trap_finding(gate, entry.name)
            if finding is not None:
                score.lint_flagged = True
                if fast_trap_sound:
                    score.verdict = "trap"
                    score.detail = f"lint: {finding.message} [every call traps]"
                    score.lint_prefilter = True
                    scores.append(score)
                    continue
        scores.append(score)
        survivors.append((index, gate))
    return scores, survivors


def _finalize_scores(
    entry: DatasetEntry,
    scores: List[CandidateScore],
    survivors: List[Tuple[int, CaseContext]],
    observations: List[Union[List[Observation], Tuple[str, str]]],
) -> None:
    for (index, _), obs in zip(survivors, observations):
        if isinstance(obs, tuple):  # build failure: (verdict, detail)
            # Merge into the placeholder so kind/label/expected survive
            # and a certified candidate the toolchain rejects still
            # counts against ground-truth agreement.
            scores[index].verdict, scores[index].detail = obs
            continue
        verdict, detail, diffs = classify_with_diffs(entry.reference, obs)
        scores[index].verdict = verdict
        scores[index].detail = detail
        scores[index].agreement = (
            round(sum(1 for diff in diffs if diff is None) / len(diffs), 6)
            if diffs
            else 1.0
        )


def score_candidates(
    entry: DatasetEntry,
    candidates: Sequence[Candidate],
    backend: str = "x86",
    opt_level: str = "O0",
    workdir: Optional[Path] = None,
    lint: bool = True,
    run_timeout: float = 10.0,
    cache: Optional[EvalCache] = None,
) -> List[CandidateScore]:
    """Score one function's candidate set against its IO vectors.

    ``backend`` is the ISA candidates are compiled for; ``"none"`` runs
    survivors on the interpreter (the compile gate still emits x86
    assembly).  The surviving candidates execute as one fork-server
    :class:`NativeBatch`, exactly as :func:`_score_entries` runs any
    number of functions.

    With ``lint`` (default) every gate survivor runs through the UB linter
    of :mod:`repro.analysis.lint` first.  A candidate the linter *proves*
    traps on every call (definite division by zero on the must-execute
    spine) is annotated ``lint_flagged`` — and, when the fast path is
    sound, receives its ``trap`` verdict without compiling or executing:
    that requires an all-ok reference (so :func:`classify_observations`
    would map any candidate trap/limit to ``trap``), at least one input,
    and a substrate where the dialect's trap semantics hold (``x86``/
    ``none`` at ``O0`` — AArch64 returns 0 on division by zero and -O3
    may fold the site away, exactly the cases trap labels are disabled
    for).
    """
    return _score_entries(
        [entry],
        [candidates],
        backend=backend,
        opt_level=opt_level,
        lint=lint,
        run_timeout=run_timeout,
        cache=cache,
        workdir=workdir,
    )[0]


def _execute_one_case(
    case: native.BatchCase,
    backend: str,
    opt_level: str,
    workdir: Path,
    run_timeout: float,
    cache: Optional[EvalCache],
) -> Union[List[Observation], Tuple[str, str]]:
    """One survivor alone in a one-case batch: its observations, or the
    ``compile_error`` its build failed with."""
    try:
        batch = native.NativeBatch(
            [case],
            opt_level,
            workdir,
            isa=backend,
            run_timeout=run_timeout,
            tag="single",
            cache=cache,
        )
        batch.ensure_built()
    except native.UnsupportedSignature as exc:
        return "compile_error", str(exc)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
        detail = native.toolchain_failure_detail(exc, workdir, 500)
        return "compile_error", f"toolchain failed on the assembly: {detail}"
    with batch:
        return [
            _native_outcome_to_observation(batch.outcome(0, input_index))
            for input_index in range(len(case.inputs))
        ]


# ---------------------------------------------------------------------------
# Whole-dataset scoring and the JSON report
# ---------------------------------------------------------------------------


def _score_entries(
    entries: Sequence[DatasetEntry],
    candidate_sets: Sequence[Sequence[Candidate]],
    backend: str = "x86",
    opt_level: str = "O0",
    lint: bool = True,
    run_timeout: float = 10.0,
    cache: Optional[EvalCache] = None,
    workdir: Optional[Path] = None,
) -> List[List[CandidateScore]]:
    """One CandidateScore list per entry (the unit one ``--jobs`` worker runs).

    Gate survivors from *many* functions share one :class:`NativeBatch`
    (up to :data:`repro.testing.native.DEFAULT_GROUP_CASES` per group) so
    the toolchain runs once per group instead of once per function, and the
    next group's build is launched before the current group is drained.  A group that fails to
    build or run is re-run one survivor per batch, which charges the
    failure to the candidate that caused it.

    ``workdir``, when given, is reused for build products instead of a
    per-call temporary directory — the scoring service's workers keep one
    per worker so repeated requests don't churn tempdirs.  Verdicts never
    depend on it (artifacts are keyed by tag inside it, and the caller owns
    cleanup).
    """
    staged = [
        _stage_candidates(entry, candidates, backend, opt_level, lint, cache)
        for entry, candidates in zip(entries, candidate_sets)
    ]
    if backend == "none":
        for entry, (scores, survivors) in zip(entries, staged):
            observations = [
                [interpreter_observation(context, tuple(args)) for args in entry.inputs]
                for _, context in survivors
            ]
            _finalize_scores(entry, scores, survivors, observations)
        return [scores for scores, _ in staged]

    units = [
        [
            native.BatchCase(
                source=context.source,
                name=entry.name,
                inputs=[tuple(args) for args in entry.inputs],
                context=context,
            )
            for _, context in survivors
        ]
        for entry, (_, survivors) in zip(entries, staged)
    ]

    if workdir is not None:
        tmp_ctx: Any = contextlib.nullcontext(str(workdir))
    else:
        tmp_ctx = tempfile.TemporaryDirectory(prefix="minic-eval-")
    with tmp_ctx as tmp:
        group_workdir = Path(tmp)
        with native.GroupedBatchRunner(
            opt_level,
            group_workdir,
            isa=backend,
            group_cases=native.DEFAULT_GROUP_CASES,
            run_timeout=run_timeout,
            cache=cache,
        ) as runner:
            for position, raw in runner.run(units):
                entry = entries[position]
                scores, survivors = staged[position]
                if raw is None:
                    observations = [
                        _execute_one_case(
                            case, backend, opt_level, group_workdir, run_timeout, cache
                        )
                        for case in units[position]
                    ]
                else:
                    observations = [
                        [
                            _native_outcome_to_observation(outcome)
                            for outcome in per_input
                        ]
                        for per_input in raw
                    ]
                _finalize_scores(entry, scores, survivors, observations)

    return [scores for scores, _ in staged]


def _verdict_key(
    cache: EvalCache,
    entry: DatasetEntry,
    text: str,
    backend: str,
    opt_level: str,
    lint: bool,
    run_timeout: float,
) -> str:
    """Memo key for one (candidate, reference, substrate) triple.

    Every input the verdict depends on is part of the key: the candidate
    and reference *texts* (raw, because the similarity metric's unlexable
    fallback sees formatting), the IO vectors, the reference observations,
    the substrate and the run timeout (score and repair use different
    budgets, so their ``limit`` verdicts can legitimately differ).
    """
    return cache.key(
        "verdict",
        text,
        entry.source,
        entry.name,
        json.dumps([list(args) for args in entry.inputs]),
        json_digest([obs.to_json() for obs in entry.reference]),
        backend,
        opt_level,
        str(lint),
        str(run_timeout),
    )


def score_to_payload(score: CandidateScore) -> Dict[str, Any]:
    """The candidate-independent slice of a score (caller metadata —
    index/kind/label/expected — is reapplied per candidate on a hit).

    This is both the verdict-memo envelope and the scoring service's wire
    format for one candidate: every field JSON round-trips exactly, so
    :func:`score_from_payload` on the other side rebuilds a
    :class:`CandidateScore` whose ``to_json()`` is byte-identical to the
    original's."""
    return {
        "verdict": score.verdict,
        "similarity": score.similarity,
        "detail": score.detail,
        "agreement": score.agreement,
        "lint_flagged": score.lint_flagged,
        "lint_prefilter": score.lint_prefilter,
    }


def score_from_payload(
    payload: Dict[str, Any], index: int, candidate: Candidate
) -> CandidateScore:
    """Rebuild a :class:`CandidateScore` from :func:`score_to_payload`
    output plus the caller-side candidate metadata."""
    return CandidateScore(
        index,
        payload["verdict"],
        payload["similarity"],
        payload["detail"],
        candidate.kind,
        candidate.label,
        candidate.expected,
        lint_flagged=bool(payload.get("lint_flagged")),
        lint_prefilter=bool(payload.get("lint_prefilter")),
        agreement=payload.get("agreement"),
    )


def score_entry_sets(
    entries: Sequence[DatasetEntry],
    candidate_sets: Sequence[Sequence[Candidate]],
    cache: Optional[EvalCache] = None,
    **kwargs: Any,
) -> List[List[CandidateScore]]:
    """Score many (entry, candidate set) pairs: the reusable scoring seam.

    This is :func:`_score_entries` behind the verdict memo + in-run dedupe
    — the exact unit one ``--jobs`` worker runs, and what the scoring
    service executes per request.  Candidates whose memo key hits (a
    previous run, round or campaign judged the same text against the same
    reference) never reach the gate or the harness; candidates that are
    byte-identical *within* one set execute once and fan the verdict out.
    The reduced unique-miss sets go through the untouched
    :func:`_score_entries` machinery, so a warm report is byte-identical
    to a cold one by construction.

    ``kwargs`` are :func:`_score_entries`'s: ``backend``, ``opt_level``,
    ``lint``, ``run_timeout``, ``workdir``.
    """
    if cache is None:
        return _score_entries(entries, candidate_sets, **kwargs)
    backend = kwargs.get("backend", "x86")
    opt_level = kwargs.get("opt_level", "O0")
    lint = kwargs.get("lint", True)
    run_timeout = kwargs.get("run_timeout", 10.0)

    memo: Dict[str, Dict[str, Any]] = {}
    plans = []  # per entry: (keys per candidate, unique miss keys+candidates)
    for entry, candidates in zip(entries, candidate_sets):
        keys: List[str] = []
        unique_keys: List[str] = []
        unique_candidates: List[Candidate] = []
        for candidate in candidates:
            key = _verdict_key(
                cache, entry, candidate.text, backend, opt_level, lint, run_timeout
            )
            keys.append(key)
            if key in memo:
                continue
            payload = cache.get("verdict", key)
            if payload is not None:
                memo[key] = payload
                continue
            if key not in unique_keys:
                unique_keys.append(key)
                unique_candidates.append(candidate)
        plans.append((keys, unique_keys, unique_candidates))

    miss_positions = [p for p, plan in enumerate(plans) if plan[2]]
    if miss_positions:
        sub_scores = _score_entries(
            [entries[p] for p in miss_positions],
            [plans[p][2] for p in miss_positions],
            cache=cache,
            **kwargs,
        )
        for position, scores in zip(miss_positions, sub_scores):
            for key, score in zip(plans[position][1], scores):
                payload = score_to_payload(score)
                cache.put("verdict", key, payload)
                memo[key] = payload

    return [
        [
            score_from_payload(memo[key], index, candidate)
            for index, (key, candidate) in enumerate(zip(keys, candidates))
        ]
        for candidates, (keys, _, _) in zip(candidate_sets, plans)
    ]


def _entries_worker(payload):
    entries, candidate_sets, cache, kwargs = payload
    if cache is not None:
        # The pickled copy carries the parent's counters; zero them so the
        # summary shipped back is exactly this worker's delta.
        cache.stats = {}
        cache.evictions = 0
    scores = score_entry_sets(entries, candidate_sets, cache, **kwargs)
    return scores, (cache.stats_summary() if cache is not None else None)


def score_dataset(
    entries: Sequence[DatasetEntry],
    candidate_sets: Sequence[Sequence[Candidate]],
    backend: str = "x86",
    opt_level: str = "O0",
    lint: bool = True,
    jobs: int = 1,
    cache: Optional[EvalCache] = None,
) -> Dict[str, Any]:
    """Score every entry's candidate set and build the aggregate report.

    With ``jobs > 1`` the entries are striped round-robin over a process
    pool; every verdict depends only on its entry, so the report is
    byte-identical at any job count (which is why the job count is not
    recorded in it).  The same holds for ``cache``: hits reproduce exactly
    what the miss path would compute, so the report never mentions the
    cache — hit/miss statistics accumulate on the cache object instead
    (worker processes ship their counters back for aggregation).
    """
    score_kwargs = {
        "backend": backend,
        "opt_level": opt_level,
        "lint": lint,
    }
    if jobs > 1 and len(entries) > 1:
        workers = min(jobs, len(entries))
        # Entry and candidate contexts pickle as their sources; each worker
        # re-runs the front end on the ones it receives.
        shards = [
            (list(entries[worker::workers]), list(candidate_sets[worker::workers]))
            for worker in range(workers)
        ]
        payloads = [(shard, sets, cache, score_kwargs) for shard, sets in shards]
        with multiprocessing.Pool(processes=workers) as pool:
            worker_results = pool.map(_entries_worker, payloads)
        all_scores: List[Optional[List[CandidateScore]]] = [None] * len(entries)
        for worker, (scores_list, stats) in enumerate(worker_results):
            if cache is not None and stats is not None:
                cache.absorb(stats)
            for offset, scores in enumerate(scores_list):
                all_scores[worker + offset * workers] = scores
    else:
        all_scores = list(
            score_entry_sets(entries, candidate_sets, cache, **score_kwargs)
        )

    return build_report(
        entries,
        candidate_sets,
        all_scores,
        backend=backend,
        opt_level=opt_level,
        lint=lint,
    )


def build_report(
    entries: Sequence[DatasetEntry],
    candidate_sets: Sequence[Sequence[Candidate]],
    all_scores: Sequence[Optional[List[CandidateScore]]],
    backend: str = "x86",
    opt_level: str = "O0",
    lint: bool = True,
) -> Dict[str, Any]:
    """The aggregate JSON report for already-computed per-entry scores.

    Split out of :func:`score_dataset` so any producer of
    :class:`CandidateScore` lists — the in-process scorer or the HTTP
    service's grid client reassembling scores from wire payloads — emits
    the *same* document: same key order, same rounding, byte-identical
    when serialized the same way.
    """
    functions: List[Dict[str, Any]] = []
    verdict_counts: Dict[str, int] = {}
    mismatches: List[Dict[str, Any]] = []
    max_candidates = max((len(c) for c in candidate_sets), default=0)
    topk_hits = [0] * max_candidates
    # Linter-as-classifier bookkeeping against the certified mutate labels:
    # the positive class is expected == "trap".
    lint_flagged = 0
    lint_prefilter_skips = 0
    lint_true_positives = 0
    lint_false_positives = 0
    labelled_traps = 0

    for entry, candidates, scores in zip(entries, candidate_sets, all_scores):
        assert scores is not None
        for score in scores:
            verdict_counts[score.verdict] = verdict_counts.get(score.verdict, 0) + 1
            if score.lint_flagged:
                lint_flagged += 1
            if score.lint_prefilter:
                lint_prefilter_skips += 1
            if score.expected:
                if score.expected == "trap":
                    labelled_traps += 1
                if score.lint_flagged:
                    if score.expected == "trap":
                        lint_true_positives += 1
                    else:
                        lint_false_positives += 1
            if score.expected and not score.matches_expected:
                mismatches.append(
                    {
                        "uid": entry.uid,
                        "candidate": score.index,
                        "kind": score.kind,
                        "expected": score.expected,
                        "verdict": score.verdict,
                        "detail": score.detail,
                    }
                )
        # Ranking by the text metric alone (what a model would have without
        # an oracle): is an IO-equivalent candidate among the top k most
        # reference-like?  k=1 doubles as the report's top-1 number.
        ranked = sorted(scores, key=lambda s: (-s.similarity, s.index))
        for k in range(max_candidates):
            if any(s.verdict == "io_equivalent" for s in ranked[: k + 1]):
                topk_hits[k] += 1
        functions.append(
            {
                "uid": entry.uid,
                "name": entry.name,
                "origin": entry.origin,
                "inputs": len(entry.inputs),
                "candidates": [score.to_json() for score in scores],
            }
        )

    total_functions = len(functions)
    total_candidates = sum(len(c) for c in candidate_sets)
    labelled = sum(
        1 for sets in candidate_sets for candidate in sets if candidate.expected
    )
    agreement = (labelled - len(mismatches)) / labelled if labelled else 1.0
    predicted = lint_true_positives + lint_false_positives
    lint_section: Dict[str, Any] = {
        "enabled": lint,
        "flagged": lint_flagged,
        "prefilter_skips": lint_prefilter_skips,
        "labelled_traps": labelled_traps,
        "true_positives": lint_true_positives,
        "false_positives": lint_false_positives,
        # Precision over the labelled candidates the linter flagged; 1.0
        # when it flagged none (no claims, no wrong claims).
        "precision": round(lint_true_positives / predicted, 4) if predicted else 1.0,
        "recall": round(lint_true_positives / labelled_traps, 4)
        if labelled_traps
        else 1.0,
    }
    return {
        "schema": 1,
        "config": {
            "backend": backend,
            "opt_level": opt_level,
            "lint": lint,
        },
        "functions": functions,
        "aggregate": {
            "functions": total_functions,
            "candidates": total_candidates,
            "verdict_counts": dict(sorted(verdict_counts.items())),
            "ground_truth_agreement": round(agreement, 4),
            "lint": lint_section,
            "mismatches": mismatches,
            "top1_by_similarity": round(topk_hits[0] / total_functions, 4)
            if total_functions and topk_hits
            else 0.0,
            "topk_any_equivalent": {
                str(k + 1): round(hits / total_functions, 4)
                for k, hits in enumerate(topk_hits)
            }
            if total_functions
            else {},
        },
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _resolve_backend(requested: str) -> str:
    if requested == "auto":
        if native.have_native_toolchain():
            return "x86"
        if native.have_arm_toolchain():
            return "arm"
        return "none"
    if requested == "x86" and not native.have_native_toolchain():
        raise SystemExit("error: no x86-64 toolchain (gcc + as) on this host")
    if requested == "arm" and not native.have_arm_toolchain():
        raise SystemExit("error: no AArch64 toolchain/emulator on this host")
    return requested


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.score",
        description="Score decompilation candidates by IO equivalence.",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    parser.add_argument(
        "--functions", type=int, default=20, help="reference functions (default 20)"
    )
    parser.add_argument(
        "--candidates", type=int, default=8, help="candidates per function (default 8)"
    )
    parser.add_argument(
        "--max-stmts", type=int, default=10, help="statement budget per reference"
    )
    parser.add_argument(
        "--backend",
        choices=("auto", "x86", "arm", "none"),
        default="auto",
        help="execution substrate: native ISA, or 'none' for the interpreter "
        "(default auto: x86 when the toolchain exists)",
    )
    parser.add_argument(
        "--opt-level",
        choices=("O0", "O3"),
        default="O0",
        help="opt level candidates are compiled at (default O0)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; functions are sharded round-robin and the "
        "report is byte-identical at any job count (default 1)",
    )
    parser.add_argument(
        "--no-lint",
        action="store_true",
        help="skip the UB-linter pre-filter (on by default: candidates the "
        "linter proves trap on every call skip compile+execute)",
    )
    parser.add_argument(
        "--output", default="eval_report.json", help="where to write the JSON report"
    )
    add_cache_arguments(parser)
    args = parser.parse_args(argv)
    if args.max_stmts < 3:
        parser.error("--max-stmts must be at least 3 (the generator's minimum)")

    backend = _resolve_backend(args.backend)
    cache = cache_from_args(args)
    started = time.time()
    # Scoring never reads the reference assembly grid, so only the ISA/opt
    # the compile gate uses is materialised (the dataset CLI still builds
    # the full {x86, arm} x {O0, O3} grid — that is its job).
    entries = generated_entries(
        args.seed,
        args.functions,
        max_stmts=args.max_stmts,
        isas=("arm",) if backend == "arm" else ("x86",),
        opt_levels=(args.opt_level,),
        cache=cache,
    )
    candidate_sets = [
        Mutator(
            entry.seed if entry.seed is not None else args.seed,
            # Interpreter-certified trap labels do not transfer everywhere:
            # AArch64 returns 0 on integer division by zero instead of
            # faulting, and -O3 DCE can delete a dead trapping division
            # entirely.  Both substrates get trap-free candidate sets.
            allow_trap_labels=backend != "arm" and args.opt_level == "O0",
        ).candidates(entry, args.candidates, cache=cache)
        for entry in entries
    ]
    built = time.time()
    print(
        f"dataset: {len(entries)} functions x {args.candidates} candidates "
        f"({sum(len(e.inputs) for e in entries)} IO vectors) "
        f"in {built - started:.1f}s; scoring on {backend!r}"
    )

    report = score_dataset(
        entries,
        candidate_sets,
        backend=backend,
        opt_level=args.opt_level,
        lint=not args.no_lint,
        jobs=max(1, args.jobs),
        cache=cache,
    )
    scored = time.time()

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    aggregate = report["aggregate"]
    rate = aggregate["candidates"] / max(1e-9, scored - built)
    print(f"wrote {args.output}")
    print(
        "  verdicts: "
        + ", ".join(f"{k}={v}" for k, v in aggregate["verdict_counts"].items())
    )
    print(
        f"  ground-truth agreement: {aggregate['ground_truth_agreement']:.1%} "
        f"({len(aggregate['mismatches'])} mismatches)"
    )
    lint_section = aggregate["lint"]
    if lint_section["enabled"]:
        print(
            f"  lint pre-filter: {lint_section['flagged']} flagged, "
            f"{lint_section['prefilter_skips']} execution(s) skipped, "
            f"precision {lint_section['precision']:.1%} / "
            f"recall {lint_section['recall']:.1%} vs certified trap labels"
        )
    print(
        f"  top-1 by similarity: {aggregate['top1_by_similarity']:.1%}; "
        f"any-equivalent@N: "
        + ", ".join(
            f"@{k}={v:.0%}" for k, v in aggregate["topk_any_equivalent"].items()
        )
    )
    print(f"  throughput: {rate:.1f} candidates/s ({scored - built:.1f}s scoring)")
    if cache is not None:
        cache.sweep()
        print("  cache: " + describe_stats(cache.stats_summary()))

    for mismatch in aggregate["mismatches"][:10]:
        print(
            f"  MISMATCH {mismatch['uid']} candidate {mismatch['candidate']} "
            f"({mismatch['kind']}): expected {mismatch['expected']}, "
            f"got {mismatch['verdict']} — {mismatch['detail']}",
            file=sys.stderr,
        )
    if aggregate["mismatches"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
