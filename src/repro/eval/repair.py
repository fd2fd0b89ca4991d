"""Search-based candidate repair: a permuter on top of the scorer.

``repro.eval.score`` answers *"is this candidate IO-equivalent?"* — this
module answers *"can we make it equivalent?"*, the decomp-permuter loop
(write C -> compile -> observe the IO diff -> edit -> repeat) run over the
scorer's near-miss verdicts.  Every candidate scored ``io_mismatch``,
``type_error`` or ``trap`` becomes a repair **target**; the campaign then

* generates repair neighborhoods with
  :func:`repro.eval.mutate.repair_neighbors` — the breaking-mutation
  inventory applied *in reverse* plus reducer-style simplifications;
* scores whole populations of neighbors through the existing
  cross-function :class:`repro.testing.native.NativeBatch` fork-server
  groups (one toolchain invocation per ~32 attempts, next group compiling
  while the current one executes);
* beam-searches on **IO-vector agreement** (the fraction of inputs whose
  observation matches the reference's, from the scorer's per-input diffs),
  ties broken by token edit similarity, until a neighbor scores
  ``io_equivalent`` or the per-target attempt budget is spent.

The search is deterministic by construction: neighbor enumeration carries
no RNG, the frontier is ranked by ``(-agreement, -similarity, seq)`` with
a persisted tie-break counter, and each target's search reads nothing but
its own state — so reports are byte-identical at any ``--jobs`` count,
and the campaign JSON written after every round lets
``python -m repro.eval.repair --resume`` continue **byte-identically**
from where a killed run stopped (the file intentionally contains no
timestamps).

Typical invocations::

    python -m repro.eval.repair --seed 0 --functions 50 --candidates 8 \\
        --budget 200 --output repair_campaign.json
    python -m repro.eval.repair --seed 0 --functions 50 --candidates 8 \\
        --budget 200 --resume --output repair_campaign.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.eval.cache import (
    EvalCache,
    add_cache_arguments,
    cache_from_args,
    describe_stats,
)
from repro.eval.dataset import DatasetEntry, generated_entries
from repro.eval.mutate import Candidate, Mutator, repair_neighbors
from repro.eval.score import (
    CandidateScore,
    _resolve_backend,
    score_dataset,
    score_entry_sets,
)

#: Verdicts that make a scored candidate a repair target.  ``parse_error``
#: sources cannot be repaired by AST edits and ``compile_error`` candidates
#: never reach execution, so neither produces an agreement signal to climb.
REPAIRABLE_VERDICTS: Tuple[str, ...] = ("io_mismatch", "type_error", "trap")

#: Per-pair native execution timeout used while scoring repair neighbors.
#: Generated functions run in microseconds, but the neighbor families
#: routinely manufacture infinite loops (flipped loop conditions, nudged
#: bounds); the eval scorer's default 10 s per pair would let a single such
#: neighbor stall a whole round.  Verdicts are unaffected: anything slower
#: than this is a ``limit`` outcome either way.
REPAIR_RUN_TIMEOUT = 1.0


@dataclass
class RepairConfig:
    """Search knobs shared by the CLI, the library API and the workers."""

    backend: str = "x86"
    opt_level: str = "O0"
    #: Scored neighbors allowed per target before it is declared exhausted.
    budget: int = 200
    #: Frontier size: how many scored-but-not-equivalent sources are kept
    #: as future expansion roots.
    beam: int = 4
    #: Neighbors scheduled per target per round (one round = one shared
    #: cross-target batch).
    chunk: int = 24
    #: Maximum edit depth from the original candidate.
    max_depth: int = 3
    #: Stop after this many rounds per target (None = run to completion);
    #: the partial campaign file is resumable.
    max_rounds: Optional[int] = None


def _hash_source(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


def _rank_key(member: Dict[str, Any]) -> Tuple[float, float, int]:
    return (-member["agreement"], -member["similarity"], member["seq"])


def _new_target(
    entry: DatasetEntry, candidate: Candidate, index: int, score: CandidateScore
) -> Dict[str, Any]:
    """Initial search state for one near-miss candidate."""
    root = {
        "source": candidate.text,
        "agreement": score.agreement if score.agreement is not None else 0.0,
        "similarity": score.similarity,
        "depth": 0,
        "seq": 0,
    }
    return {
        "uid": f"{entry.uid}#c{index}",
        "entry_uid": entry.uid,
        "candidate_index": index,
        "kind": candidate.kind,
        "label": candidate.label,
        "start_verdict": score.verdict,
        "status": "active",  # "active" | "repaired" | "exhausted"
        "attempts_used": 0,
        "rounds": 0,
        "seq_counter": 1,
        "best": {
            "agreement": root["agreement"],
            "similarity": root["similarity"],
            "verdict": score.verdict,
            "source": candidate.text,
        },
        "repaired_source": None,
        "frontier": [root],
        "visited": [_hash_source(candidate.text)],
        "expanding": None,  # {"source", "depth", "cursor"}
        "history": [],
    }


def _collect_chunk(
    target: Dict[str, Any], entry: DatasetEntry, config: RepairConfig
) -> List[Tuple[str, str, int]]:
    """The next up-to-``chunk`` unvisited ``(kind, text, depth)`` neighbors.

    Advances the target's expansion cursor; everything consumed from the
    neighbor stream — scheduled or skipped as already visited — bumps the
    cursor, so re-generating the stream and skipping ``cursor`` items
    reproduces the exact continuation after a resume.  A chunk may span
    several expansion roots (when one root's stream runs dry the best
    frontier member is popped next), which is why each neighbor carries
    its own depth.  Marks the target ``exhausted`` (and returns ``[]``)
    when the budget is spent or there is nothing left to expand.
    """
    room = config.budget - target["attempts_used"]
    if room <= 0:
        target["status"] = "exhausted"
        return []
    visited = set(target["visited"])
    batch: List[Tuple[str, str, int]] = []
    want = min(config.chunk, room)
    while len(batch) < want:
        if target["expanding"] is None:
            if not target["frontier"]:
                break
            target["frontier"].sort(key=_rank_key)
            member = target["frontier"].pop(0)
            target["expanding"] = {
                "source": member["source"],
                "depth": member["depth"],
                "cursor": 0,
            }
        expanding = target["expanding"]
        stream = repair_neighbors(expanding["source"], entry.name)
        consumed = 0
        exhausted_stream = True
        for kind, text in stream:
            if consumed < expanding["cursor"]:
                consumed += 1
                continue
            expanding["cursor"] += 1
            digest = _hash_source(text)
            if digest in visited:
                continue
            visited.add(digest)
            target["visited"].append(digest)
            batch.append((kind, text, expanding["depth"]))
            if len(batch) >= want:
                exhausted_stream = False
                break
        if exhausted_stream:
            target["expanding"] = None
            if not target["frontier"]:
                break
    if not batch:
        target["status"] = "exhausted"
    return batch


def _apply_scores(
    target: Dict[str, Any],
    chunk: List[Tuple[str, str, int]],
    scores: Sequence[CandidateScore],
    config: RepairConfig,
) -> None:
    """Fold one round's verdicts back into the target's search state."""
    verdicts: Dict[str, int] = {}
    for (kind, text, depth), score in zip(chunk, scores):
        target["attempts_used"] += 1
        verdicts[score.verdict] = verdicts.get(score.verdict, 0) + 1
        if score.verdict == "io_equivalent":
            target["status"] = "repaired"
            target["repaired_source"] = text
            target["best"] = {
                "agreement": 1.0,
                "similarity": score.similarity,
                "verdict": "io_equivalent",
                "source": text,
            }
            break
        if score.agreement is None:
            continue  # never executed: no signal to climb on
        if (score.agreement, score.similarity) > (
            target["best"]["agreement"],
            target["best"]["similarity"],
        ):
            target["best"] = {
                "agreement": score.agreement,
                "similarity": score.similarity,
                "verdict": score.verdict,
                "source": text,
            }
        if depth + 1 <= config.max_depth:
            target["frontier"].append(
                {
                    "source": text,
                    "agreement": score.agreement,
                    "similarity": score.similarity,
                    "depth": depth + 1,
                    "seq": target["seq_counter"],
                }
            )
            target["seq_counter"] += 1
    target["frontier"].sort(key=_rank_key)
    del target["frontier"][config.beam :]
    target["rounds"] += 1
    target["history"].append(
        {
            "round": target["rounds"],
            "attempts": len(chunk),
            "best_agreement": target["best"]["agreement"],
            "verdicts": dict(sorted(verdicts.items())),
        }
    )
    if target["status"] == "active" and target["attempts_used"] >= config.budget:
        target["status"] = "exhausted"


def _run_rounds(
    targets: List[Dict[str, Any]],
    entries_by_uid: Dict[str, DatasetEntry],
    config: RepairConfig,
    persist=None,
    cache: Optional[EvalCache] = None,
) -> None:
    """Advance every active target to completion (or the round limit).

    Each round gathers one neighbor chunk per active target and scores all
    of them through one shared ``score_entry_sets`` call —
    cross-function batch groups with compile-while-execute lookahead,
    ``lint=False`` so every gate survivor really executes and carries an
    agreement score, and (with ``cache``) the verdict memo skips the
    toolchain entirely for neighbors judged in prior rounds or campaigns.
    ``persist`` (when given) is called after every round.
    """
    while True:
        active = [
            t
            for t in targets
            if t["status"] == "active"
            and (config.max_rounds is None or t["rounds"] < config.max_rounds)
        ]
        if not active:
            break
        chunks: List[Tuple[Dict[str, Any], List[Tuple[str, str, int]]]] = []
        for target in active:
            entry = entries_by_uid[target["entry_uid"]]
            chunk = _collect_chunk(target, entry, config)
            if chunk:
                chunks.append((target, chunk))
        if not chunks:
            if persist is not None:
                persist()
            continue
        score_entries = [entries_by_uid[t["entry_uid"]] for t, _ in chunks]
        candidate_sets = [
            [Candidate(text, "", kind, "") for kind, text, _ in chunk]
            for _, chunk in chunks
        ]
        all_scores = score_entry_sets(
            score_entries,
            candidate_sets,
            cache,
            backend=config.backend,
            opt_level=config.opt_level,
            lint=False,
            run_timeout=REPAIR_RUN_TIMEOUT,
        )
        for (target, chunk), scores in zip(chunks, all_scores):
            _apply_scores(target, chunk, scores, config)
        if persist is not None:
            persist()


def _repair_worker(payload):
    targets, entries, config, cache = payload
    if cache is not None:
        # The pickled copy carries the parent's counters; zero them so the
        # summary shipped back is exactly this worker's delta.
        cache.stats = {}
        cache.evictions = 0
    entries_by_uid = {entry.uid: entry for entry in entries}
    _run_rounds(targets, entries_by_uid, config, cache=cache)
    return targets, (cache.stats_summary() if cache is not None else None)


def _aggregate(targets: List[Dict[str, Any]]) -> Dict[str, Any]:
    def rate(repaired: int, total: int) -> float:
        return round(repaired / total, 4) if total else 1.0

    repaired = sum(1 for t in targets if t["status"] == "repaired")
    mismatch = [t for t in targets if t["start_verdict"] == "io_mismatch"]
    mismatch_repaired = sum(1 for t in mismatch if t["status"] == "repaired")
    start_counts: Dict[str, int] = {}
    for target in targets:
        start = target["start_verdict"]
        start_counts[start] = start_counts.get(start, 0) + 1
    return {
        "targets": len(targets),
        "repaired": repaired,
        "exhausted": sum(1 for t in targets if t["status"] == "exhausted"),
        "active": sum(1 for t in targets if t["status"] == "active"),
        "attempts": sum(t["attempts_used"] for t in targets),
        "rounds": max((t["rounds"] for t in targets), default=0),
        "start_verdicts": dict(sorted(start_counts.items())),
        "repair_rate": rate(repaired, len(targets)),
        "io_mismatch_targets": len(mismatch),
        "io_mismatch_repaired": mismatch_repaired,
        "io_mismatch_repair_rate": rate(mismatch_repaired, len(mismatch)),
    }


def _campaign_json(
    targets: List[Dict[str, Any]], config: RepairConfig, extra_config: Dict[str, Any]
) -> Dict[str, Any]:
    return {
        "schema": 1,
        "config": {
            **extra_config,
            "backend": config.backend,
            "opt_level": config.opt_level,
            "budget": config.budget,
            "beam": config.beam,
            "chunk": config.chunk,
            "max_depth": config.max_depth,
        },
        "targets": targets,
        "aggregate": _aggregate(targets),
    }


def repair_campaign(
    entries: Sequence[DatasetEntry],
    candidate_sets: Sequence[Sequence[Candidate]],
    config: Optional[RepairConfig] = None,
    jobs: int = 1,
    state: Optional[Dict[str, Any]] = None,
    persist=None,
    extra_config: Optional[Dict[str, Any]] = None,
    baseline: Optional[Dict[str, Any]] = None,
    cache: Optional[EvalCache] = None,
) -> Dict[str, Any]:
    """Run (or resume) a repair campaign; returns the campaign document.

    Fresh campaigns first score the dataset to find the near-miss targets
    (pass ``baseline`` to reuse an existing ``score_dataset`` report built
    from the same entries/candidates); ``state`` resumes a prior campaign
    document instead.  ``persist`` is called with the current campaign
    document after every round (single-process runs only — with
    ``jobs > 1`` workers run their shards to completion and the document
    is produced once at the end).  Per-target searches never read other
    targets' state, so the result is byte-identical at any ``jobs`` count.
    ``cache`` (a :class:`repro.eval.cache.EvalCache`) memoises verdicts
    across rounds, runs and campaigns without changing a byte of the
    campaign document.
    """
    if config is None:
        config = RepairConfig()
    extra_config = dict(extra_config or {})
    entries_by_uid = {entry.uid: entry for entry in entries}

    if state is not None:
        targets = [dict(t) for t in state["targets"]]
    else:
        if baseline is None:
            baseline = score_dataset(
                entries,
                candidate_sets,
                backend=config.backend,
                opt_level=config.opt_level,
                jobs=jobs,
                cache=cache,
            )
        targets = []
        score_index = {f["uid"]: f["candidates"] for f in baseline["functions"]}
        for entry, candidates in zip(entries, candidate_sets):
            for index, candidate in enumerate(candidates):
                scored = score_index[entry.uid][index]
                if scored["verdict"] not in REPAIRABLE_VERDICTS:
                    continue
                score = CandidateScore(
                    index,
                    scored["verdict"],
                    scored["similarity"],
                    agreement=scored.get("agreement"),
                )
                targets.append(_new_target(entry, candidate, index, score))

    def document() -> Dict[str, Any]:
        return _campaign_json(targets, config, extra_config)

    active = [t for t in targets if t["status"] == "active"]
    if jobs > 1 and len(active) > 1:
        workers = min(jobs, len(active))
        # Shard only the active targets round-robin; each worker receives
        # the entries its targets need (contexts pickle as their sources).
        shards: List[List[Dict[str, Any]]] = [[] for _ in range(workers)]
        for position, target in enumerate(active):
            shards[position % workers].append(target)
        payloads = []
        for shard in shards:
            needed = sorted({t["entry_uid"] for t in shard})
            payloads.append((shard, [entries_by_uid[uid] for uid in needed], config, cache))
        with multiprocessing.Pool(processes=workers) as pool:
            finished = pool.map(_repair_worker, payloads)
        for _, summary in finished:
            if cache is not None and summary is not None:
                cache.absorb(summary)
        by_uid = {t["uid"]: t for shard, _ in finished for t in shard}
        targets = [by_uid.get(t["uid"], t) for t in targets]
    else:
        if persist is not None:
            persist(document())
        _run_rounds(
            targets,
            entries_by_uid,
            config,
            persist=(lambda: persist(document())) if persist is not None else None,
            cache=cache,
        )

    return _campaign_json(targets, config, extra_config)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

#: Config keys that must match for ``--resume`` to continue a campaign
#: file (``jobs`` is an execution detail with no effect on the bytes, so it
#: may differ between the original run and the resume).
_RESUME_KEYS = (
    "seed",
    "functions",
    "candidates",
    "max_stmts",
    "backend",
    "opt_level",
    "budget",
    "beam",
    "chunk",
    "max_depth",
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.repair",
        description="Repair near-miss decompilation candidates by beam search "
        "on IO-vector agreement.",
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
        help="execution substrate (default auto: x86 when the toolchain exists)",
    )
    parser.add_argument(
        "--opt-level", choices=("O0", "O3"), default="O0",
        help="opt level candidates are compiled at (default O0)",
    )
    parser.add_argument(
        "--budget", type=int, default=200,
        help="scored repair attempts per target (default 200)",
    )
    parser.add_argument(
        "--beam", type=int, default=4,
        help="frontier size per target (default 4)",
    )
    parser.add_argument(
        "--chunk", type=int, default=24,
        help="neighbors scored per target per round (default 24)",
    )
    parser.add_argument(
        "--max-depth", type=int, default=3,
        help="maximum edit depth from the original candidate (default 3)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes; targets are sharded round-robin and the "
        "campaign is byte-identical at any job count (default 1)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue the campaign in --output byte-identically from where "
        "it stopped (the dataset config must match)",
    )
    parser.add_argument(
        "--max-rounds", type=int, default=None,
        help="stop after N search rounds per target (the partial campaign "
        "file is resumable; default: run to completion)",
    )
    parser.add_argument(
        "--min-repair-rate", type=float, default=None,
        help="exit 1 unless the io_mismatch repair rate reaches this floor",
    )
    parser.add_argument(
        "--output", default="repair_campaign.json",
        help="campaign progress/result file (default repair_campaign.json)",
    )
    add_cache_arguments(parser)
    args = parser.parse_args(argv)
    if args.max_stmts < 3:
        parser.error("--max-stmts must be at least 3 (the generator's minimum)")
    if args.budget < 1 or args.beam < 1 or args.chunk < 1 or args.max_depth < 1:
        parser.error("--budget/--beam/--chunk/--max-depth must be at least 1")

    backend = _resolve_backend(args.backend)
    config = RepairConfig(
        backend=backend,
        opt_level=args.opt_level,
        budget=args.budget,
        beam=args.beam,
        chunk=args.chunk,
        max_depth=args.max_depth,
        max_rounds=args.max_rounds,
    )
    extra_config = {
        "seed": args.seed,
        "functions": args.functions,
        "candidates": args.candidates,
        "max_stmts": args.max_stmts,
    }

    state: Optional[Dict[str, Any]] = None
    if args.resume:
        try:
            with open(args.output) as handle:
                state = json.load(handle)
        except FileNotFoundError:
            raise SystemExit(f"error: --resume: no campaign file at {args.output!r}")
        stored = state.get("config", {})
        want = {**extra_config, **{
            "backend": backend,
            "opt_level": args.opt_level,
            "budget": args.budget,
            "beam": args.beam,
            "chunk": args.chunk,
            "max_depth": args.max_depth,
        }}
        for key in _RESUME_KEYS:
            if stored.get(key) != want[key]:
                raise SystemExit(
                    f"error: --resume: config mismatch on {key!r} "
                    f"(file has {stored.get(key)!r}, run wants {want[key]!r})"
                )

    cache = cache_from_args(args)
    started = time.time()
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
            allow_trap_labels=backend != "arm" and args.opt_level == "O0",
        ).candidates(entry, args.candidates, cache=cache)
        for entry in entries
    ]
    built = time.time()
    print(
        f"dataset: {len(entries)} functions x {args.candidates} candidates "
        f"in {built - started:.1f}s; repairing on {backend!r}"
    )

    def persist(campaign: Dict[str, Any]) -> None:
        with open(args.output, "w") as handle:
            json.dump(campaign, handle, indent=2, sort_keys=True)
            handle.write("\n")

    campaign = repair_campaign(
        entries,
        candidate_sets,
        config=config,
        jobs=max(1, args.jobs),
        state=state,
        persist=persist if args.jobs <= 1 else None,
        extra_config=extra_config,
        cache=cache,
    )
    persist(campaign)
    finished = time.time()

    aggregate = campaign["aggregate"]
    elapsed = max(1e-9, finished - built)
    print(f"wrote {args.output}")
    print(
        f"  targets: {aggregate['targets']} "
        f"({', '.join(f'{k}={v}' for k, v in aggregate['start_verdicts'].items())})"
    )
    print(
        f"  repaired: {aggregate['repaired']}/{aggregate['targets']} "
        f"({aggregate['repair_rate']:.1%}); io_mismatch "
        f"{aggregate['io_mismatch_repaired']}/{aggregate['io_mismatch_targets']} "
        f"({aggregate['io_mismatch_repair_rate']:.1%})"
    )
    print(
        f"  attempts: {aggregate['attempts']} in {aggregate['rounds']} round(s); "
        f"{aggregate['attempts'] / elapsed:.1f} attempts/s, "
        f"{aggregate['repaired'] / elapsed:.2f} repaired/s"
    )
    if cache is not None:
        cache.sweep()
        print("  cache: " + describe_stats(cache.stats_summary()))
    if aggregate["active"]:
        print(
            f"  {aggregate['active']} target(s) still active "
            f"(run again with --resume to continue)"
        )

    if args.min_repair_rate is not None:
        if aggregate["io_mismatch_repair_rate"] < args.min_repair_rate:
            print(
                f"REPAIR RATE GATE FAILED: io_mismatch repair rate "
                f"{aggregate['io_mismatch_repair_rate']:.1%} is below the "
                f"{args.min_repair_rate:.1%} floor",
                file=sys.stderr,
            )
            return 1
        print(
            f"  repair-rate gate: {aggregate['io_mismatch_repair_rate']:.1%} "
            f">= {args.min_repair_rate:.1%} floor"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
