"""Tests for the decompilation-hypothesis scoring subsystem (``repro.eval``).

Pins the ISSUE's acceptance properties: every mutation with a certified
ground-truth label must score to exactly its expected verdict (preserving
-> ``io_equivalent``, breaking -> ``io_mismatch``/``trap``, invalid ->
front-end verdicts), the report must match the golden one recorded from
the execution paths the fork server replaced, the gate's signature and
external-call rules must give pinned verdicts, and the JSON report must be
stable under a fixed seed.
"""

import json

import pytest

import make_execution_golden as golden

from repro.eval.dataset import (
    Observation,
    build_entry,
    classify_observations,
    generated_entries,
)
from repro.eval.mutate import Candidate, Mutator
from repro.eval.score import edit_similarity, score_candidates, score_dataset
from repro.testing.native import have_native_toolchain

needs_toolchain = pytest.mark.skipif(
    not have_native_toolchain(),
    reason="requires an x86-64 host with GNU as and gcc",
)


def _small_dataset(seed=9, functions=4, candidates=6):
    entries = generated_entries(seed, functions, max_stmts=8)
    sets = [Mutator(entry.seed).candidates(entry, candidates) for entry in entries]
    return entries, sets


# ---------------------------------------------------------------------------
# Dataset builder
# ---------------------------------------------------------------------------


def test_generated_entries_are_deterministic_and_complete():
    a = generated_entries(3, 3, max_stmts=6)
    b = generated_entries(3, 3, max_stmts=6)
    assert [e.source for e in a] == [e.source for e in b]
    for entry in a:
        assert set(entry.assembly) == {"x86-O0", "x86-O3", "arm-O0", "arm-O3"}
        assert len(entry.reference) == len(entry.inputs)
        # Reference functions are ground truth: they must execute cleanly.
        assert all(obs.status == "ok" for obs in entry.reference)
        assert all(f"{entry.name}:" in asm for asm in entry.assembly.values())


def test_build_entry_records_io_vectors():
    source = """
int scale = 2;

int accum(int a, int *out) {
    *out = a * scale;
    scale = scale + 1;
    return *out + 1;
}
"""
    entry = build_entry(source, "accum", [(3, [0]), (5, [0])], "t-0", "corpus")
    first, second = entry.reference
    assert first.return_value == 7 and first.arg_values[1] == [6]
    assert first.globals["scale"] == 3
    # Every IO vector starts from pristine globals (fresh interpreter), so
    # the second vector sees scale == 2 again.
    assert second.return_value == 11
    assert second.arg_values[1] == [10]
    assert second.globals["scale"] == 3


# ---------------------------------------------------------------------------
# Verdict classification (pure logic, no toolchain)
# ---------------------------------------------------------------------------


def _ok(ret, args=(), globs=None):
    return Observation("ok", ret, list(args), dict(globs or {}))


def test_classify_equivalent_and_mismatch():
    ref = [_ok(1), _ok(2)]
    assert classify_observations(ref, [_ok(1), _ok(2)])[0] == "io_equivalent"
    verdict, detail = classify_observations(ref, [_ok(1), _ok(3)])
    assert verdict == "io_mismatch" and "input #1" in detail


def test_classify_trap_takes_precedence_over_mismatch():
    ref = [_ok(1), _ok(2)]
    cand = [_ok(9), Observation("trap", detail="SIGFPE")]
    assert classify_observations(ref, cand)[0] == "trap"


def test_classify_limit_counts_as_trap():
    ref = [_ok(1)]
    assert classify_observations(ref, [Observation("limit")])[0] == "trap"


def test_classify_shared_trap_is_equivalent():
    ref = [Observation("trap", detail="division by zero")]
    cand = [Observation("trap", detail="exit status -8")]
    assert classify_observations(ref, cand)[0] == "io_equivalent"


def test_classify_globals_compare_common_keys_only():
    # The native harness only observes globals present in the assembly, so
    # a key one side does not report must not count as a divergence.
    ref = [_ok(1, globs={"g": 5, "h": 7})]
    assert classify_observations(ref, [_ok(1, globs={"g": 5})])[0] == "io_equivalent"
    assert classify_observations(ref, [_ok(1, globs={"g": 6})])[0] == "io_mismatch"


def test_classify_mismatched_args():
    ref = [_ok(None, args=[[1, 2]])]
    assert classify_observations(ref, [_ok(None, args=[[1, 3]])])[0] == "io_mismatch"


# ---------------------------------------------------------------------------
# Mutator: certified labels
# ---------------------------------------------------------------------------


def test_candidate_sets_are_deterministic_and_labelled():
    entries, sets = _small_dataset()
    _, sets_again = _small_dataset()
    assert [[c.text for c in s] for s in sets] == [
        [c.text for c in s] for s in sets_again
    ]
    for candidates in sets:
        labels = {c.label for c in candidates}
        assert "preserving" in labels and "breaking" in labels
        for candidate in candidates:
            if candidate.label == "preserving":
                assert candidate.expected == "io_equivalent"
            elif candidate.label == "breaking":
                assert candidate.expected in ("io_mismatch", "trap")
            else:
                assert candidate.expected in (
                    "parse_error",
                    "type_error",
                    "compile_error",
                )
            assert candidate.text != ""


def test_trap_labels_can_be_disabled_for_arm_scoring():
    """AArch64 division by zero returns 0 instead of faulting, so the
    scorer requests trap-free labels when targeting the arm backend."""
    entries = generated_entries(9, 4, max_stmts=8)
    for entry in entries:
        candidates = Mutator(entry.seed, allow_trap_labels=False).candidates(entry, 8)
        assert all(c.expected != "trap" for c in candidates)
        assert any(c.label == "breaking" for c in candidates)


def test_preserving_candidates_differ_textually_from_reference():
    entries, sets = _small_dataset()
    for entry, candidates in zip(entries, sets):
        for candidate in candidates:
            if candidate.label == "preserving":
                assert candidate.text != entry.source


# ---------------------------------------------------------------------------
# Scorer: verdict pins (interpreter substrate — no toolchain required)
# ---------------------------------------------------------------------------


def test_scorer_agrees_with_ground_truth_on_interpreter():
    entries, sets = _small_dataset(seed=5, functions=5, candidates=6)
    for entry, candidates in zip(entries, sets):
        scores = score_candidates(entry, candidates, backend="none")
        for candidate, score in zip(candidates, scores):
            assert score.verdict == candidate.expected, (
                f"{entry.uid} candidate {score.index} ({candidate.kind}): "
                f"expected {candidate.expected}, got {score.verdict} "
                f"({score.detail})\n{candidate.text}"
            )


def test_scores_carry_io_agreement():
    entries, sets = _small_dataset(seed=5, functions=4, candidates=6)
    for entry, candidates in zip(entries, sets):
        scores = score_candidates(entry, candidates, backend="none")
        for score in scores:
            if score.verdict == "io_equivalent":
                assert score.agreement == 1.0
            elif score.verdict in ("io_mismatch", "trap"):
                if score.lint_prefilter:
                    # The UB linter skipped execution entirely.
                    assert score.agreement is None
                else:
                    # Executed but disagreed somewhere: agreement is a
                    # proper fraction of the entry's IO vectors.
                    assert score.agreement is not None
                    assert 0.0 <= score.agreement < 1.0
            elif score.verdict in ("parse_error", "type_error"):
                # Never executed: no agreement signal, and the report
                # omits the key rather than inventing a number.
                assert score.agreement is None
                assert "agreement" not in score.to_json()


def test_jobs_beyond_entry_count_and_empty_dataset():
    """``jobs`` larger than the entry count (including the zero-entry
    degenerate case) must neither crash nor change a single report byte."""
    report = score_dataset([], [], backend="none", jobs=4)
    assert report["aggregate"]["candidates"] == 0
    assert report["aggregate"]["ground_truth_agreement"] == 1.0
    assert report["functions"] == []

    entries, sets = _small_dataset(seed=7, functions=2, candidates=4)
    lone = score_dataset(entries, sets, backend="none", jobs=1)
    flooded = score_dataset(entries, sets, backend="none", jobs=8)
    assert json.dumps(lone, sort_keys=True) == json.dumps(flooded, sort_keys=True)


def test_edit_similarity_metric():
    a = "int f(int a) {\n    return a + 1;\n}\n"
    assert edit_similarity(a, a) == 1.0
    # Whitespace-only changes are invisible to the token-level metric.
    assert edit_similarity("int f(int a){return a+1;}", a) == 1.0
    renamed = a.replace("a", "b")
    assert 0.0 < edit_similarity(renamed, a) < 1.0
    # Unlexable candidates fall back to *whitespace* tokenization, not a
    # character-by-character comparison: shared words still count as
    # matches, so the score stays on the same tokens-edited scale.
    assert edit_similarity("@@@ not C @@@", a) == 0.0
    assert edit_similarity("@@@ return a + 1 ; @@@", a) == 0.2222
    # Empty-input pins: empty-vs-empty is a perfect match by convention,
    # empty-vs-nonempty is maximally distant (all insertions).
    assert edit_similarity("", "") == 1.0
    assert edit_similarity("   ", "") == 1.0
    assert edit_similarity("", a) == 0.0
    assert edit_similarity(a, "") == 0.0


# ---------------------------------------------------------------------------
# Scorer: native path, batch parity, report stability
# ---------------------------------------------------------------------------


@needs_toolchain
def test_scorer_agrees_with_ground_truth_on_native():
    entries, sets = _small_dataset(seed=13, functions=5, candidates=6)
    report = score_dataset(entries, sets, backend="x86")
    aggregate = report["aggregate"]
    assert aggregate["ground_truth_agreement"] == 1.0, aggregate["mismatches"]
    assert aggregate["candidates"] == 30
    # Every verdict class the mutator can produce must be exercised
    # somewhere in the set for the agreement number to mean anything.
    assert "io_equivalent" in aggregate["verdict_counts"]
    assert set(aggregate["verdict_counts"]) & {"io_mismatch", "trap"}


def _golden_report():
    return json.loads((golden.GOLDEN_DIR / "score_seed17.json").read_text())


@needs_toolchain
def test_batch_scoring_is_byte_identical_to_per_candidate():
    """Scoring one function at a time through ``score_candidates`` gives
    the candidates of the seed-17 4x6 report recorded from the deleted
    per-candidate path, byte for byte."""
    expected = _golden_report()
    entries, sets = _small_dataset(seed=17, functions=4, candidates=6)
    singles = [
        [score.to_json() for score in score_candidates(entry, candidates)]
        for entry, candidates in zip(entries, sets)
    ]
    assert singles == [function["candidates"] for function in expected["functions"]]


@needs_toolchain
def test_every_execution_path_is_byte_identical():
    """Cross-function fork-server groups, in process and sharded over
    workers, write the seed-17 4x6 report recorded from the deleted
    per-candidate and subprocess-batch paths (which agreed byte for
    byte)."""
    expected = _golden_report()
    entries, sets = _small_dataset(seed=17, functions=4, candidates=6)
    assert score_dataset(entries, sets, backend="x86") == expected
    assert score_dataset(entries, sets, backend="x86", jobs=3) == expected


# ---------------------------------------------------------------------------
# Scorer gate: signatures, external calls, toolchain failures
# ---------------------------------------------------------------------------


def _seed0_entry(index):
    entries = generated_entries(0, index + 1, max_stmts=10, isas=("x86",), opt_levels=("O0",))
    return entries[index]


@pytest.mark.parametrize("backend", ["none", "x86"])
def test_signature_mismatch_is_a_type_error_before_compiling(backend):
    """A candidate whose parameters differ from the reference's in count or
    class used to crash the scorer (four scalars against pointer
    parameters) or read garbage registers (an extra parameter)."""
    classes = _seed0_entry(0)  # (unsigned int, short *, unsigned long, unsigned short *)
    scalars = "long fuzz_target(long a, long b, long c, long d) {\n    return a + b + c + d;\n}\n"
    [score] = score_candidates(classes, [Candidate(scalars, "", "", "")], backend=backend)
    assert (score.verdict, score.detail) == (
        "type_error",
        "signature does not match the reference: candidate takes "
        "(integer, integer, integer, integer), reference takes "
        "(integer, pointer, integer, pointer)",
    )
    arity = _seed0_entry(5)  # int fuzz_target(char p3)
    extra = "int fuzz_target(char p3, int extra) {\n    return p3 + extra;\n}\n"
    [score] = score_candidates(arity, [Candidate(extra, "", "", "")], backend=backend)
    assert (score.verdict, score.detail) == (
        "type_error",
        "signature does not match the reference: candidate takes "
        "(integer, integer), reference takes (integer)",
    )
    assert score.agreement is None


@needs_toolchain
def test_external_call_is_rejected_without_running(tmp_path):
    """Calling a function the candidate does not define is a compile_error
    decided at the gate: the call never links, so it never runs."""
    entry = _seed0_entry(0)
    marker = tmp_path / "x"
    source = (
        "int system(char *s);\n\n"
        "long fuzz_target(unsigned int p3, short *q5, unsigned long p2, "
        "unsigned short *q4) {\n"
        f'    system("touch {marker}");\n'
        "    return 0;\n}\n"
    )
    address_taken = (
        "int system(char *s);\n\n"
        "long fuzz_target(unsigned int p3, short *q5, unsigned long p2, "
        "unsigned short *q4) {\n"
        "    long f = (long)system;\n"
        "    return f;\n}\n"
    )
    scores = score_candidates(
        entry, [Candidate(source, "", "", ""), Candidate(address_taken, "", "", "")]
    )
    assert [(s.verdict, s.detail) for s in scores] == [
        ("compile_error", "external call 'system'"),
        ("compile_error", "external call 'system'"),
    ]
    assert not marker.exists()


@needs_toolchain
def test_toolchain_failure_detail_is_deterministic(monkeypatch):
    """A link failure's detail must not carry gcc's random object names or
    the run's working directory: two cold runs report the same bytes."""
    from repro.testing.frontend import CaseContext

    original = CaseContext.assembly

    def unresolved(self, isa, opt_level):
        return original(self, isa, opt_level) + "\t.text\n\tcall\tmc_missing_symbol\n"

    monkeypatch.setattr(CaseContext, "assembly", unresolved)
    entry = _seed0_entry(5)
    candidate = Candidate(entry.source, "", "", "")
    first = score_candidates(entry, [candidate])[0]
    second = score_candidates(entry, [candidate])[0]
    assert first.verdict == "compile_error"
    assert first.detail.startswith("toolchain failed on the assembly: ")
    assert "mc_missing_symbol" in first.detail
    assert "<tmp>" in first.detail and "/tmp/" not in first.detail
    assert (second.verdict, second.detail) == (first.verdict, first.detail)


@needs_toolchain
def test_unsupported_signature_is_a_compile_error():
    """Seven integer parameters do not fit the fork server's trampoline:
    the candidate is charged a deterministic compile_error naming it."""
    params = ", ".join(f"int a{i}" for i in range(7))
    source = f"int wide({params}) {{\n    return a0 + a6;\n}}\n"
    entry = build_entry(source, "wide", [tuple(range(1, 8))], "wide-0", "corpus")
    [score] = score_candidates(entry, [Candidate(source, "", "", "")])
    assert (score.verdict, score.detail) == (
        "compile_error",
        "unsupported signature (wide: 7 integer and 0 double parameters; "
        "the harness passes at most 6 of each)",
    )


@needs_toolchain
def test_report_is_stable_under_fixed_seed():
    entries, sets = _small_dataset(seed=21, functions=3, candidates=5)
    first = score_dataset(entries, sets, backend="x86")
    entries, sets = _small_dataset(seed=21, functions=3, candidates=5)
    second = score_dataset(entries, sets, backend="x86")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    # Schema pin: downstream consumers (CI artifact, bench) rely on these.
    assert first["schema"] == 1
    assert set(first["config"]) == {"backend", "opt_level", "lint"}
    aggregate = first["aggregate"]
    assert set(aggregate) >= {
        "functions",
        "candidates",
        "verdict_counts",
        "ground_truth_agreement",
        "lint",
        "mismatches",
        "top1_by_similarity",
        "topk_any_equivalent",
    }
    for function in first["functions"]:
        assert set(function) == {"uid", "name", "origin", "inputs", "candidates"}
        for candidate in function["candidates"]:
            assert set(candidate) >= {"index", "verdict", "similarity", "detail"}
