"""Verify (or rewrite) the golden execution tables under tests/golden/execution/.

The native executor is the fork server alone.  These files pin what it
must observe; they were recorded from the two execution paths it replaced
(one binary per candidate, and one subprocess per batch leg), which
agreed with the fork server byte for byte on all of them:

* ``native_outcomes.json`` — every (case, input) outcome of one batch with
  a trapping divisor, a global, a pointer argument, a double and an
  infinite loop (``trap`` / ``ok`` / ``limit`` rows);
* ``swap_addl_divergences.json`` — the ``Divergence.describe()`` text of
  twelve fixed-seed fuzz cases under a deterministic injected miscompile;
* ``campaign_seed7.json`` — the records of a fixed-seed 16-case campaign;
* ``score_seed17.json`` — the seed-17 4x6 scoring report.

Run from the repository root (needs gcc on an x86-64 host):

    python tests/make_execution_golden.py --check  # exit 1 if any table differs
    python tests/make_execution_golden.py          # rewrite them

Rewrite only for a reviewed, intended change of observable behaviour.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.eval.dataset import generated_entries  # noqa: E402
from repro.eval.mutate import Mutator  # noqa: E402
from repro.eval.score import score_dataset  # noqa: E402
from repro.testing.fuzz import FuzzConfig, case_seed, run_campaign  # noqa: E402
from repro.testing.generator import generate_case  # noqa: E402
from repro.testing.native import BatchCase, NativeBatch  # noqa: E402
from repro.testing.oracle import Oracle  # noqa: E402

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "execution"

#: (source, name, inputs) of the outcome-table batch, run at -O0 with a 1s
#: per-pair timeout so the looping case is charged a ``limit`` quickly.
OUTCOME_CASES = [
    ("int f(int a) {\n    return 7 / a;\n}\n", "f", [(0,), (2,), (0,)]),
    ("int g(int a) {\n    return a * 3;\n}\n", "g", [(1,), (-5,)]),
    (
        "int acc = 2;\n\nint h(int k) {\n    acc += k;\n    return acc;\n}\n",
        "h",
        [(5,), (0,)],
    ),
    (
        "int fill(int *out, int n) {\n    out[0] = n;\n    out[1] = n * 2;\n"
        "    return out[0] + out[1];\n}\n",
        "fill",
        [([0, 0], 3), ([7, 7], -4)],
    ),
    (
        "double half(double x, int n) {\n    return x / n + 0.25;\n}\n",
        "half",
        [(3.0, 2), (1.5, 4)],
    ),
    (
        "int spin(int a) {\n    while (a > 0) {\n        a = a + 0;\n    }\n"
        "    return a;\n}\n",
        "spin",
        [(0,), (1,)],
    ),
]


def swap_first_addl(assembly: str) -> str:
    """A *deterministic* injected miscompile (first ``addl`` -> ``subl``).

    Unlike ``strip_cltd`` — whose misbehaviour reads whatever garbage %edx
    happens to hold — this transform corrupts results deterministically,
    so even the post-divergence outcome lines are reproducible byte for
    byte.
    """
    lines = assembly.splitlines()
    for index, line in enumerate(lines):
        if line.strip().startswith("addl"):
            lines[index] = line.replace("addl", "subl", 1)
            break
    return "\n".join(lines) + "\n"


def native_outcomes() -> list:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        with NativeBatch(
            [BatchCase(source, name, list(inputs)) for source, name, inputs in OUTCOME_CASES],
            "O0",
            Path(tmp),
            run_timeout=1.0,
        ) as batch:
            for case_index, (_, _, inputs) in enumerate(OUTCOME_CASES):
                for input_index in range(len(inputs)):
                    status, payload = batch.outcome(case_index, input_index)
                    row = {"case": case_index, "input": input_index, "status": status}
                    if status == "ok":
                        row["return"] = payload.return_value
                        row["args"] = list(payload.arg_values)
                        row["globals"] = dict(payload.globals)
                    else:
                        row["detail"] = str(payload)
                    rows.append(row)
    return rows


def swap_addl_divergences() -> list:
    cases = [generate_case(case_seed(0, index), max_stmts=8) for index in range(12)]
    oracle = Oracle(backends=("x86",), asm_transform=swap_first_addl)
    return [
        verdict if verdict is None else verdict.describe()
        for verdict in oracle.check_batch(cases)
    ]


def campaign_records() -> list:
    results = run_campaign(FuzzConfig(backends=("x86",), batch_size=8), 7, 16)
    return [[r.index, r.seed, r.status, r.detail] for r in results]


def score_report() -> dict:
    entries = generated_entries(17, 4, max_stmts=8)
    candidate_sets = [Mutator(entry.seed).candidates(entry, 6) for entry in entries]
    return score_dataset(entries, candidate_sets, backend="x86")


TABLES = {
    "native_outcomes.json": native_outcomes,
    "swap_addl_divergences.json": swap_addl_divergences,
    "campaign_seed7.json": campaign_records,
    "score_seed17.json": score_report,
}


def render(table) -> str:
    return json.dumps(table, indent=2) + "\n"


def main() -> int:
    check = "--check" in sys.argv[1:]
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    stale = []
    for filename, produce in TABLES.items():
        path = GOLDEN_DIR / filename
        text = render(produce())
        if check:
            if not path.exists() or path.read_text() != text:
                stale.append(path)
        else:
            path.write_text(text)
            print(f"wrote {path}")
    if stale:
        for path in stale:
            print(f"execution differs from golden table: {path}", file=sys.stderr)
        return 1
    if check:
        print(f"{len(TABLES)} golden execution tables match")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
