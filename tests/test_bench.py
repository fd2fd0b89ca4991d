"""Unit tests for the benchmark harness's regression gates (no timing)."""

from repro.perf.bench import (
    PRE_BATCHING_BASELINE,
    PRE_FORKSERVER_BASELINE,
    compare_reports,
)


def _report(rate: float) -> dict:
    return {"fuzz": {"batched": {"cases_per_second": rate}}}


def test_compare_within_tolerance_passes():
    assert compare_reports(_report(8.0), _report(10.0), tolerance=0.30) is None
    assert compare_reports(_report(25.0), _report(10.0), tolerance=0.30) is None


def test_compare_absolute_regression_fails():
    failure = compare_reports(_report(6.0), _report(10.0), tolerance=0.30)
    assert failure is not None and "regressed" in failure


def test_compare_tolerates_malformed_baseline():
    assert compare_reports(_report(6.0), {}, tolerance=0.30) is not None


def test_pre_batching_baseline_is_recorded():
    assert PRE_BATCHING_BASELINE["cases"] == 500
    assert PRE_BATCHING_BASELINE["cases_per_second"] > 0


def test_pre_forkserver_baseline_is_recorded():
    assert PRE_FORKSERVER_BASELINE["fuzz_cases_per_second"] > 0
    assert PRE_FORKSERVER_BASELINE["eval_candidates_per_second"] > 0


def _eval_report(rate: float, speedup: float = 3.0, backend: str = "x86") -> dict:
    report = _report(50.0)
    report["eval"] = {
        "candidates_per_second": rate,
        "speedup_vs_pre_forkserver": speedup,
        "backend": backend,
    }
    return report


def test_compare_eval_absolute_regression_fails():
    failure = compare_reports(
        _eval_report(30.0), _eval_report(100.0), tolerance=0.30
    )
    assert failure is not None and "eval scoring throughput regressed" in failure
    assert compare_reports(_eval_report(90.0), _eval_report(100.0), 0.30) is None


def test_compare_eval_forkserver_floor():
    """Even when absolute eval throughput beats the baseline, dropping
    under 2x the pre-fork-server baseline fails the acceptance floor."""
    failure = compare_reports(
        _eval_report(200.0, speedup=1.4), _eval_report(100.0), tolerance=0.30
    )
    assert failure is not None and "pre-fork-server" in failure
    # The floor is native-execution specific: the interpreter substrate
    # cannot exhibit it.
    assert (
        compare_reports(
            _eval_report(200.0, speedup=1.4, backend="none"),
            _eval_report(100.0),
            tolerance=0.30,
        )
        is None
    )


def test_compare_jobs_scaling_gate():
    current = _report(50.0)
    baseline = _report(10.0)
    failure = compare_reports(
        current, baseline, tolerance=0.30, require_jobs_scaling=True
    )
    assert failure is not None and "scaling curve" in failure
    current["fuzz"]["jobs_curve"] = [
        {"jobs": 1, "cases_per_second": 50.0, "speedup_vs_jobs1": 1.0},
        {"jobs": 4, "cases_per_second": 80.0, "speedup_vs_jobs1": 1.6},
    ]
    failure = compare_reports(
        current, baseline, tolerance=0.30, require_jobs_scaling=True
    )
    assert failure is not None and "multi-core" in failure
    current["fuzz"]["jobs_curve"][1] = {
        "jobs": 4,
        "cases_per_second": 150.0,
        "speedup_vs_jobs1": 3.0,
    }
    assert (
        compare_reports(current, baseline, tolerance=0.30, require_jobs_scaling=True)
        is None
    )
