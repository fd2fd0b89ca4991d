"""Native AArch64 IO-equivalence tests.

The mirror image of ``test_native_x86.py`` for the ARM backend: every
corpus function is compiled to AArch64 assembly at -O0 and -O3, built as a
static binary with the cross toolchain, executed under ``qemu-aarch64``
user-mode emulation (or directly on aarch64 hosts) and compared against the
interpreter's observable state.

Skipped cleanly when no AArch64 toolchain/emulator is available.
"""

import pytest

from corpus import CORPUS
from repro.testing.frontend import CaseContext
from repro.testing.native import (
    BatchCase,
    NativeBatch,
    have_arm_toolchain,
    values_equal,
)

pytestmark = pytest.mark.skipif(
    not have_arm_toolchain(),
    reason="requires an AArch64 toolchain (aarch64 host, or cross gcc + qemu-aarch64)",
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("native_arm")


def _run_case(source, name, inputs, opt, workdir):
    """(native, interpreter) observations for each input: the case runs
    alone in a one-case fork-server batch."""
    context = CaseContext(source, name)
    with NativeBatch(
        [BatchCase(source, name, list(inputs), context=context)],
        opt,
        workdir,
        isa="arm",
        tag=f"{name}_{opt}",
    ) as batch:
        for index in range(len(inputs)):
            status, actual = batch.outcome(0, index)
            assert status == "ok", f"{name}{inputs[index]} @ arm/{opt}: {status} {actual}"
            yield actual, context.interpreter().run_function(name, inputs[index])


def _check_entry(source, name, inputs, opt, workdir):
    for index, (actual, expected) in enumerate(
        _run_case(source, name, inputs, opt, workdir)
    ):
        if expected.return_value is not None:
            assert values_equal(actual.return_value, expected.return_value), (
                f"{name}{inputs[index]} @ arm/{opt}: native returned "
                f"{actual.return_value!r}, interpreter {expected.return_value!r}"
            )
        for j, value in enumerate(actual.arg_values):
            assert values_equal(value, expected.arg_values[j]), (
                f"{name}{inputs[index]} @ arm/{opt}: arg {j} native {value!r} "
                f"!= interpreter {expected.arg_values[j]!r}"
            )
        for gname, gvalue in actual.globals.items():
            assert values_equal(gvalue, expected.globals[gname]), (
                f"{name}{inputs[index]} @ arm/{opt}: global {gname} native "
                f"{gvalue!r} != interpreter {expected.globals[gname]!r}"
            )


@pytest.mark.parametrize("opt", ["O0", "O3"])
@pytest.mark.parametrize(
    "source,name,inputs", CORPUS, ids=[entry[1] for entry in CORPUS]
)
def test_arm_native_matches_interpreter(source, name, inputs, opt, workdir):
    _check_entry(source, name, inputs, opt, workdir)
