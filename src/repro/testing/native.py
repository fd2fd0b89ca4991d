"""Native build-and-execute harness for compiled Mini-C assembly.

This is the "run the ground truth for real" half of the paper's
IO-equivalence check.  :class:`NativeBatch` is the one native executor:
N cases are compiled into **one** translation unit per (ISA, opt level),
linked against a generic control loop and executed by a **fork server**:
one persistent process that reads (case, input) requests over a pipe and
``fork()``s per pair.  Each child inherits pristine globals through
copy-on-write, so trap isolation and state reset come for free — a
trapping pair kills only its child, and the server keeps answering
without any re-exec.  The control loop is generic C compiled **once per
process** into a cached object file; per batch only a tiny symbol-table
TU and the concatenated assembly are compiled, and the build runs
asynchronously so callers can overlap it with other work
(``ensure_built()`` joins it).  The ARM leg runs the same server
statically linked under one persistent ``qemu-aarch64`` process.  A
single case is simply a one-case batch.

The control loop calls every case through one universal trampoline that
passes up to 6 integer-class and 6 double arguments in registers.  A case
whose signature does not fit fails its batch with
:class:`UnsupportedSignature`, which names the case.

Batching shares one binary across cases, so per-case symbols are made
unique: the entry point and every global are renamed ``__caseN_<name>``
(whole-word textual rename — safe for generator-produced programs, whose
identifiers never collide with assembly keywords), and local labels get a
per-case prefix.

Argument buffers use the interpreter's packed memory layout (structs have
no padding), so they are encoded/decoded here as raw bytes rather than
declared as C aggregates.  Scalar parameters are passed as 64-bit
integers or doubles: the compiled code expects integer arguments sign- or
zero-extended to the full register.
"""

from __future__ import annotations

import atexit
import os
import platform
import re
import select
import shutil
import signal
import struct
import subprocess
import tempfile
import threading
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lang import ctypes as ct
from repro.testing.frontend import CaseContext


def have_native_toolchain() -> bool:
    """True when the host can assemble and run x86-64 code."""
    return (
        platform.machine() in ("x86_64", "AMD64")
        and shutil.which("as") is not None
        and shutil.which("gcc") is not None
    )


_toolchain_ids: Dict[str, str] = {}


def _toolchain_id(isa: str) -> str:
    """Compiler identity folded into artifact-cache keys (once per process).

    A compiler upgrade changes the emitted harness ABI/code, so cached
    binaries keyed under the old identity become unreachable rather than
    stale.  ``platform.machine()`` rides along because the same cache
    directory may be shared across differently-architected runners.
    """
    cached = _toolchain_ids.get(isa)
    if cached is not None:
        return cached
    if isa == "arm" and platform.machine() != "aarch64":
        cc = _arm_cross_compiler() or "missing-arm-cc"
    else:
        cc = "gcc"
    try:
        proc = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        )
        version = proc.stdout.splitlines()[0] if proc.stdout else cc
    except (OSError, subprocess.TimeoutExpired, IndexError):
        version = cc
    identity = f"{platform.machine()}:{cc}:{version}"
    _toolchain_ids[isa] = identity
    return identity

def _arm_cross_compiler() -> Optional[str]:
    for cc in ("aarch64-linux-gnu-gcc", "aarch64-unknown-linux-gnu-gcc"):
        if shutil.which(cc):
            return cc
    return None


def _arm_emulator() -> Optional[List[str]]:
    if platform.machine() == "aarch64":
        return []  # run directly on the host
    for emulator in ("qemu-aarch64", "qemu-aarch64-static"):
        if shutil.which(emulator):
            return [emulator]
    return None


def have_arm_toolchain() -> bool:
    """True when AArch64 output can be assembled and executed.

    Either the host itself is aarch64 with a GNU toolchain, or a cross
    compiler plus ``qemu-aarch64`` user-mode emulation is installed.
    """
    if platform.machine() == "aarch64":
        return shutil.which("gcc") is not None
    return _arm_cross_compiler() is not None and _arm_emulator() is not None


# ---------------------------------------------------------------------------
# Packed-byte encoding of Python argument values (mirrors the interpreter's
# marshalling in Interpreter._marshal_argument / read_typed / write_typed).
# ---------------------------------------------------------------------------


def _encode_scalar(value: Any, t: ct.CType) -> bytes:
    if isinstance(t, ct.FloatType):
        return struct.pack("<f" if t.sizeof() == 4 else "<d", float(value))
    size = t.sizeof()
    return (int(value) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")


def _decode_scalar(data: bytes, t: ct.CType) -> Any:
    if isinstance(t, ct.FloatType):
        return struct.unpack("<f" if t.sizeof() == 4 else "<d", data)[0]
    signed = not (isinstance(t, ct.IntType) and t.unsigned)
    if isinstance(t, (ct.PointerType, ct.ArrayType)):
        signed = False
    return int.from_bytes(data, "little", signed=signed)


@dataclass
class _Buffer:
    """A pointer argument's backing bytes and how to read it back."""

    data: bytearray
    elem: Optional[ct.CType] = None  # list arguments
    count: int = 0
    struct_type: Optional[ct.StructType] = None  # dict arguments
    as_string: bool = False


def _encode_argument(value: Any, ptype: ct.CType, resolve) -> Optional[_Buffer]:
    """Encode a Python pointer-argument into packed bytes (None for scalars)."""
    if isinstance(value, str) and isinstance(ptype, ct.PointerType):
        data = bytearray(len(value) + 16)
        raw = value.encode("latin-1", errors="replace")
        data[: len(raw)] = raw
        return _Buffer(data, elem=ct.CHAR, count=len(value) + 1, as_string=True)
    if isinstance(value, (list, tuple)) and isinstance(ptype, ct.PointerType):
        elem = resolve(ptype.pointee)
        if isinstance(elem, ct.VoidType):
            elem = ct.CHAR
        data = bytearray(max(1, len(value)) * elem.sizeof() + 16)
        for index, item in enumerate(value):
            encoded = _encode_scalar(item, elem)
            data[index * elem.sizeof() : index * elem.sizeof() + len(encoded)] = encoded
        return _Buffer(data, elem=elem, count=len(value))
    if isinstance(value, dict) and isinstance(ptype, ct.PointerType):
        struct_type = resolve(ptype.pointee)
        data = bytearray(max(struct_type.sizeof(), 8) + 8)
        for fname, fvalue in value.items():
            if struct_type.has_field(fname):
                ftype = resolve(struct_type.field_type(fname))
                encoded = _encode_scalar(fvalue, ftype)
                offset = struct_type.field_offset(fname)
                data[offset : offset + len(encoded)] = encoded
        return _Buffer(data, struct_type=struct_type)
    return None


def _decode_buffer(data: bytes, buf: _Buffer, resolve) -> Any:
    if buf.struct_type is not None:
        out: Dict[str, Any] = {}
        for fld in buf.struct_type.fields:
            ftype = resolve(fld.type)
            offset = buf.struct_type.field_offset(fld.name)
            out[fld.name] = _decode_scalar(
                data[offset : offset + ftype.sizeof()], ftype
            )
        return out
    elem = buf.elem or ct.CHAR
    values = [
        _decode_scalar(data[i * elem.sizeof() : (i + 1) * elem.sizeof()], elem)
        for i in range(buf.count)
    ]
    if buf.as_string:
        chars: List[str] = []
        for v in values:
            if v == 0:
                break
            chars.append(chr(int(v) & 0xFF))
        return "".join(chars)
    return values


def _decode_global(data: bytes, gtype: ct.CType) -> Any:
    if isinstance(gtype, ct.ArrayType):
        elem = gtype.element
        return [
            _decode_scalar(data[i * elem.sizeof() : (i + 1) * elem.sizeof()], elem)
            for i in range(gtype.length or 0)
        ]
    return _decode_scalar(data, gtype)


# ---------------------------------------------------------------------------
# C helpers shared with the sanitizer leg's harness (repro.analysis.sanitize)
# ---------------------------------------------------------------------------

_BITS_HELPER = """
static double bits_to_double(unsigned long long u) {
    union { unsigned long long u; double d; } cvt; cvt.u = u; return cvt.d;
}
"""


def _scalar_literal(value: Any, t: ct.CType) -> str:
    if isinstance(t, ct.FloatType):
        bits = struct.unpack("<Q", struct.pack("<d", float(value)))[0]
        return f"bits_to_double(0x{bits:016x}ULL)"
    wrapped = t.wrap(int(value)) if isinstance(t, ct.IntType) else int(value)
    return f"(long long)0x{wrapped & 0xFFFFFFFFFFFFFFFF:016x}ULL"


def _prototype(
    symbol: str, param_types: Sequence[ct.CType], return_type: ct.CType
) -> str:
    args = ", ".join(
        "double" if isinstance(t, ct.FloatType) else "long long" for t in param_types
    ) or "void"
    if ct.is_void(return_type):
        ret = "void"
    elif isinstance(return_type, ct.FloatType):
        ret = "double"
    else:
        ret = "long long"
    return f"extern {ret} {symbol}({args});"


def _assembly_globals(assembly: str) -> List[Tuple[str, int]]:
    """(name, size) for every global data symbol the assembly defines.

    Covers both zero-filled ``.comm`` symbols and initialised ``.data``
    objects (recognised by their ``.size name, N`` directive; function
    symbols use ``.size name, .-name`` and so never match).
    """
    found = [
        (name, int(size))
        for name, size in re.findall(r"^\t\.comm\t([A-Za-z_]\w*),(\d+)", assembly, re.M)
    ]
    found.extend(
        (name, int(size))
        for name, size in re.findall(
            r"^\t\.size\t([A-Za-z_]\w*), (\d+)$", assembly, re.M
        )
    )
    return found


def _build_command(
    isa: str, binary: Path, sources: Sequence[Path]
) -> Tuple[List[str], List[str]]:
    """(build command, execution prefix) for one linked harness binary."""
    if isa == "arm" and platform.machine() != "aarch64":
        cc = _arm_cross_compiler()
        assert cc is not None, "no AArch64 cross compiler available"
        build = [cc, "-static", "-o", str(binary), *map(str, sources)]
        return build, _arm_emulator() or []
    build = ["gcc", "-no-pie", "-o", str(binary), *map(str, sources)]
    return build, []


def toolchain_failure_detail(exc: Exception, workdir: Path, limit: int) -> str:
    """The tail of a failed build's stderr, free of run-specific paths.

    gcc names its intermediate objects randomly (``/tmp/ccXXXXXX.o``) and
    batch files live in a per-run working directory, so the raw text of
    one candidate's failure differs between runs; verdict details must not.
    """
    stderr = getattr(exc, "stderr", None) or b""
    if isinstance(stderr, bytes):
        stderr = stderr.decode("utf-8", "replace")
    text = (stderr or str(exc)).replace(str(workdir) + os.sep, "<workdir>/")
    text = re.sub(re.escape(tempfile.gettempdir()) + r"/[^\s:'\"`]+", "<tmp>", text)
    return text[-limit:]


@dataclass
class NativeResult:
    """Observable state of one native execution."""

    return_value: Any
    arg_values: List[Any]
    globals: Dict[str, Any]


# ---------------------------------------------------------------------------
# Batched execution
# ---------------------------------------------------------------------------


@dataclass
class BatchCase:
    """One case submitted to a :class:`NativeBatch`."""

    source: str
    name: str
    inputs: List[Tuple]
    context: Optional[CaseContext] = None
    #: Pre-compiled assembly (before renaming).  When None the batch
    #: compiles it from the context.
    assembly: Optional[str] = None


@dataclass
class _BatchEntry:
    """Internal per-case build products."""

    case: BatchCase
    context: CaseContext
    symbol: str  # mangled entry-point name
    globals: List[Tuple[str, int]] = field(default_factory=list)  # original names
    buffers: List[List[Optional[_Buffer]]] = field(default_factory=list)


class BatchExecutionError(Exception):
    """The batch binary failed outside any case (infrastructure problem)."""


def _mangle(index: int, name: str) -> str:
    return f"__case{index}_{name}"


def _rename_case_symbols(assembly: str, index: int, names: Sequence[str]) -> str:
    """Make one case's assembly link-safe inside a many-case TU.

    Local labels (``.L...``) get a per-case prefix; the entry point and the
    globals in ``names`` are renamed to their mangled form.  The rename is
    textual but whole-word, which is sound for generator-produced programs:
    their identifiers are fresh (``g4``, ``fuzz_target``) and never collide
    with mnemonics, registers or directives.
    """
    out = re.sub(r"\.L(?=[A-Za-z0-9_])", f".Lc{index}_", assembly)
    for name in names:
        out = re.sub(rf"\b{re.escape(name)}\b", _mangle(index, name), out)
    return out


# ---------------------------------------------------------------------------
# Fork-server harness
# ---------------------------------------------------------------------------

#: Shared struct layout between the precompiled control loop and the
#: generated per-batch symbol table.  Repeated verbatim in both TUs.
_FORK_TABLE_DEFS = """\
typedef struct { const char *name; unsigned char *addr; long size; } mc_global;
typedef struct {
    void (*fn)(void);
    int ret_kind;            /* 0 void, 1 integer, 2 double */
    int nglobals;
    const mc_global *globals;
} mc_case;
"""

#: The generic control loop.  Compiled once per (ISA) into a cached object
#: file; every batch links it against a generated ``mc_cases`` table.  The
#: parent never runs case code: it parses one request line, ``fork()``s,
#: and the child calls the case through a universal trampoline.  The two
#: trampoline shapes are sound because both SysV x86-64 and AAPCS64 assign
#: integer-class arguments to integer registers in order and floating
#: arguments to FP registers in order, independently — so a callee
#: expecting any mix of <=6 integer and <=6 double parameters finds each
#: of them exactly where the 12-argument prototype puts it.
_FORK_HARNESS_C = (
    """\
#include <errno.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

"""
    + _FORK_TABLE_DEFS
    + """\
extern const mc_case mc_cases[];

typedef long long (*mc_ifn)(long long, long long, long long, long long, long long,
                            long long, double, double, double, double, double, double);
typedef double (*mc_dfn)(long long, long long, long long, long long, long long,
                         long long, double, double, double, double, double, double);

static volatile sig_atomic_t mc_alarm_fired;
static void mc_on_alarm(int sig) { (void)sig; mc_alarm_fired = 1; }

static void mc_dump_hex(const unsigned char *p, long n) {
    if (n == 0) { printf("-\\n"); return; }
    for (long i = 0; i < n; i++) printf("%02x", p[i]);
    printf("\\n");
}

static int mc_hex_nibble(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
}

static char mc_line[1 << 20];

int main(int argc, char **argv) {
    long timeout_ms = argc > 1 ? atol(argv[1]) : 10000;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = mc_on_alarm; /* no SA_RESTART: waitpid must see EINTR */
    sigaction(SIGALRM, &sa, 0);

    while (fgets(mc_line, sizeof mc_line, stdin)) {
        char *tok = strtok(mc_line, " \\n");
        if (!tok || strcmp(tok, "R") != 0) continue;
        tok = strtok(NULL, " \\n");
        int case_index = tok ? atoi(tok) : 0;
        tok = strtok(NULL, " \\n");
        int nargs = tok ? atoi(tok) : 0;
        const mc_case *c = &mc_cases[case_index];
        long long ia[6] = {0};
        double da[6] = {0};
        int argkind[12] = {0};
        unsigned char *argbuf[12] = {0};
        long arglen[12] = {0};
        int ni = 0, nd = 0, bad = (nargs < 0 || nargs > 12);
        for (int j = 0; !bad && j < nargs; j++) {
            tok = strtok(NULL, " \\n");
            if (!tok) { bad = 1; break; }
            if (tok[0] == 'i' && ni < 6) {
                ia[ni++] = (long long)strtoull(tok + 1, 0, 16);
            } else if (tok[0] == 'd' && nd < 6) {
                union { unsigned long long u; double d; } cvt;
                cvt.u = strtoull(tok + 1, 0, 16);
                da[nd++] = cvt.d;
            } else if (tok[0] == 'b' && ni < 6) {
                long n = (long)strlen(tok + 1) / 2;
                unsigned char *p = malloc(n ? n : 1);
                for (long k = 0; k < n; k++) {
                    int hi = mc_hex_nibble(tok[1 + 2 * k]);
                    int lo = mc_hex_nibble(tok[2 + 2 * k]);
                    if (hi < 0 || lo < 0) { bad = 1; break; }
                    p[k] = (unsigned char)((hi << 4) | lo);
                }
                argkind[j] = 1;
                argbuf[j] = p;
                arglen[j] = n;
                ia[ni++] = (long long)p;
            } else {
                bad = 1;
            }
        }
        if (bad) {
            for (int j = 0; j < nargs && j < 12; j++) free(argbuf[j]);
            printf("\\nDONE bad-request\\n");
            fflush(stdout);
            continue;
        }
        /* The child inherits the stdout buffer: make sure it is empty so a
           fork never duplicates parent output. */
        fflush(stdout);
        pid_t pid = fork();
        if (pid < 0) { printf("\\nDONE fork-failed\\n"); fflush(stdout); continue; }
        if (pid == 0) {
            if (c->ret_kind == 2) {
                double r = ((mc_dfn)c->fn)(ia[0], ia[1], ia[2], ia[3], ia[4], ia[5],
                                           da[0], da[1], da[2], da[3], da[4], da[5]);
                printf("RETF %.17g\\n", r);
            } else if (c->ret_kind == 1) {
                long long r = ((mc_ifn)c->fn)(ia[0], ia[1], ia[2], ia[3], ia[4], ia[5],
                                              da[0], da[1], da[2], da[3], da[4], da[5]);
                printf("RET %lld\\n", r);
            } else {
                ((mc_ifn)c->fn)(ia[0], ia[1], ia[2], ia[3], ia[4], ia[5],
                                da[0], da[1], da[2], da[3], da[4], da[5]);
            }
            for (int j = 0; j < nargs; j++)
                if (argkind[j]) { printf("ARG%d ", j); mc_dump_hex(argbuf[j], arglen[j]); }
            for (int g = 0; g < c->nglobals; g++) {
                printf("GLB:%s ", c->globals[g].name);
                mc_dump_hex(c->globals[g].addr, c->globals[g].size);
            }
            fflush(stdout);
            _exit(0);
        }
        mc_alarm_fired = 0;
        struct itimerval itv;
        memset(&itv, 0, sizeof itv);
        itv.it_value.tv_sec = timeout_ms / 1000;
        itv.it_value.tv_usec = (timeout_ms % 1000) * 1000;
        setitimer(ITIMER_REAL, &itv, 0);
        int status = 0, timed_out = 0;
        for (;;) {
            pid_t r = waitpid(pid, &status, 0);
            if (r == pid) break;
            if (r < 0 && errno == EINTR) {
                if (mc_alarm_fired) { mc_alarm_fired = 0; timed_out = 1; kill(pid, SIGKILL); }
                continue;
            }
            if (r < 0) { status = 0; break; }
        }
        memset(&itv, 0, sizeof itv);
        setitimer(ITIMER_REAL, &itv, 0);
        for (int j = 0; j < nargs; j++)
            if (argkind[j]) free(argbuf[j]);
        /* The leading newline terminates any partial line a killed child
           left behind, so DONE always starts a fresh line. */
        if (timed_out)
            printf("\\nDONE timeout\\n");
        else if (WIFSIGNALED(status))
            printf("\\nDONE %d\\n", -WTERMSIG(status));
        else
            printf("\\nDONE %d\\n", WEXITSTATUS(status));
        fflush(stdout);
    }
    return 0;
}
"""
)

_harness_objects: Dict[str, Path] = {}
_harness_dir: Optional[Path] = None


def _forkserver_harness_object(isa: str) -> Path:
    """The control loop compiled for ``isa``, cached per process."""
    global _harness_dir
    cached = _harness_objects.get(isa)
    if cached is not None:
        return cached
    if _harness_dir is None:
        _harness_dir = Path(tempfile.mkdtemp(prefix="mc_forkserver_"))
        atexit.register(shutil.rmtree, _harness_dir, ignore_errors=True)
    source = _harness_dir / f"forkserver_{isa}.c"
    source.write_text(_FORK_HARNESS_C)
    obj = _harness_dir / f"forkserver_{isa}.o"
    if isa == "arm" and platform.machine() != "aarch64":
        cc = _arm_cross_compiler()
        assert cc is not None, "no AArch64 cross compiler available"
    else:
        cc = "gcc"
    subprocess.run(
        [cc, "-O2", "-c", "-o", str(obj), str(source)],
        check=True,
        capture_output=True,
        timeout=120,
    )
    _harness_objects[isa] = obj
    return obj


def _forkserver_ret_kind(return_type: ct.CType) -> int:
    if ct.is_void(return_type):
        return 0
    if isinstance(return_type, ct.FloatType):
        return 2
    return 1


class UnsupportedSignature(BatchExecutionError):
    """A case's parameter list does not fit the universal trampoline."""


def _unsupported_signature(
    name: str, param_types: Sequence[ct.CType]
) -> Optional[UnsupportedSignature]:
    """The error for a signature the trampoline cannot call, else None.

    The trampoline passes up to 6 integer-class and 6 double arguments —
    register-only on both ABIs, matching the backends, and comfortably
    above the generator's 5-parameter ceiling.
    """
    ints = sum(1 for t in param_types if not isinstance(t, ct.FloatType))
    floats = len(param_types) - ints
    if ints <= 6 and floats <= 6:
        return None
    return UnsupportedSignature(
        f"unsupported signature ({name}: {ints} integer and {floats} double "
        "parameters; the harness passes at most 6 of each)"
    )


def _request_token(value: Any, ptype: ct.CType, buf: Optional[_Buffer]) -> str:
    """One request-line token, mirroring ``_scalar_literal``'s encoding."""
    if buf is not None:
        return "b" + bytes(buf.data).hex()
    if isinstance(ptype, ct.FloatType):
        bits = struct.unpack("<Q", struct.pack("<d", float(value)))[0]
        return f"d{bits:016x}"
    wrapped = ptype.wrap(int(value)) if isinstance(ptype, ct.IntType) else int(value)
    return f"i{wrapped & 0xFFFFFFFFFFFFFFFF:016x}"


#: Every live fork server, so abnormal interpreter exits (unhandled
#: exception, KeyboardInterrupt unwinding past the batch) still reap the
#: server process groups instead of leaking them — previously only the
#: harness *directory* had an atexit hook, never the live children.
_live_servers: "weakref.WeakSet[_ForkServer]" = weakref.WeakSet()


def _kill_live_servers() -> None:
    for server in list(_live_servers):
        server.kill()


atexit.register(_kill_live_servers)


class _ForkServer:
    """One persistent harness process and its line-oriented pipe protocol.

    The process runs in its own session (= its own process group), so
    :meth:`kill` can take down the server *and* any in-flight forked child
    (or the qemu-emulated ARM server's children) with one ``killpg`` —
    a plain ``proc.kill()`` would orphan them.
    """

    def __init__(self, command: Sequence[str]) -> None:
        self.proc = subprocess.Popen(
            list(command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            bufsize=0,
            start_new_session=True,
        )
        self._buffer = b""
        self._reaped = False
        _live_servers.add(self)

    def send(self, line: str) -> bool:
        try:
            assert self.proc.stdin is not None
            self.proc.stdin.write(line.encode("ascii"))
            self.proc.stdin.flush()
            return True
        except (BrokenPipeError, OSError):
            return False

    def read_line(self, deadline: float) -> Optional[str]:
        """Next output line, or None on EOF/deadline (server considered dead)."""
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = self._buffer[:newline]
                self._buffer = self._buffer[newline + 1 :]
                return line.decode("utf-8", "replace")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self._buffer += chunk

    def kill(self) -> None:
        """SIGKILL the whole server process group and reap the leader.

        The group kill runs even when the server already exited: a child
        forked for the in-flight pair lives in the same group and must not
        survive its parent.  A vanished group is not an error.  After one
        successful group kill + reap the method is a no-op — the pid (and
        therefore the pgid) may be recycled by then.
        """
        if self._reaped:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError, OSError):
            try:
                self.proc.kill()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=5)
            self._reaped = True
        except (OSError, subprocess.TimeoutExpired):
            pass

    def close(self) -> None:
        try:
            if self.proc.stdin is not None:
                self.proc.stdin.close()
            self.proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            self.kill()

    def __del__(self) -> None:
        try:
            self.kill()
        except Exception:
            pass


class NativeBatch:
    """Many cases, one binary per (ISA, opt level), one fork server per leg.

    The binary is the generic control loop linked against a generated
    symbol table: the parent process reads (case, input) requests over
    stdin, forks, and each child calls its case through the universal
    trampoline and dumps the observable state.  Children inherit pristine
    globals by copy-on-write, so no snapshot or restore is needed, and a
    trap costs one dead child instead of a process relaunch.  Builds run
    asynchronously — ``ensure_built()`` joins the compile, and
    ``outcome()`` calls it implicitly.  A case whose signature the
    trampoline cannot call makes both raise :class:`UnsupportedSignature`
    without building anything.
    """

    def __init__(
        self,
        cases: Sequence[BatchCase],
        opt_level: str,
        workdir: Path,
        isa: str = "x86",
        asm_transform: Optional[Callable[[str], str]] = None,
        run_timeout: float = 10.0,
        tag: str = "batch",
        cache=None,
    ) -> None:
        self.opt_level = opt_level
        self.isa = isa
        self.run_timeout = run_timeout
        self.entries: List[_BatchEntry] = []
        self._pairs: List[Tuple[int, int]] = []  # flat -> (case, input)
        self._outcomes: Optional[Dict[Tuple[int, int], Tuple[str, Any]]] = None
        self._failure: Optional[Exception] = None
        self._requests: List[str] = []
        self._build_proc: Optional[subprocess.Popen] = None
        self._build_error: Optional[Exception] = None
        self._build_cmd: List[str] = []
        self._cache = cache
        self._cache_key: Optional[str] = None
        # Lifecycle state: close() may race an executing thread, so the
        # live server handle is swapped under a lock.
        self._server: Optional[_ForkServer] = None
        self._closed = False
        self._lifecycle_lock = threading.Lock()

        asm_parts: List[str] = []
        for index, case in enumerate(cases):
            context = case.context if case.context is not None else CaseContext(
                case.source, case.name
            )
            unsupported = _unsupported_signature(case.name, context.param_types())
            if unsupported is not None:
                self._build_error = unsupported
                return
            assembly = (
                case.assembly
                if case.assembly is not None
                else context.assembly(isa, opt_level)
            )
            if asm_transform is not None:
                assembly = asm_transform(assembly)
            entry = _BatchEntry(case, context, _mangle(index, case.name))
            entry.globals = _assembly_globals(assembly)
            asm_parts.append(
                _rename_case_symbols(
                    assembly, index, [case.name] + [g for g, _ in entry.globals]
                )
            )
            self.entries.append(entry)
            for input_index in range(len(case.inputs)):
                self._pairs.append((index, input_index))

        asm_text = "\n".join(asm_parts)
        self.binary = workdir / f"{tag}_{isa}_{opt_level}"
        # The generated table also encodes the request lines and argument
        # buffers execution needs, and its text is part of the cache key.
        generated = self._generate_table()
        if cache is not None:
            self._cache_key = cache.key(
                "binary",
                isa,
                _toolchain_id(isa),
                asm_text,
                generated,
            )
            if cache.get_file("binary", self._cache_key, self.binary):
                self._cache_key = None  # satisfied: nothing to store later
                if isa == "arm" and platform.machine() != "aarch64":
                    self._exec_prefix = _arm_emulator() or []
                else:
                    self._exec_prefix = []
                return
        asm_path = workdir / f"{tag}_{isa}_{opt_level}.s"
        asm_path.write_text(asm_text)
        table_path = workdir / f"{tag}_{isa}_{opt_level}_table.c"
        table_path.write_text(generated)
        sources = [_forkserver_harness_object(isa), table_path, asm_path]
        build, self._exec_prefix = _build_command(isa, self.binary, sources)
        self._build_cmd = build
        self._build_proc = subprocess.Popen(
            build, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )

    def ensure_built(self) -> None:
        """Join the asynchronous build, raising on compiler failure."""
        if self._build_error is not None:
            raise self._build_error
        if self._build_proc is None:
            return
        proc = self._build_proc
        self._build_proc = None
        try:
            stdout, stderr = proc.communicate(
                timeout=batch_build_timeout(self.run_timeout, len(self._pairs))
            )
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
            self._build_error = subprocess.CalledProcessError(
                -9, self._build_cmd, stdout, stderr
            )
            raise self._build_error
        if proc.returncode != 0:
            self._build_error = subprocess.CalledProcessError(
                proc.returncode, self._build_cmd, stdout, stderr
            )
            raise self._build_error
        if self._cache is not None and self._cache_key is not None:
            self._cache.put_file("binary", self._cache_key, self.binary)
            self._cache_key = None

    def abandon(self) -> None:
        """Reap a still-running build whose results will never be used."""
        if self._build_proc is not None:
            self._build_proc.kill()
            self._build_proc.communicate()
            self._build_proc = None
            self._build_error = BatchExecutionError("batch abandoned")

    def close(self) -> None:
        """Release every live child process owned by this batch.

        Kills the in-flight fork server's process group (server plus any
        forked child) and reaps a still-running asynchronous build.  After
        closing, :meth:`outcome` raises :class:`BatchExecutionError` —
        results already drained remain readable by whoever holds them.
        Idempotent, and safe to call from a thread other than the one
        executing the batch (the service's shutdown path does exactly
        that).
        """
        with self._lifecycle_lock:
            self._closed = True
            server, self._server = self._server, None
        if server is not None:
            server.kill()
        self.abandon()

    def __enter__(self) -> "NativeBatch":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:
        # Backstop for abnormal unwinds that skip the context manager; the
        # getattr guards cover objects whose __init__ itself failed.
        if getattr(self, "_lifecycle_lock", None) is None:
            return
        try:
            self.close()
        except Exception:
            pass

    # -- C generation --------------------------------------------------------

    def _generate_table(self) -> str:
        """The per-batch symbol table TU linked against the control loop.

        Also encodes every (case, input) pair into its request line and
        records the argument buffers its observations decode against.
        """
        lines = [_FORK_TABLE_DEFS]
        for index, entry in enumerate(self.entries):
            lines.append(f"extern void {entry.symbol}(void);")
            for gname, _ in entry.globals:
                lines.append(f"extern unsigned char {_mangle(index, gname)}[];")
            if entry.globals:
                rows = ", ".join(
                    f'{{ "{gname}", {_mangle(index, gname)}, {gsize} }}'
                    for gname, gsize in entry.globals
                )
                lines.append(
                    f"static const mc_global mc_globals_{index}[] = {{ {rows} }};"
                )
        lines.append("const mc_case mc_cases[] = {")
        for index, entry in enumerate(self.entries):
            ret_kind = _forkserver_ret_kind(entry.context.return_type())
            globals_ref = f"mc_globals_{index}" if entry.globals else "0"
            lines.append(
                f"    {{ {entry.symbol}, {ret_kind}, {len(entry.globals)}, {globals_ref} }},"
            )
        lines.append("};")
        lines.append(f"const int mc_case_count = {len(self.entries)};")

        # Requests are emitted in flat-pair order: cases in batch order,
        # each case's input vectors in order — exactly ``self._pairs``.
        self._requests = []
        for case_index, entry in enumerate(self.entries):
            param_types = entry.context.param_types()
            entry.buffers = []
            for args in entry.case.inputs:
                buffers: List[Optional[_Buffer]] = []
                tokens: List[str] = []
                for value, ptype in zip(args, param_types):
                    buf = _encode_argument(value, ptype, entry.context.resolve)
                    buffers.append(buf)
                    tokens.append(_request_token(value, ptype, buf))
                entry.buffers.append(buffers)
                self._requests.append(
                    " ".join(["R", str(case_index), str(len(tokens)), *tokens]) + "\n"
                )
        return "\n".join(lines) + "\n"

    # -- execution -----------------------------------------------------------

    #: Wall-clock allowance per (case, input) pair on top of ``run_timeout``
    #: in a batch's execution budget (see :func:`batch_build_timeout`).  A
    #: healthy pair runs in microseconds; this funds hundreds of pairs or
    #: slow qemu-emulated legs.
    PER_PAIR_ALLOWANCE = 0.1

    #: Restarts tolerated per pair before the batch is declared broken.
    MAX_PAIR_RETRIES = 2

    def _execute(self) -> None:
        if self._failure is not None:
            raise self._failure
        if self._outcomes is not None:
            return
        if self._closed:
            raise BatchExecutionError("batch closed")
        try:
            self.ensure_built()
        except Exception as exc:
            self._failure = exc
            raise
        self._execute_forkserver()

    def _spawn_server(self, command: Sequence[str]) -> _ForkServer:
        """Start a fork server registered for close(); raises once closed."""
        with self._lifecycle_lock:
            if self._closed:
                raise BatchExecutionError("batch closed")
            server = _ForkServer(command)
            self._server = server
            return server

    def _drop_server(self) -> Optional[_ForkServer]:
        with self._lifecycle_lock:
            server, self._server = self._server, None
            return server

    def _execute_forkserver(self) -> None:
        self._outcomes = {}
        command = self._exec_prefix + [
            str(self.binary),
            str(int(self.run_timeout * 1000)),
        ]
        try:
            flat = 0
            retries = 0
            total = len(self._pairs)
            while flat < total:
                server = self._server
                if server is None:
                    server = self._spawn_server(command)
                code, record = self._request_pair(server, flat)
                if code is None:
                    # Server died or hung: restart and retry this pair —
                    # unless close() is what killed it.
                    self._drop_server()
                    server.kill()
                    if self._closed:
                        self._outcomes = None
                        self._failure = BatchExecutionError("batch closed")
                        raise self._failure
                    retries += 1
                    if retries > self.MAX_PAIR_RETRIES:
                        # A pair that kills the server on every attempt
                        # (e.g. a crash before the response line is
                        # flushed) is charged to *that pair* as a limit
                        # outcome; the rest of the batch proceeds on a
                        # fresh server instead of restarting forever or
                        # failing the whole batch.
                        self._outcomes[self._pairs[flat]] = (
                            "limit",
                            f"fork server died {retries} times on this pair",
                        )
                        flat += 1
                        retries = 0
                    continue
                if code == "0":
                    self._decode_pair(flat, record)
                elif code == "timeout":
                    self._outcomes[self._pairs[flat]] = ("limit", "execution timeout")
                else:
                    try:
                        status = int(code)
                    except ValueError:
                        self._outcomes = None
                        self._failure = BatchExecutionError(
                            f"fork server rejected pair {flat}: {code}"
                        )
                        raise self._failure
                    self._outcomes[self._pairs[flat]] = (
                        "trap",
                        f"exit status {status}",
                    )
                flat += 1
                retries = 0
        finally:
            leftover = self._drop_server()
            if leftover is not None:
                leftover.close()

    def _request_pair(
        self, server: _ForkServer, flat: int
    ) -> Tuple[Optional[str], List[str]]:
        """Run one pair on the server: (DONE code, record lines).

        A ``None`` code means the server is unusable (EOF, broken pipe, or
        no response before the deadline) and the caller should restart it.
        """
        if not server.send(self._requests[flat]):
            return None, []
        # The server enforces the per-pair timeout itself; the deadline
        # here only guards against the server process itself wedging.
        deadline = time.monotonic() + self.run_timeout + 30.0
        record: List[str] = []
        while True:
            line = server.read_line(deadline)
            if line is None:
                return None, []
            if not line:
                continue
            if line.startswith("DONE "):
                return line[5:], record
            record.append(line)

    def _decode_pair(self, flat: int, record: List[str]) -> None:
        case_index, input_index = self._pairs[flat]
        entry = self.entries[case_index]
        return_type = entry.context.return_type()
        return_value: Any = None
        arg_values: List[Any] = list(entry.case.inputs[input_index])
        global_values: Dict[str, Any] = {}
        for line in record:
            tag, _, payload = line.partition(" ")
            if tag == "RET":
                raw = int(payload)
                if isinstance(return_type, ct.IntType):
                    raw = return_type.wrap(raw)
                return_value = raw
            elif tag == "RETF":
                return_value = float(payload)
            elif tag.startswith("ARG"):
                j = int(tag[3:])
                buf = entry.buffers[input_index][j]
                data = b"" if payload == "-" else bytes.fromhex(payload)
                if buf is not None:
                    arg_values[j] = _decode_buffer(data, buf, entry.context.resolve)
            elif tag.startswith("GLB:"):
                gname = tag[4:]
                data = b"" if payload == "-" else bytes.fromhex(payload)
                global_values[gname] = _decode_global(
                    data, entry.context.global_type(gname)
                )
        assert self._outcomes is not None
        self._outcomes[(case_index, input_index)] = (
            "ok",
            NativeResult(return_value, arg_values, global_values),
        )

    def outcome(self, case_index: int, input_index: int) -> Tuple[str, Any]:
        """("ok", NativeResult) | ("trap", detail) | ("limit", detail)."""
        self._execute()
        assert self._outcomes is not None
        return self._outcomes[(case_index, input_index)]


def batch_build_timeout(run_timeout: float, pairs: int) -> float:
    """Deadline for joining one batch's asynchronous toolchain build.

    300s is generous for any healthy compile+link, but a batch whose
    *execution* budget (``run_timeout`` for one runaway pair plus the
    per-pair allowance for the rest) legitimately exceeds it must not have
    its build capped below that budget — a slow-but-healthy large batch
    would be killed mid-build and misattributed as a toolchain failure.
    """
    return max(300.0, run_timeout + NativeBatch.PER_PAIR_ALLOWANCE * pairs)


#: Cap on cases per cross-unit native build in :class:`GroupedBatchRunner`.
#: Units are never split across groups, so a group build/run failure can
#: fall back to exactly the per-unit execution path.
DEFAULT_GROUP_CASES = 32


class GroupedBatchRunner:
    """Cross-unit :class:`NativeBatch` groups with build/execute overlap.

    A *unit* is a list of :class:`BatchCase` objects that must stay
    together (the eval scorer's unit is one function's gate survivors; the
    repair search's unit is one target's neighbor chunk).  Units are packed
    greedily into shared batches of up to ``group_cases`` cases, so the
    toolchain runs once per group instead of once per unit, and the next
    group's build is launched before the current group is drained
    (constructing a :class:`NativeBatch` starts its build asynchronously).

    :meth:`run` yields ``(unit_index, outcomes)`` in unit order, where
    ``outcomes[case][input]`` is the raw ``NativeBatch.outcome`` tuple —
    or ``None`` for every unit of a group whose build or drain failed, in
    which case the caller re-executes those units in one-case batches, so
    the failure is attributed to the case that caused it.
    Units with no cases are skipped entirely.
    """

    def __init__(
        self,
        opt_level: str,
        workdir: Path,
        isa: str = "x86",
        group_cases: int = DEFAULT_GROUP_CASES,
        tag_prefix: str = "evalg",
        run_timeout: float = 10.0,
        cache=None,
    ) -> None:
        self.opt_level = opt_level
        self.workdir = workdir
        self.isa = isa
        self.group_cases = group_cases
        self.tag_prefix = tag_prefix
        self.run_timeout = run_timeout
        self.cache = cache
        self._current: Optional[NativeBatch] = None
        self._next: Optional[NativeBatch] = None

    def _pack(self, units: Sequence[Sequence[BatchCase]]) -> List[List[int]]:
        """Whole units, packed greedily up to the group cap (a unit larger
        than the cap gets a group of its own)."""
        groups: List[List[int]] = []
        current: List[int] = []
        current_size = 0
        for index, unit in enumerate(units):
            if not unit:
                continue
            if current and current_size + len(unit) > self.group_cases:
                groups.append(current)
                current, current_size = [], 0
            current.append(index)
            current_size += len(unit)
        if current:
            groups.append(current)
        return groups

    def _make_batch(
        self, units: Sequence[Sequence[BatchCase]], groups: List[List[int]],
        group_index: int,
    ) -> Optional[NativeBatch]:
        cases = [case for index in groups[group_index] for case in units[index]]
        try:
            return NativeBatch(
                cases,
                self.opt_level,
                self.workdir,
                isa=self.isa,
                run_timeout=self.run_timeout,
                tag=f"{self.tag_prefix}{group_index}",
                cache=self.cache,
            )
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError):
            return None

    def close(self) -> None:
        """Kill/reap the current group's server and the lookahead build.

        Called from the generator's ``finally`` (so an interrupted consumer
        leaks nothing) and usable directly — the runner is a context
        manager for callers that keep one alive across requests.
        """
        for batch in (self._current, self._next):
            if batch is not None:
                batch.close()
        self._current = self._next = None

    def __enter__(self) -> "GroupedBatchRunner":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def run(
        self, units: Sequence[Sequence[BatchCase]]
    ) -> Iterator[Tuple[int, Optional[List[List[Tuple[str, Any]]]]]]:
        groups = self._pack(units)
        # One group of lookahead: group N+1 compiles while N executes.
        # Both live batches are tracked on the runner so that close() — or
        # this generator's own finally, which runs on GeneratorExit when
        # the consumer breaks out or an interrupt unwinds it — kills their
        # fork servers and reaps their builds instead of leaking them.
        self._next = self._make_batch(units, groups, 0) if groups else None
        try:
            for group_index, unit_indices in enumerate(groups):
                self._current, self._next = self._next, (
                    self._make_batch(units, groups, group_index + 1)
                    if group_index + 1 < len(groups)
                    else None
                )
                batch = self._current
                results: Dict[int, List[List[Tuple[str, Any]]]] = {}
                failed = batch is None
                if batch is not None:
                    try:
                        cursor = 0
                        for unit_index in unit_indices:
                            per_case: List[List[Tuple[str, Any]]] = []
                            for case in units[unit_index]:
                                per_case.append(
                                    [
                                        batch.outcome(cursor, input_index)
                                        for input_index in range(len(case.inputs))
                                    ]
                                )
                                cursor += 1
                            results[unit_index] = per_case
                    except (
                        subprocess.CalledProcessError,
                        subprocess.TimeoutExpired,
                        BatchExecutionError,
                        OSError,
                    ):
                        failed = True
                for unit_index in unit_indices:
                    yield unit_index, (None if failed else results[unit_index])
                if batch is not None:
                    batch.close()
                self._current = None
        finally:
            self.close()


def values_equal(left: Any, right: Any) -> bool:
    """Structural equality with float tolerance (re-exported convenience)."""
    from repro.testing.oracle import values_equal as impl

    return impl(left, right)


__all__ = [
    "BatchCase",
    "BatchExecutionError",
    "DEFAULT_GROUP_CASES",
    "GroupedBatchRunner",
    "NativeBatch",
    "NativeResult",
    "UnsupportedSignature",
    "batch_build_timeout",
    "have_arm_toolchain",
    "have_native_toolchain",
    "values_equal",
]
