"""Build, cache and call the compiled routing loop (``_route.c``).

The loop is a small C file compiled on first use with the host's ``cc``
and loaded through :mod:`ctypes` — stdlib only, no build step at install
time.  Everything here degrades instead of raising: with no compiler, a
failed build or an unloadable library, :func:`router` returns ``None``
and :func:`route` declines, so the route kernel runs its Python loop,
which routes identically.

Build cache
    The shared library lives at
    ``coverage_cache_dir()/native/route-<key>.so``, where ``<key>`` is the
    SHA-256 of the C source, the compiler flags, the compiler path and the
    platform.  A build writes a temporary file in that directory and
    ``os.replace``-s it into place, so concurrent pool workers never load a
    torn file.  A cached file is loaded only if it is owned by the current
    user and is neither group- nor world-writable; otherwise it is left
    alone and the library is built privately.  A cached file that fails to
    load (zero bytes, garbage) is removed and rebuilt once.
    ``MIRAGE_CACHE_DISABLE=1`` builds into a per-process temporary
    directory that is removed once the library is loaded.

One call per run
    :func:`route` hands one whole routing run to ``mirage_route``: the
    ``IntDAG``'s kinds, qubits, gate ids and CSR successors, the
    ``NeighborTable``'s distances and edges (contiguous copies memoised per
    object in a module-level map keyed by ``id`` and cleared by a
    weak-reference callback, so pickled tables and DAGs never carry them),
    the run's parameters, the MIRAGE mirror costs, and the trial
    generator's ``bitgen_t``.  It returns the final layout, the counts and
    the event stream.

Random stream
    The C loop draws its tie-breaks from the caller's generator through
    numpy's own ``next_uint32``, with numpy's bounded-integer algorithm, so
    the stream is consumed exactly as ``rng.integers`` would consume it.
    The generator's lock is held across the call.  Once per process and
    bit-generator type, :func:`draw_matches` compares the C draw with
    ``Generator.integers`` on throwaway generators; a type that disagrees,
    or cannot be built from a seed, is routed by the Python loop.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
import threading
import weakref
from pathlib import Path

import numpy as np

from repro.exceptions import TranspilerError
from repro.polytopes.cache import coverage_cache_dir, coverage_cache_enabled

SOURCE = Path(__file__).with_name("_route.c")
#: Fixed flags: no ``-ffast-math``, no ``-march``, no fused multiply-add,
#: so the compiled float expressions round exactly like the Python ones.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
BUILD_TIMEOUT_S = 60.0

_int32 = ctypes.c_int32
_int64 = ctypes.c_int64
_double = ctypes.c_double
_ptr = ctypes.c_void_p


class _Problem(ctypes.Structure):
    """``route_problem`` of ``_route.c``: one routing run's inputs."""

    _fields_ = [
        ("num_nodes", _int32), ("num_virtual", _int32),
        ("kind", _ptr), ("qubit0", _ptr), ("qubit1", _ptr), ("gate_ids", _ptr),
        ("succ_indptr", _ptr), ("succ_ids", _ptr), ("indegree", _ptr),
        ("num_qubits", _int32), ("dist", _ptr),
        ("num_edges", _int32), ("edges_a", _ptr), ("edges_b", _ptr),
        ("extended_set_size", _int32), ("extended_set_weight", _double),
        ("decay_delta", _double), ("decay_reset_interval", _int64),
        ("stall_limit", _int64),
        ("aggression", _int32), ("decomposition_weight", _double),
        ("cost", _ptr), ("mirror_cost", _ptr),
        ("rng", _ptr),
    ]


class _Result(ctypes.Structure):
    """``route_result`` of ``_route.c``."""

    _fields_ = [
        ("events", ctypes.POINTER(_int32)), ("num_events", _int64),
        ("swaps", _int64), ("candidates", _int64), ("mirrors", _int64),
    ]


#: ``mirage_route`` status codes (``_route.c``) and what each one raises.
_STATUS_ERRORS = {
    1: (TranspilerError, "router requires gates with at most two qubits"),
    2: (TranspilerError, "router failed to make progress"),
    3: (TranspilerError, "no SWAP candidates: the coupling graph is likely disconnected"),
    4: (MemoryError, "routing loop could not allocate its buffers"),
}


class Library:
    """The loaded routing library: ``mirage_route``, ``mirage_draws``, and
    the C library's ``free`` for the event buffers ``mirage_route`` returns
    (looked up through the library, so it pairs with its ``malloc``)."""

    __slots__ = ("route", "draws", "free")

    def __init__(self, handle: ctypes.CDLL) -> None:
        self.route = handle.mirage_route
        self.route.argtypes = (ctypes.POINTER(_Problem), _ptr, ctypes.POINTER(_Result))
        self.route.restype = ctypes.c_int
        self.draws = handle.mirage_draws
        self.draws.argtypes = (_ptr, _ptr, _int32, _ptr)
        self.draws.restype = None
        self.free = handle.free
        self.free.argtypes = (ctypes.POINTER(_int32),)
        self.free.restype = None


def cache_key(compiler: str) -> str:
    """Hex digest naming one build: source, flags, compiler and platform."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    for part in (*FLAGS, compiler, platform.system(), platform.machine()):
        digest.update(b"\0" + part.encode())
    return digest.hexdigest()


def _trusted(path: Path) -> bool:
    """Whether ``path`` is ours to load: a regular file owned by us and
    writable by no one else (a symlink is never followed)."""
    info = os.stat(path, follow_symlinks=False)
    return (
        stat.S_ISREG(info.st_mode)
        and info.st_uid == os.getuid()
        and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    )


def _compile(compiler: str, directory: Path) -> Path | None:
    """Compile the library into a new temporary file in ``directory``."""
    handle, name = tempfile.mkstemp(dir=directory, prefix="tmp-route-", suffix=".so")
    os.close(handle)
    try:
        done = subprocess.run(
            [compiler, *FLAGS, "-o", name, str(SOURCE)],
            stdin=subprocess.DEVNULL, capture_output=True, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError):
        done = None
    if done is None or done.returncode != 0:
        os.unlink(name)
        return None
    os.chmod(name, 0o755)  # the linker's mode follows the umask
    return Path(name)


def _open(path: Path) -> Library:
    """The routing library at ``path`` (raises ``OSError``)."""
    try:
        return Library(ctypes.CDLL(str(path)))
    except AttributeError as exc:  # loads, but is not our library
        raise OSError(f"{path} has no routing symbols") from exc


def _build_private(compiler: str) -> Library | None:
    """Build into a temporary directory, load, and remove the directory."""
    directory = Path(tempfile.mkdtemp(prefix="mirage-route-"))
    try:
        built = _compile(compiler, directory)
        return None if built is None else _open(built)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _load_cached(compiler: str, directory: Path) -> Library | None:
    """Load the cached build, building it (once more if corrupt) as needed."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"route-{cache_key(compiler)}.so"
    for _attempt in range(2):
        if not path.exists():
            built = _compile(compiler, directory)
            if built is None:
                return None
            os.replace(built, path)
        if not _trusted(path):
            return _build_private(compiler)
        try:
            return _open(path)
        except OSError:
            path.unlink(missing_ok=True)  # zero-byte or garbage: rebuild once
    return None


def load_router() -> Library | None:
    """Build or load the routing library; ``None`` when it is unavailable.

    Never raises: a missing compiler, a failed build and an unloadable
    library all mean "unavailable".
    """
    compiler = shutil.which("cc")
    if compiler is None:
        return None
    try:
        if coverage_cache_enabled():
            return _load_cached(compiler, coverage_cache_dir() / "native")
    except OSError:
        pass  # unwritable cache directory: build privately instead
    try:
        return _build_private(compiler)
    except OSError:
        return None


_UNSET = object()
_router = _UNSET
_router_lock = threading.Lock()


def router() -> Library | None:
    """The process-wide routing library (built on first call), or ``None``."""
    global _router
    if _router is _UNSET:
        with _router_lock:
            if _router is _UNSET:
                _router = load_router()
    return _router


# -- the random-stream bridge ------------------------------------------------

#: Bounds the probe draws: the small tie counts routing meets, bounds whose
#: Lemire threshold is large, and the largest ``int32`` bound.
PROBE_BOUNDS = (*range(1, 41), 97, 199, 1000, 65_537, 2**31 - 1)
PROBE_SEEDS = (0, 1, 2)


def draws(library: Library, bit_generator, bounds) -> list[int]:
    """``[Generator(bit_generator).integers(n) for n in bounds]``, drawn in C."""
    bounds = np.ascontiguousarray(bounds, dtype=np.int32)
    out = np.empty(len(bounds), dtype=np.int64)
    with bit_generator.lock:
        library.draws(
            bit_generator.ctypes.bit_generator.value, bounds.ctypes.data,
            len(bounds), out.ctypes.data,
        )
    return out.tolist()


def _probe(library: Library, kind: type) -> bool:
    """Whether the C draw reproduces ``integers`` for generators of ``kind``:
    the same values, then the same stream afterwards."""
    try:
        for seed in PROBE_SEEDS:
            ours = np.random.Generator(kind(seed))
            numpys = np.random.Generator(kind(seed))
            drawn = draws(library, ours.bit_generator, PROBE_BOUNDS)
            expected = [int(numpys.integers(n)) for n in PROBE_BOUNDS]
            if drawn != expected:
                return False
            if (ours.integers(2**40), ours.random()) != (
                numpys.integers(2**40), numpys.random()
            ):
                return False
    except Exception:  # no seeded constructor, no ctypes interface, ...
        return False
    return True


_draw_matches: dict[type, bool] = {}


def draw_matches(library: Library, rng: np.random.Generator) -> bool:
    """Whether ``rng``'s bit-generator type passed the probe (memoised)."""
    kind = type(rng.bit_generator)
    matches = _draw_matches.get(kind)
    if matches is None:
        matches = _draw_matches[kind] = _probe(library, kind)
    return matches


# -- one routing run ----------------------------------------------------------

_constants: dict[int, tuple[weakref.ref, tuple]] = {}


def _memo(owner, build) -> tuple:
    """``build(owner)``, memoised until ``owner`` is garbage collected."""
    key = id(owner)
    entry = _constants.get(key)
    if entry is not None and entry[0]() is owner:
        return entry[1]
    value = build(owner)
    _constants[key] = (weakref.ref(owner, lambda _ref: _constants.pop(key, None)), value)
    return value


def _pinned(*arrays_and_dtypes) -> tuple:
    """Contiguous copies (or the arrays themselves) and their addresses."""
    arrays = tuple(np.ascontiguousarray(a, dtype=dtype) for a, dtype in arrays_and_dtypes)
    return arrays, tuple(pinned.ctypes.data for pinned in arrays)


def _table_fields(table) -> tuple:
    arrays, (dist, edges_a, edges_b) = _pinned(
        (table.dist_int, np.int64), (table.edges_a, np.int64), (table.edges_b, np.int64)
    )
    return arrays, {
        "num_qubits": table.num_qubits, "dist": dist,
        "num_edges": len(arrays[1]), "edges_a": edges_a, "edges_b": edges_b,
    }


def _dag_fields(intdag) -> tuple:
    arrays, addresses = _pinned(
        (intdag.kind, np.uint8), (intdag.qubit0, np.int32), (intdag.qubit1, np.int32),
        (intdag.gate_ids, np.int32), (intdag.succ_indptr, np.int64),
        (intdag.succ_ids, np.int32), (intdag.indegree, np.int32),
    )
    names = ("kind", "qubit0", "qubit1", "gate_ids", "succ_indptr", "succ_ids", "indegree")
    return arrays, {"num_nodes": intdag.num_nodes, **dict(zip(names, addresses))}


def _cost_fields(table) -> tuple:
    arrays, (cost, mirror_cost) = _pinned(
        (table.cost, np.float64), (table.mirror_cost, np.float64)
    )
    return arrays, {"cost": cost, "mirror_cost": mirror_cost}


def route(
    intdag,
    table,
    initial_v2p: list[int],
    rng: np.random.Generator,
    *,
    extended_set_size: int,
    extended_set_weight: float,
    decay_delta: float,
    decay_reset_interval: int,
    stall_limit: int,
    mirror,
) -> tuple[list[int], np.ndarray, int, int, int] | None:
    """Route one run in C: ``(final_v2p, events, swaps, candidates, mirrors)``.

    Returns ``None`` — the caller routes in Python — when the library is
    unavailable, the coupling map is disconnected (the C loop sums integer
    hop distances and has no notion of an unreachable pair), the layout
    places fewer qubits than the circuit has (the Python loop reports
    that), or ``rng``'s bit-generator type failed the draw probe.  ``mirror`` is the MIRAGE
    decision's ``(table, aggression, decomposition_weight)``, or ``None``.
    Raises the Python loop's ``TranspilerError`` on the same inputs.  The
    call consumes the generator, so it is never retried.
    """
    library = router()
    if (
        library is None
        or not table.connected
        or len(initial_v2p) < intdag.num_qubits
        or not draw_matches(library, rng)
    ):
        return None
    fields = {**_memo(table, _table_fields)[1], **_memo(intdag, _dag_fields)[1]}
    if mirror is None:
        fields["aggression"] = -1
    else:
        costs, aggression, decomposition_weight = mirror
        fields.update(
            _memo(costs, _cost_fields)[1],
            aggression=aggression,
            decomposition_weight=decomposition_weight,
        )
    problem = _Problem(
        num_virtual=len(initial_v2p),
        # A window never holds more than every node; any size <= 0 is empty.
        extended_set_size=min(max(extended_set_size, 0), intdag.num_nodes),
        extended_set_weight=extended_set_weight,
        decay_delta=decay_delta,
        decay_reset_interval=decay_reset_interval,
        stall_limit=stall_limit,
        **fields,
    )
    v2p = np.array(initial_v2p, dtype=np.int32)
    result = _Result()
    bit_generator = rng.bit_generator
    with bit_generator.lock:
        problem.rng = bit_generator.ctypes.bit_generator.value
        status = library.route(ctypes.byref(problem), v2p.ctypes.data, ctypes.byref(result))
    if status:
        error, message = _STATUS_ERRORS[status]
        raise error(message)
    try:
        events = np.ctypeslib.as_array(result.events, (result.num_events,)).copy()
    finally:
        library.free(result.events)
    return v2p.tolist(), events, result.swaps, result.candidates, result.mirrors

