"""Build, cache and call the compiled SWAP scorer (``_score.c``).

The scorer is one small C function compiled on first use with the host's
``cc`` and loaded through :mod:`ctypes` — stdlib only, no build step at
install time.  Everything here degrades instead of raising: with no
compiler, a failed build or an unloadable library, :func:`scorer` returns
``None`` and the route kernel keeps its Python float scorer, which picks
the same edges.

Build cache
    The shared library lives at
    ``coverage_cache_dir()/native/score-<key>.so``, where ``<key>`` is the
    SHA-256 of the C source, the compiler flags, the compiler path and the
    platform.  A build writes a temporary file in that directory and
    ``os.replace``-s it into place, so concurrent pool workers never load a
    torn file.  A cached file is loaded only if it is owned by the current
    user and is neither group- nor world-writable; otherwise it is left
    alone and the scorer is built privately.  A cached file that fails to
    load (zero bytes, garbage) is removed and rebuilt once.
    ``MIRAGE_CACHE_DISABLE=1`` builds into a per-process temporary
    directory that is removed once the library is loaded.

Binding
    :func:`bind` returns a :class:`Scorer` for one routing run.  The scorer
    reads each ``NeighborTable``'s distance matrix and edge endpoints, and
    each ``IntDAG``'s gate qubits, through raw pointers.  Those contiguous
    arrays and their addresses are memoised per object in a module-level
    map keyed by ``id`` and cleared by a weak-reference callback, so the
    pickled tables and DAGs never carry them.
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
from array import array
from pathlib import Path

import numpy as np

from repro.exceptions import TranspilerError
from repro.polytopes.cache import coverage_cache_dir, coverage_cache_enabled

SOURCE = Path(__file__).with_name("_score.c")
#: Fixed flags: no ``-ffast-math``, no ``-march``, no fused multiply-add,
#: so the compiled float expressions round exactly like the Python ones.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
BUILD_TIMEOUT_S = 60.0

_c_int32 = ctypes.c_int32
_c_ptr = ctypes.c_void_p
_ARGTYPES = (
    _c_int32, _c_ptr,  # num_qubits, dist
    _c_int32, _c_ptr, _c_ptr,  # num_edges, edges_a, edges_b
    _c_ptr, _c_ptr, _c_ptr,  # qubit0, qubit1, v2p
    _c_ptr, _c_int32,  # front, num_front
    _c_ptr, _c_int32,  # extended, num_extended
    _c_ptr, ctypes.c_double,  # decay, extended_set_weight
    _c_ptr,  # best
)


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
    """Compile the scorer into a new temporary file in ``directory``."""
    handle, name = tempfile.mkstemp(dir=directory, prefix="tmp-score-", suffix=".so")
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


def _open(path: Path):
    """The scorer function of the library at ``path`` (raises ``OSError``)."""
    try:
        function = ctypes.CDLL(str(path)).mirage_choose_swap
    except AttributeError as exc:  # loads, but is not our library
        raise OSError(f"{path} has no scorer symbol") from exc
    function.argtypes = _ARGTYPES
    function.restype = ctypes.c_int
    return function


def _build_private(compiler: str):
    """Build into a temporary directory, load, and remove the directory."""
    directory = Path(tempfile.mkdtemp(prefix="mirage-score-"))
    try:
        built = _compile(compiler, directory)
        return None if built is None else _open(built)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _load_cached(compiler: str, directory: Path):
    """Load the cached build, building it (once more if corrupt) as needed."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"score-{cache_key(compiler)}.so"
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


def load_scorer():
    """Build or load the compiled scorer; ``None`` when it is unavailable.

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
_scorer = _UNSET
_scorer_lock = threading.Lock()


def scorer():
    """The process-wide compiled scorer (built on first call), or ``None``."""
    global _scorer
    if _scorer is _UNSET:
        with _scorer_lock:
            if _scorer is _UNSET:
                _scorer = load_scorer()
    return _scorer


# -- binding the scorer to one routing run --------------------------------------

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


def _table_constants(table) -> tuple:
    arrays, (dist, edges_a, edges_b) = _pinned(
        (table.dist_int, np.int64), (table.edges_a, np.int64), (table.edges_b, np.int64)
    )
    return arrays, (table.num_qubits, dist, len(arrays[1]), edges_a, edges_b)


def _dag_constants(intdag) -> tuple:
    return _pinned((intdag.qubit0, np.int32), (intdag.qubit1, np.int32))


class Scorer:
    """The compiled scorer bound to one routing run's table and ``IntDAG``.

    Holds the constant arguments (memoised per table and per DAG), the
    arrays they point into, and the output buffer, so a call converts only
    the layout, the front and the lookahead window.  One run, one thread:
    the output buffer is not shared.
    """

    __slots__ = ("_function", "_arrays", "_constants", "_edges", "_best", "_best_address")

    def __init__(self, function, table, intdag) -> None:
        table_arrays, table_args = _memo(table, _table_constants)
        dag_arrays, dag_args = _memo(intdag, _dag_constants)
        self._function = function
        self._arrays = table_arrays + dag_arrays
        self._constants = table_args + dag_args
        self._edges = table.edge_lists()
        self._best = array("i", bytes(4 * table_args[2]))
        self._best_address = self._best.buffer_info()[0]

    def best_edges(
        self,
        v2p: list[int],
        front: list[int],
        extended: list[int],
        decay: array,
        extended_set_weight: float,
    ) -> list[tuple[int, int]]:
        """Tied-best ``(a, b)`` edges of one stall, in candidate order."""
        layout = array("i", v2p)
        front_ids = array("i", front)
        extended_ids = array("i", extended)
        count = self._function(
            *self._constants,
            layout.buffer_info()[0],
            front_ids.buffer_info()[0], len(front_ids),
            extended_ids.buffer_info()[0], len(extended_ids),
            decay.buffer_info()[0], extended_set_weight,
            self._best_address,
        )
        if count == -1:
            raise TranspilerError(
                "no SWAP candidates: the coupling graph is likely disconnected"
            )
        if count < 0:
            raise MemoryError("SWAP scorer could not allocate its scratch buffer")
        edges_a, edges_b = self._edges
        return [(edges_a[i], edges_b[i]) for i in self._best[:count]]


def bind(table, intdag) -> Scorer | None:
    """The compiled scorer bound to one run, or ``None`` if unavailable.

    Only for connected coupling maps: the scorer sums integer hop
    distances and has no notion of an unreachable pair.
    """
    function = scorer()
    if function is None or not table.connected:
        return None
    return Scorer(function, table, intdag)
