"""Tests for multi-host dispatch over the chaos-hardened remote transport.

Covers the remote tier end to end:

* the framed wire protocol — CRC-checked frame round trips, incremental
  :class:`FrameReader` reassembly from sliced reads, garble detection,
  host address parsing and the version handshake;
* digest-pinned byte identity — fixed-seed ``transpile_many`` outputs
  through a :class:`RemoteExecutor` (two in-process worker hosts) are
  identical to the serial executor's, across seeds, topologies and
  injected network fault plans (``drop_conn`` / ``garble`` /
  ``partition`` / ``slow_net`` / host kill);
* the recovery ladder — reconnect-with-backoff replays only lost
  chunks, stale hosts (suppressed heartbeats) are detected and their
  chunks replayed, partitioned hosts are marked down without consuming
  retry budget on their chunks, and with every host dark the session
  degrades to local execution — all visible in the ``reconnects`` /
  ``host_downgrades`` / ``frames_garbled`` counters, which are exactly
  zero on clean runs;
* listener hardening — the unix socket is owner-only (0600) and TCP
  listeners refuse non-loopback addresses;
* resource hygiene — no leaked sockets, spool directories, shared
  memory segments or host processes after ``close()``, after a
  mid-dispatch SIGKILL of a real worker-host process, and the janitor
  reclaims what a killed host leaves behind.
"""

import glob
import hashlib
import os
import signal
import socket
import stat
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro.circuits.library import ghz, qft
from repro.core import transpile_many
from repro.exceptions import (
    DeadlineExceededError,
    GarbledFrameError,
    ProtocolVersionError,
    RemoteTransportError,
    TranspilerError,
    TransportError,
)
from repro.polytopes import get_coverage_set
from repro.transpiler import (
    HostAddress,
    RemoteExecutor,
    WorkerHost,
    line_topology,
    ring_topology,
)
from repro.transpiler.executors import (
    SHM_SEGMENT_PREFIX,
    _retry_backoff,
    resolve_executor,
)
from repro.transpiler.faults import HOST_SOCKET_PREFIX, SPOOL_PREFIX
from repro.transpiler.remote import protocol
from repro.transpiler.remote.host import main as host_main
from repro.transpiler.remote.protocol import (
    CHUNK,
    HELLO,
    HELLO_ACK,
    PROTOCOL_VERSION,
    FrameReader,
    pack_message,
    parse_host,
    parse_hosts,
    read_frame,
    unpack_message,
    write_frame,
)

COVERAGE = get_coverage_set("sqrt_iswap", num_samples=250, seed=3)


def _own_segments() -> list[str]:
    return glob.glob(f"/dev/shm/{SHM_SEGMENT_PREFIX}{os.getpid()}_*")


def _own_host_files() -> list[str]:
    tmp = tempfile.gettempdir()
    return glob.glob(
        os.path.join(tmp, f"{HOST_SOCKET_PREFIX}{os.getpid()}_*")
    ) + glob.glob(os.path.join(tmp, f"{SPOOL_PREFIX}{os.getpid()}_*"))


def _scale(shared, task):
    return shared * task


def _slow_scale(shared, task):
    time.sleep(0.2)
    return shared * task


def _digest(batch) -> str:
    hasher = hashlib.sha256()
    for result in batch:
        for instruction in result.circuit:
            params = ",".join(f"{p:.12e}" for p in instruction.gate.params)
            hasher.update(
                f"{instruction.gate.name}({params})@{instruction.qubits}\n"
                .encode()
            )
        hasher.update(
            f"{result.trial_index}|{result.swaps_added}|"
            f"{result.mirrors_accepted}\n".encode()
        )
    return hasher.hexdigest()


def _batch(executor, topology, seed):
    return transpile_many(
        [qft(4), ghz(5)],
        topology,
        coverage=COVERAGE,
        use_vf2=False,
        layout_trials=2,
        seed=seed,
        fanout="circuits",
        executor=executor,
    )


@pytest.fixture
def two_hosts():
    hosts = [WorkerHost(heartbeat_s=0.1), WorkerHost(heartbeat_s=0.1)]
    for host in hosts:
        host.start()
    yield hosts
    for host in hosts:
        host.close()


@pytest.fixture
def fast_recovery(monkeypatch):
    """Tight network timing so fault scenarios finish in test time."""
    monkeypatch.setenv("MIRAGE_REMOTE_HEARTBEAT_S", "0.1")
    monkeypatch.setenv("MIRAGE_REMOTE_CONNECT_S", "2.0")
    monkeypatch.setenv("MIRAGE_FAULT_SLOW_SECONDS", "1.0")
    return monkeypatch


def _nonzero(stats: dict) -> dict:
    return {key: value for key, value in stats.items() if value}


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


def test_frame_round_trip_over_socketpair():
    left, right = socket.socketpair()
    try:
        message = {"digest": "abc", "blob": b"x" * 1000}
        sent = write_frame(left, CHUNK, pack_message(message))
        assert sent > 1000
        ftype, payload = read_frame(right)
        assert ftype == CHUNK
        assert unpack_message(payload) == message
    finally:
        left.close()
        right.close()


def test_frame_reader_reassembles_from_single_byte_slices():
    left, right = socket.socketpair()
    try:
        write_frame(left, HELLO, pack_message({"n": 1}))
        write_frame(left, HELLO_ACK, pack_message({"n": 2}))
        left.close()
        data = b""
        while True:
            piece = right.recv(4096)
            if not piece:
                break
            data += piece
    finally:
        right.close()
    reader = FrameReader()
    frames = []
    for index in range(len(data)):
        reader.feed(data[index:index + 1])
        while True:
            frame = reader.next_frame()
            if frame is None:
                break
            frames.append(frame)
    assert [frame[0] for frame in frames] == [HELLO, HELLO_ACK]
    assert unpack_message(frames[0][1]) == {"n": 1}
    assert unpack_message(frames[1][1]) == {"n": 2}


def test_garbled_frame_fails_crc():
    left, right = socket.socketpair()
    try:
        write_frame(left, CHUNK, pack_message({"k": 3}), garble=True)
        with pytest.raises(GarbledFrameError):
            read_frame(right)
    finally:
        left.close()
        right.close()


def test_frame_reader_rejects_foreign_magic():
    reader = FrameReader()
    reader.feed(b"HTTP/1.1 200 OK\r\n")
    with pytest.raises(GarbledFrameError):
        reader.next_frame()


def test_parse_host_addresses():
    assert parse_host("/tmp/foo.sock") == HostAddress(unix_path="/tmp/foo.sock")
    assert parse_host("relative.sock") == HostAddress(unix_path="relative.sock")
    assert parse_host("127.0.0.1:7421") == HostAddress(
        tcp_host="127.0.0.1", tcp_port=7421
    )
    assert parse_hosts("a.sock, 10.0.0.2:99 ,") == [
        HostAddress(unix_path="a.sock"),
        HostAddress(tcp_host="10.0.0.2", tcp_port=99),
    ]
    with pytest.raises(TranspilerError):
        parse_host("not-an-address")
    with pytest.raises(TranspilerError):
        parse_host("")


def test_version_mismatch_marks_host_down(fast_recovery):
    """A host speaking a different protocol version is not retried."""

    def fake_host(listener: socket.socket) -> None:
        conn, _ = listener.accept()
        with conn:
            read_frame(conn)
            write_frame(
                conn,
                HELLO_ACK,
                pack_message({"version": 999, "pid": 1, "cpu_count": 1}),
            )

    path = protocol.default_socket_path()
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen()
    thread = threading.Thread(target=fake_host, args=(listener,), daemon=True)
    thread.start()
    try:
        executor = RemoteExecutor(hosts=[path], max_streams=1)
        results = executor.map_shared(_scale, 2, [1, 2, 3])
        assert results == [2, 4, 6]
        stats = executor.dispatch_stats
        # The mismatched host went down without consuming retry budget;
        # with no host left the chunks degraded to local execution.
        assert stats["host_downgrades"] == 1
        assert stats["reconnects"] == 0
        executor.close()
    finally:
        listener.close()
        if os.path.exists(path):
            os.unlink(path)


# ---------------------------------------------------------------------------
# Round trips and clean-run counters
# ---------------------------------------------------------------------------


def test_map_shared_round_trip_and_clean_counters(two_hosts):
    executor = RemoteExecutor(
        hosts=[host.address for host in two_hosts], max_streams=2
    )
    assert executor.prewarm() == 2
    results = executor.map_shared(_scale, 3, list(range(40)))
    assert results == [3 * task for task in range(40)]
    stats = executor.dispatch_stats
    assert stats["tasks"] == 40
    assert stats["chunks"] >= 2
    assert stats["bytes_shipped"] > 0
    # The whole recovery family is exactly zero on a clean run.
    for counter in (
        "retries", "lost_tasks", "reconnects", "host_downgrades",
        "frames_garbled", "executor_downgrades", "deadline_expirations",
    ):
        assert stats[counter] == 0, (counter, _nonzero(stats))
    pids = executor.worker_pids()
    assert pids == [os.getpid(), os.getpid()]  # in-process hosts
    meta = executor.host_meta()
    assert len(meta) == 2 and all(m["cpu_count"] >= 1 for m in meta)
    executor.close()


def test_payloads_ship_once_per_host(two_hosts):
    executor = RemoteExecutor(
        hosts=[host.address for host in two_hosts], max_streams=2
    )
    with executor.open_dispatch(_scale) as session:
        slot = session.add_payload(5)
        futures = session.submit(slot, list(range(30)))
        assert [
            value for future in futures for value in future.result()
        ] == [5 * task for task in range(30)]
    shipped_once = executor.dispatch_stats["bytes_shipped"]
    # A second session re-ships nothing: the hosts answer HAS with HAVE.
    executor2 = RemoteExecutor(
        hosts=[host.address for host in two_hosts], max_streams=2
    )
    with executor2.open_dispatch(_scale) as session:
        slot = session.add_payload(5)
        futures = session.submit(slot, list(range(30)))
        [future.result() for future in futures]
    assert executor2.dispatch_stats["bytes_shipped"] < shipped_once
    executor.close()
    executor2.close()


def test_remote_executor_requires_hosts(monkeypatch):
    monkeypatch.delenv("MIRAGE_REMOTE_HOSTS", raising=False)
    with pytest.raises(TranspilerError):
        RemoteExecutor()


def test_resolve_executor_remote(two_hosts, monkeypatch):
    monkeypatch.setenv(
        "MIRAGE_REMOTE_HOSTS",
        ",".join(str(host.address) for host in two_hosts),
    )
    executor = resolve_executor("remote")
    assert isinstance(executor, RemoteExecutor)
    assert executor.map_shared(_scale, 2, [4, 5]) == [8, 10]
    executor.close()


def test_deadline_expiry_is_counted_and_not_retried(two_hosts):
    executor = RemoteExecutor(
        hosts=[host.address for host in two_hosts], max_streams=1
    )
    with executor.open_dispatch(_slow_scale) as session:
        slot = session.add_payload(1)
        deadline = time.monotonic() + 0.05
        futures = session.submit(slot, list(range(8)), deadline=deadline)
        with pytest.raises(DeadlineExceededError):
            for future in futures:
                future.result()
    stats = executor.dispatch_stats
    assert stats["deadline_expirations"] >= 1
    assert stats["retries"] == 0
    executor.close()


# ---------------------------------------------------------------------------
# Digest-pinned identity: serial vs remote, clean and under fault plans
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [7, 23])
@pytest.mark.parametrize(
    "topology", [line_topology(5), ring_topology(5)], ids=["line", "ring"]
)
def test_remote_digest_matches_serial(two_hosts, seed, topology):
    reference = _digest(_batch(None, topology, seed))
    executor = RemoteExecutor(hosts=[host.address for host in two_hosts])
    fanned = _batch(executor, topology, seed)
    assert _digest(fanned) == reference
    for counter in ("reconnects", "host_downgrades", "frames_garbled"):
        assert fanned.dispatch[counter] == 0
    executor.close()
    assert _own_segments() == []


@pytest.mark.parametrize(
    "plan, expected",
    [
        ("drop_conn:chunk:1", {"reconnects": 1, "retries": 1}),
        ("garble:frame:2", {"frames_garbled": 1, "retries": 1}),
        ("partition:host:0", {"host_downgrades": 1, "reconnects": 0}),
        ("slow_net:chunk:3", {"reconnects": 1, "retries": 1}),
        ("kill:trial:1", {"retries": 1}),
    ],
    ids=["drop_conn", "garble", "partition", "slow_net", "kill"],
)
def test_remote_digest_survives_network_faults(
    two_hosts, fast_recovery, plan, expected
):
    topology = line_topology(5)
    reference = _digest(_batch(None, topology, 7))
    fast_recovery.setenv("MIRAGE_FAULT_PLAN", plan)
    executor = RemoteExecutor(hosts=[host.address for host in two_hosts])
    fanned = _batch(executor, topology, 7)
    assert _digest(fanned) == reference
    for counter, value in expected.items():
        assert fanned.dispatch[counter] == value, (
            counter,
            {k: v for k, v in fanned.dispatch.items() if isinstance(v, int) and v},
        )
    # Replays touch only the lost chunks: every retry re-ships exactly
    # one chunk's tasks.
    assert fanned.dispatch["lost_tasks"] <= fanned.dispatch["retries"] * (
        fanned.dispatch["tasks"] + fanned.dispatch["plan_tasks"]
    )
    executor.close()
    assert _own_segments() == []


def test_all_hosts_partitioned_degrades_locally(two_hosts, fast_recovery):
    fast_recovery.setenv(
        "MIRAGE_FAULT_PLAN", "partition:host:0,partition:host:1"
    )
    executor = RemoteExecutor(hosts=[host.address for host in two_hosts])
    results = executor.map_shared(_scale, 4, list(range(12)))
    assert results == [4 * task for task in range(12)]
    stats = executor.dispatch_stats
    assert stats["host_downgrades"] == 2
    assert stats["executor_downgrades"] >= 1
    assert stats["reconnects"] == 0
    executor.close()


# ---------------------------------------------------------------------------
# Heartbeats, backoff, budget
# ---------------------------------------------------------------------------


def test_heartbeat_timeout_triggers_replay(two_hosts, fast_recovery):
    """A silent host (slow_net suppresses heartbeats) is declared stale
    and its chunk replayed — while a merely *slow* chunk with flowing
    heartbeats is not."""
    fast_recovery.setenv("MIRAGE_FAULT_PLAN", "slow_net:chunk:0")
    executor = RemoteExecutor(
        hosts=[host.address for host in two_hosts], max_streams=1
    )
    results = executor.map_shared(_scale, 2, list(range(10)))
    assert results == [2 * task for task in range(10)]
    stats = executor.dispatch_stats
    assert stats["retries"] == 1
    assert stats["reconnects"] == 1
    executor.close()


def test_slow_chunk_with_heartbeats_is_not_replayed(two_hosts, fast_recovery):
    executor = RemoteExecutor(
        hosts=[host.address for host in two_hosts], max_streams=1
    )
    # 0.2s of compute against a 0.1s heartbeat interval and a 0.3s
    # staleness budget: only the heartbeats keep the chunk alive.
    results = executor.map_shared(_slow_scale, 2, list(range(4)))
    assert results == [2 * task for task in range(4)]
    assert executor.dispatch_stats["retries"] == 0
    executor.close()


def test_reconnect_backoff_caps():
    assert _retry_backoff(1) == pytest.approx(0.05)
    assert _retry_backoff(2) == pytest.approx(0.1)
    previous = 0.0
    for attempt in range(1, 12):
        backoff = _retry_backoff(attempt)
        assert backoff <= 1.0
        assert backoff >= previous or backoff == 1.0
        previous = backoff
    assert _retry_backoff(50) == 1.0


def test_unreachable_host_exhausts_budget_and_downgrades(
    fast_recovery, tmp_path
):
    fast_recovery.setenv("MIRAGE_TASK_RETRIES", "1")
    dead = str(tmp_path / "nobody-home.sock")
    live = WorkerHost(heartbeat_s=0.1)
    live.start()
    try:
        executor = RemoteExecutor(hosts=[dead, live.address])
        results = executor.map_shared(_scale, 6, list(range(8)))
        assert results == [6 * task for task in range(8)]
        stats = executor.dispatch_stats
        assert stats["host_downgrades"] == 1
        assert stats["executor_downgrades"] == 0  # live host absorbed all
        executor.close()
    finally:
        live.close()


# ---------------------------------------------------------------------------
# Real worker-host processes: kill mid-dispatch, leak hygiene
# ---------------------------------------------------------------------------


def _spawn_host_process(socket_path: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.transpiler.remote.host",
            "--socket",
            socket_path,
            "--heartbeat",
            "0.1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    ready = process.stdout.readline()
    assert ready.startswith("MIRAGE-HOST-READY"), ready
    return process


def test_host_process_killed_mid_dispatch_recovers(fast_recovery, tmp_path):
    victim_path = str(tmp_path / "victim.sock")
    victim = _spawn_host_process(victim_path)
    survivor = WorkerHost(heartbeat_s=0.1)
    survivor.start()
    try:
        executor = RemoteExecutor(
            hosts=[victim_path, survivor.address], max_streams=1
        )
        with executor.open_dispatch(_slow_scale) as session:
            slot = session.add_payload(9)
            futures = session.submit(slot, list(range(12)))
            time.sleep(0.3)  # let chunks land on both hosts
            os.kill(victim.pid, signal.SIGKILL)
            results = [
                value for future in futures for value in future.result()
            ]
        assert results == [9 * task for task in range(12)]
        stats = executor.dispatch_stats
        assert stats["retries"] >= 1  # the killed host's chunk replayed
        assert stats["host_downgrades"] == 1
        executor.close()
    finally:
        survivor.close()
        victim.wait(timeout=10)
    # The kill left a socket file (and possibly a spool) behind; a
    # janitor pass — e.g. any new host starting — reclaims them.
    from repro.transpiler.faults import reap_stale_segments

    reap_stale_segments()
    assert not os.path.exists(victim_path) or not glob.glob(
        os.path.join(tempfile.gettempdir(), f"{SPOOL_PREFIX}{victim.pid}_*")
    )
    assert _own_segments() == []


def test_graceful_shutdown_leaves_no_resources(tmp_path):
    host_path = str(tmp_path / "tidy.sock")
    process = _spawn_host_process(host_path)
    try:
        executor = RemoteExecutor(hosts=[host_path])
        assert executor.map_shared(_scale, 7, [1, 2, 3]) == [7, 14, 21]
        executor.close()
    finally:
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=10)
    assert not os.path.exists(host_path)
    assert glob.glob(
        os.path.join(tempfile.gettempdir(), f"{SPOOL_PREFIX}{process.pid}_*")
    ) == []
    assert _own_segments() == []


def test_in_process_host_close_removes_socket_and_spool():
    before = set(_own_host_files())
    host = WorkerHost(heartbeat_s=0.1)
    host.start()
    created = set(_own_host_files()) - before
    assert created  # socket file and spool directory exist while serving
    host.close()
    assert set(_own_host_files()) - before == set()


def test_remote_errors_are_typed():
    assert issubclass(RemoteTransportError, TransportError)
    assert issubclass(GarbledFrameError, RemoteTransportError)
    # A version mismatch is a deployment bug, not retriable transport loss.
    assert not issubclass(ProtocolVersionError, TransportError)


# ---------------------------------------------------------------------------
# Listener hardening: hosts unpickle what peers send
# ---------------------------------------------------------------------------


def test_unix_socket_is_owner_only(tmp_path):
    path = str(tmp_path / "host.sock")
    previous = os.umask(0o022)
    try:
        host = WorkerHost(socket_path=path, heartbeat_s=0.1)
        try:
            assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
            # The process umask is untouched and no staging dir is left.
            assert os.umask(0o022) == 0o022
            assert os.listdir(tmp_path) == ["host.sock"]
        finally:
            host.close()
    finally:
        os.umask(previous)


@pytest.mark.parametrize("address", ["0.0.0.0", "", "10.0.0.2", "::", "my-box"])
def test_tcp_refuses_non_loopback_address(address):
    with pytest.raises(TransportError, match="non-loopback"):
        WorkerHost(tcp=(address, 0), heartbeat_s=0.1)


def test_tcp_cli_refuses_non_loopback_address(capsys):
    with pytest.raises(SystemExit) as exit_info:
        host_main(["--tcp", "0.0.0.0:0"])
    assert exit_info.value.code == 2
    assert "non-loopback" in capsys.readouterr().err


def test_tcp_loopback_address_serves():
    host = WorkerHost(tcp=("127.0.0.1", 0), heartbeat_s=0.1)
    host.start()
    try:
        assert host.address.tcp_host == "127.0.0.1"
        executor = RemoteExecutor(hosts=[host.address])
        try:
            assert executor.prewarm() == 1
        finally:
            executor.close()
    finally:
        host.close()
