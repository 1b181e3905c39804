"""Pre-fork multi-process serving: ``repro serve --workers N``.

One listening socket, N worker processes, one shared on-disk result
store.  The parent process never serves a request — it is a small
supervisor:

* **Socket setup** — with ``SO_REUSEPORT`` (Linux, modern BSDs) the
  parent binds a non-listening *reservation* socket to resolve the
  port, and every worker binds its own listening socket to the same
  address; the kernel load-balances accepts across them and a worker
  respawn never has to re-inherit anything.  Without it, the portable
  pre-fork fallback: the parent binds and listens one socket and every
  forked worker ``accept()``\\ s on the inherited FD.
* **Supervision** — a crashed worker is respawned with exponential
  backoff; workers that keep dying young trip a crash-loop limit and
  the supervisor gives up with a non-zero exit instead of flapping
  forever.
* **Coordinated drain** — SIGINT/SIGTERM fan out to every worker as
  SIGTERM; each worker runs the normal graceful drain (bounded by
  ``--drain-timeout``), and stragglers are SIGKILLed after a grace
  window so shutdown can never hang or leak orphans.

Workers find each other through a :class:`WorkerRegistry` — a
directory of ``worker-<index>.json`` files, each naming the worker's
pid and its loopback *control port* (a second listener serving the
same app).  Any worker answering ``GET /metrics`` or ``GET /healthz``
on the shared socket scrapes its live siblings over their control
ports (``?scope=local`` stops the recursion) and answers for the whole
fleet, so admission and queue gauges stay meaningful when the client
cannot address an individual worker.

Admission control stays **per worker**: each worker owns its scheduler
and sheds independently, so the effective bound of the fleet is
``N × (max_queue + max_inflight)``.  A shared admission counter would
need cross-process coordination on the accept path (a lock or shared
memory write per request) — the exact serialization the pre-fork
design exists to avoid — and the per-worker bound degrades gracefully:
the kernel spreads connections, so a fleet sheds within a factor of
the single-process envelope.  Store-level single-flight *is* shared:
the content-addressed result store's cross-process flock publish and
adopt-on-miss (PR 7) make duplicate work across workers collapse into
one stored entry.
"""

from __future__ import annotations

import asyncio
import errno
import json
import os
import shutil
import signal
import socket
import sys
import tempfile
import time
from contextlib import suppress
from dataclasses import dataclass

__all__ = [
    "WorkerIdentity",
    "WorkerRegistry",
    "Supervisor",
    "run_supervisor",
    "create_listen_socket",
    "resolve_socket_strategy",
    "scrape_json",
]

#: Socket-sharing strategies.
STRATEGY_AUTO = "auto"
STRATEGY_REUSEPORT = "reuseport"
STRATEGY_INHERIT = "inherit"
STRATEGIES = (STRATEGY_AUTO, STRATEGY_REUSEPORT, STRATEGY_INHERIT)

#: Listen backlog for the shared socket.
_BACKLOG = 128

#: A worker surviving this long is considered healthy; its death resets
#: the crash-loop strike counter instead of incrementing it.
_MIN_UPTIME_SECONDS = 5.0

#: Respawn backoff: ``base * 2**strikes`` capped.
_BACKOFF_BASE = 0.1
_BACKOFF_CAP = 2.0

#: Extra seconds the supervisor grants past ``drain_timeout`` before
#: SIGKILLing a straggling worker.
_KILL_GRACE_SECONDS = 10.0

#: Environment hook used by the supervisor tests to force worker-boot
#: failures (crash-loop coverage needs workers that reliably die).
SELFTEST_ENV = "REPRO_SERVE_WORKER_SELFTEST"


@dataclass(frozen=True)
class WorkerIdentity:
    """Who a serving process is within its fleet."""

    index: int = 0
    count: int = 1
    pid: int = 0

    @classmethod
    def solo(cls) -> "WorkerIdentity":
        """The identity of a plain single-process ``repro serve``."""
        return cls(index=0, count=1, pid=os.getpid())

    def to_dict(self) -> dict:
        return {"index": self.index, "count": self.count, "pid": self.pid}

    @property
    def label(self) -> str:
        """The ``worker`` label value used in merged metrics."""
        return str(self.index)


class WorkerRegistry:
    """Directory of live-worker announcements (``worker-<index>.json``).

    Each worker publishes its pid and control port on startup and
    retracts the file on clean shutdown.  Readers filter on pid
    liveness, so a SIGKILLed worker's stale file never shows up as a
    peer.  Writes are atomic (temp file + rename) so a reader never
    sees a torn announcement.
    """

    def __init__(self, root: str):
        self.root = os.fspath(root)

    def _path(self, index: int) -> str:
        return os.path.join(self.root, f"worker-{index}.json")

    def announce(self, identity: WorkerIdentity, control_port: int) -> str:
        os.makedirs(self.root, exist_ok=True)
        record = {
            "index": identity.index,
            "count": identity.count,
            "pid": identity.pid,
            "control_port": control_port,
            "started_at": time.time(),
        }
        path = self._path(identity.index)
        fd, staging = tempfile.mkstemp(dir=self.root, prefix=".announce-")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(record, handle)
            os.replace(staging, path)
        except BaseException:
            with suppress(OSError):
                os.unlink(staging)
            raise
        return path

    def retract(self, index: int) -> None:
        with suppress(OSError):
            os.unlink(self._path(index))

    def peers(self, exclude_index: int | None = None) -> list[dict]:
        """Live announcements, sorted by worker index."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        records = []
        for name in sorted(names):
            if not name.startswith("worker-") or not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.root, name)) as handle:
                    record = json.load(handle)
            except (OSError, ValueError):
                continue  # torn/cleaned up underneath us: skip
            if exclude_index is not None and record.get("index") == exclude_index:
                continue
            if not _pid_alive(record.get("pid")):
                continue
            records.append(record)
        return sorted(records, key=lambda record: record.get("index", 0))


def _pid_alive(pid) -> bool:
    if not isinstance(pid, int) or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - foreign but extant pid
        return True
    except OSError:  # pragma: no cover - defensive
        return False
    return True


def reuseport_available() -> bool:
    """Whether the kernel can load-balance accepts across sockets."""
    return hasattr(socket, "SO_REUSEPORT")


def resolve_socket_strategy(strategy: str = STRATEGY_AUTO) -> str:
    """``auto`` picks SO_REUSEPORT when the platform has it."""
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown socket strategy {strategy!r}; expected one of "
            f"{STRATEGIES}"
        )
    if strategy == STRATEGY_AUTO:
        return (
            STRATEGY_REUSEPORT if reuseport_available() else STRATEGY_INHERIT
        )
    if strategy == STRATEGY_REUSEPORT and not reuseport_available():
        raise ValueError(
            "socket strategy 'reuseport' requested but SO_REUSEPORT is "
            "not available on this platform; use 'inherit'"
        )
    return strategy


def create_listen_socket(
    host: str, port: int, *, reuse_port: bool = False, listen: bool = True
) -> socket.socket:
    """One bound server socket; ``listen=False`` makes a reservation.

    A reservation socket (bound, never listening) is how the reuseport
    strategy pins an ephemeral port: the parent resolves ``port=0`` to
    a concrete port and holds it for the fleet's lifetime while each
    worker binds its own *listening* socket to the same address.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        if listen:
            sock.listen(_BACKLOG)
    except BaseException:
        sock.close()
        raise
    return sock


async def scrape_json(
    port: int, path: str, timeout: float = 2.0, host: str = "127.0.0.1"
) -> dict:
    """One loopback ``GET`` returning the parsed JSON body.

    The minimal client the metrics/healthz aggregation path needs —
    ``Connection: close`` framing, so the body is simply
    everything after the header block.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        writer.write(
            (
                f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("ascii")
        )
        await asyncio.wait_for(writer.drain(), timeout)
        raw = await asyncio.wait_for(reader.read(-1), timeout)
    finally:
        writer.close()
        with suppress(ConnectionError, OSError):
            await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].split()
    if len(status_line) < 2 or status_line[1] != b"200":
        raise ConnectionError(
            f"scrape of {path} failed: {head.decode('latin-1', 'replace')!r}"
        )
    return json.loads(body)


@dataclass
class _WorkerSlot:
    """Supervisor-side state of one worker position in the fleet."""

    index: int
    pid: int | None = None
    spawned_at: float = 0.0
    respawn_at: float | None = None  # backoff deadline when dead


class Supervisor:
    """Fork, watch, respawn, and drain a fleet of serving workers."""

    def __init__(
        self,
        *,
        host: str,
        port: int,
        workers: int,
        store_root: str | None,
        jobs: int = 1,
        batch_window: float = 0.0,
        max_inflight: int = 4,
        max_queue: int | None = None,
        drain_timeout: float = 30.0,
        obs_dir: str | None = None,
        socket_strategy: str = STRATEGY_AUTO,
        max_restarts: int = 8,
    ):
        if workers < 2:
            raise ValueError(
                f"Supervisor needs at least 2 workers, got {workers} "
                "(run_service handles the single-process case)"
            )
        if not hasattr(os, "fork"):
            raise RuntimeError(
                "multi-worker serving requires os.fork (POSIX); "
                "run with --workers 1 on this platform"
            )
        self.host = host
        self.port = port
        self.workers = workers
        self.store_root = store_root
        self.jobs = jobs
        self.batch_window = batch_window
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.drain_timeout = drain_timeout
        self.obs_dir = obs_dir
        self.strategy = resolve_socket_strategy(socket_strategy)
        self.max_restarts = max_restarts
        self.bound_port: int | None = None
        self._sock: socket.socket | None = None
        self._registry_dir: str | None = None
        self._slots = [_WorkerSlot(index=i) for i in range(workers)]
        self._stop_signum: int | None = None
        self._strikes = 0  # consecutive young-worker deaths, fleet-wide
        self._crash_loop = False
        self._worker_failures = 0  # non-zero exits seen at shutdown

    # -- lifecycle -----------------------------------------------------

    def run(self) -> int:
        """Serve until a stop signal; returns the process exit code."""
        self._sock = create_listen_socket(
            self.host,
            self.port,
            reuse_port=self.strategy == STRATEGY_REUSEPORT,
            listen=self.strategy == STRATEGY_INHERIT,
        )
        self.bound_port = self._sock.getsockname()[1]
        self._registry_dir = tempfile.mkdtemp(prefix="repro-serve-fleet-")
        print(
            f"repro serve: listening on http://{self.host}:{self.bound_port} "
            f"({self.workers} workers, strategy={self.strategy}, "
            f"pid={os.getpid()})",
            flush=True,
        )
        previous = {
            signum: signal.signal(signum, self._on_stop_signal)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }
        try:
            for slot in self._slots:
                self._spawn(slot)
            while self._stop_signum is None and not self._crash_loop:
                self._reap()
                self._respawn_due()
                time.sleep(0.05)
        finally:
            shutdown_code = self._shutdown()
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            if self._registry_dir is not None:
                shutil.rmtree(self._registry_dir, ignore_errors=True)
            self._sock.close()
        if self._crash_loop:
            print(
                f"repro serve: giving up — workers crashed "
                f"{self._strikes} consecutive times within "
                f"{_MIN_UPTIME_SECONDS:.0f}s of starting "
                f"(--max-worker-restarts {self.max_restarts}); "
                "see worker output above for the failure",
                file=sys.stderr,
                flush=True,
            )
            return 1
        return shutdown_code

    def _on_stop_signal(self, signum, frame) -> None:
        self._stop_signum = signum

    # -- spawning ------------------------------------------------------

    def _spawn(self, slot: _WorkerSlot) -> None:
        pid = os.fork()
        if pid == 0:
            # Worker process: never returns to the supervisor loop.
            code = 1
            try:
                code = self._child_main(slot.index)
            except BaseException:  # noqa: BLE001 - report, then die
                import traceback

                traceback.print_exc()
            finally:
                # Skip atexit/finalizers: the child shares the parent's
                # interpreter state and must not run its cleanups.
                os._exit(code)
        slot.pid = pid
        slot.spawned_at = time.time()
        slot.respawn_at = None

    def _child_main(self, index: int) -> int:
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, signal.SIG_DFL)
        if os.environ.get(SELFTEST_ENV) == "crash":
            print(
                f"repro serve: worker {index} selftest crash",
                file=sys.stderr,
                flush=True,
            )
            return 3
        if self.strategy == STRATEGY_REUSEPORT:
            sock = create_listen_socket(
                self.host, self.bound_port, reuse_port=True, listen=True
            )
            self._sock.close()  # the parent's reservation is not ours
        else:
            sock = self._sock  # the inherited, already-listening FD
        from repro.service.app import run_worker

        identity = WorkerIdentity(
            index=index, count=self.workers, pid=os.getpid()
        )
        return run_worker(
            sock=sock,
            identity=identity,
            registry_dir=self._registry_dir,
            store_root=self.store_root,
            jobs=self.jobs,
            batch_window=self.batch_window,
            max_inflight=self.max_inflight,
            max_queue=self.max_queue,
            drain_timeout=self.drain_timeout,
            obs_dir=self.obs_dir,
        )

    # -- supervision ---------------------------------------------------

    def _slot_for(self, pid: int) -> _WorkerSlot | None:
        for slot in self._slots:
            if slot.pid == pid:
                return slot
        return None

    def _reap(self) -> None:
        """Collect dead workers and schedule their respawns."""
        while True:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return
            slot = self._slot_for(pid)
            if slot is None:
                continue  # not one of ours (defensive)
            uptime = time.time() - slot.spawned_at
            code = _exit_description(status)
            print(
                f"repro serve: worker {slot.index} (pid {pid}) exited "
                f"{code} after {uptime:.1f}s; respawning",
                file=sys.stderr,
                flush=True,
            )
            slot.pid = None
            if uptime >= _MIN_UPTIME_SECONDS:
                self._strikes = 0
            else:
                self._strikes += 1
                if self._strikes >= self.max_restarts:
                    self._crash_loop = True
                    return
            backoff = min(_BACKOFF_CAP, _BACKOFF_BASE * 2**self._strikes)
            slot.respawn_at = time.time() + backoff

    def _respawn_due(self) -> None:
        now = time.time()
        for slot in self._slots:
            if slot.pid is None and slot.respawn_at is not None:
                if now >= slot.respawn_at:
                    self._spawn(slot)

    # -- shutdown ------------------------------------------------------

    def _live_pids(self) -> list[int]:
        return [slot.pid for slot in self._slots if slot.pid is not None]

    def _shutdown(self) -> int:
        """Fan out SIGTERM, wait out the drain, SIGKILL stragglers."""
        for pid in self._live_pids():
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGTERM)
        deadline = time.time() + self.drain_timeout + _KILL_GRACE_SECONDS
        failures = 0
        drained = 0
        while self._live_pids() and time.time() < deadline:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                time.sleep(0.05)
                continue
            slot = self._slot_for(pid)
            if slot is None:
                continue
            slot.pid = None
            drained += 1
            if not (os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0):
                failures += 1
                print(
                    f"repro serve: worker {slot.index} (pid {pid}) exited "
                    f"{_exit_description(status)} during drain",
                    file=sys.stderr,
                    flush=True,
                )
        stragglers = self._live_pids()
        for pid in stragglers:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid in stragglers:
            with suppress(ChildProcessError, OSError):
                os.waitpid(pid, 0)
            failures += 1
            print(
                f"repro serve: worker (pid {pid}) did not drain within "
                f"{self.drain_timeout + _KILL_GRACE_SECONDS:.0f}s; killed",
                file=sys.stderr,
                flush=True,
            )
        for slot in self._slots:
            slot.pid = None
        if self._stop_signum is not None:
            print(
                f"repro serve: supervisor drained {drained} worker(s) "
                f"({failures} unclean)",
                flush=True,
            )
        return 1 if failures else 0


def _exit_description(status: int) -> str:
    if os.WIFSIGNALED(status):
        try:
            name = signal.Signals(os.WTERMSIG(status)).name
        except ValueError:  # pragma: no cover - unknown signal number
            name = str(os.WTERMSIG(status))
        return f"on signal {name}"
    return f"with status {os.WEXITSTATUS(status)}"


def run_supervisor(**kwargs) -> int:
    """Blocking entry point behind ``repro serve --workers N`` (N > 1)."""
    try:
        supervisor = Supervisor(**kwargs)
    except (ValueError, RuntimeError) as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    try:
        return supervisor.run()
    except OSError as exc:
        if exc.errno in (errno.EADDRINUSE, errno.EACCES):
            print(f"repro serve: cannot bind: {exc}", file=sys.stderr)
            return 2
        raise
