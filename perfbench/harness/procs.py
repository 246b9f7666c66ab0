"""``repro serve`` / ``repro route`` subprocesses: start, find, stop."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time

from .procstat import child_pids
from .wire import WireConn

__all__ = ["Served", "child_env", "stop_children", "wait_gone"]

_BANNER = re.compile(r"(?:serving .* on|routing on) ([\d.]+):(\d+)")


def child_env(root: str, workdir: str) -> dict:
    """Environment for the program's processes: the checkout's ``src``
    on the path and temporary files kept inside the work directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["TMPDIR"] = workdir
    env.pop("REPRO_FAULT", None)
    return env


class Served:
    """One program process speaking the wire protocol.

    ``argv`` follows ``python -m repro``; the process must print the
    ``serving ... on host:port`` or ``routing on host:port`` banner.
    Output after the banner is drained on a thread so a chatty child
    never blocks on a full pipe.
    """

    def __init__(self, argv: list[str], env: dict, timeout: float = 120.0):
        self.argv = argv
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self.lines: list[str] = []
        try:
            match = self._banner(timeout)
        except BaseException:
            self.stop()
            raise
        self.host, self.port = match.group(1), int(match.group(2))
        self._drain = threading.Thread(target=self._pump, daemon=True)
        self._drain.start()

    def _banner(self, timeout: float):
        deadline = time.monotonic() + timeout
        match = None
        while match is None:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"repro {self.argv[0]} exited before serving:\n"
                    + "".join(self.lines[-20:]))
            self.lines.append(line)
            match = _BANNER.search(line)
            if time.monotonic() > deadline:
                raise RuntimeError(f"repro {self.argv[0]} printed no banner")
        return match

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def connect(self) -> WireConn:
        return WireConn(self.host, self.port)

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (a graceful drain), then SIGKILL; always reaps."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if getattr(self, "_drain", None) is not None:
            self._drain.join(5.0)
        self.proc.stdout.close()


def _reap(pid: int, timeout: float) -> None:
    """Wait for our child ``pid`` to exit; kill it after ``timeout``."""
    deadline = time.monotonic() + timeout
    try:
        while time.monotonic() < deadline:
            if os.waitpid(pid, os.WNOHANG)[0]:
                return
            time.sleep(0.02)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ChildProcessError, ProcessLookupError):
        return  # already reaped


def stop_children(timeout: float = 10.0) -> None:
    """Stop and reap every process this one still has as a child.

    ``PhastPool`` worker processes use shared memory, which starts the
    multiprocessing resource tracker; by design it outlives its parent
    until it notices the parent is gone.  Closing its pipe stops it
    now, after the other children (which inherit that pipe) are gone.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    fd, tracker_pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    others = [p for p in child_pids(os.getpid()) if p != tracker_pid]
    for pid in others:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    for pid in others:
        _reap(pid, timeout)
    if fd is not None:
        os.close(fd)
        tracker._fd = tracker._pid = None
        if tracker_pid is not None:
            _reap(tracker_pid, timeout)


def wait_gone(pid: int, timeout: float = 30.0) -> None:
    """Wait for a process we did not start directly (a router's
    replica) to exit; kill it if it outlives ``timeout``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    time.sleep(0.1)
