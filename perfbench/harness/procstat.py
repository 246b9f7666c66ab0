"""Readers for ``/proc``: CPU time of a process set, host steal, peak RSS.

Parsers take the file text so tests can feed fixtures; the ``read_*``
wrappers open the live files.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

__all__ = [
    "CLK_TCK", "MIN_TICKS",
    "parse_cpu_line", "parse_pid_cpu_ticks", "parse_status_kb",
    "read_cpu_line", "read_pid_cpu_ticks", "read_peak_rss_mb", "read_rss_mb",
    "child_pids", "WindowLog", "Window",
]

CLK_TCK = os.sysconf("SC_CLK_TCK")

#: CPU sums of fewer ticks than this are flagged: at 100 Hz one tick
#: is 10 ms, so fewer than 200 ticks quantize the sum by over 0.5%.
MIN_TICKS = 200

_CPU_FIELDS = ("user", "nice", "system", "idle", "iowait", "irq",
               "softirq", "steal")


def parse_cpu_line(text: str) -> dict[str, int]:
    """Aggregate ``cpu`` line of ``/proc/stat`` as named tick counters."""
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "cpu":
            values = [int(v) for v in parts[1:1 + len(_CPU_FIELDS)]]
            values += [0] * (len(_CPU_FIELDS) - len(values))
            return dict(zip(_CPU_FIELDS, values))
    raise ValueError("no aggregate 'cpu' line in /proc/stat text")


def parse_pid_cpu_ticks(text: str) -> int:
    """utime + stime (ticks) from the text of ``/proc/<pid>/stat``.

    The command name may hold spaces and parentheses, so fields are
    counted from the last ``)``: utime and stime are fields 14 and 15.
    """
    rest = text[text.rindex(")") + 2:].split()
    return int(rest[11]) + int(rest[12])


def parse_ppid(text: str) -> int:
    return int(text[text.rindex(")") + 2:].split()[1])


def parse_status_kb(text: str, key: str) -> int:
    """A ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    raise KeyError(key)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def read_cpu_line() -> dict[str, int]:
    return parse_cpu_line(_read("/proc/stat"))


def read_pid_cpu_ticks(pid: int) -> int:
    return parse_pid_cpu_ticks(_read(f"/proc/{pid}/stat"))


def read_peak_rss_mb(pids) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of ``pids``."""
    return sum(parse_status_kb(_read(f"/proc/{pid}/status"), "VmHWM")
               for pid in pids) / 1024.0


def read_rss_mb(pid: int) -> float:
    """Current resident set size (``VmRSS``) of ``pid``."""
    return parse_status_kb(_read(f"/proc/{pid}/status"), "VmRSS") / 1024.0


def child_pids(ppid: int) -> list[int]:
    """Live direct children of ``ppid``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if parse_ppid(_read(f"/proc/{entry}/stat")) == ppid:
                out.append(int(entry))
        except (OSError, ValueError):
            continue  # exited while we looked
    return sorted(out)


class WindowLog:
    """Host steal and the CPU of a set of pids, sampled at boundaries.

    The measuring loop calls :meth:`mark` after every operation; each
    time it crosses a boundary, one row ``(time, steal ticks, all
    ticks, CPU ticks of the pids)`` is read.  :meth:`windows` turns
    the rows into per-window steal shares and CPU.  :meth:`close`
    reads a last row that closes no window, for whole-span totals.
    Every pid must live until :meth:`close`: a process that exits
    takes its ticks with it.  With a ``probe``, each boundary also
    appends ``probe()`` (a host-speed sample) to :attr:`probes`.
    """

    def __init__(self, pids, period: float, probe=None) -> None:
        self.pids = sorted(set(int(p) for p in pids))
        self.period = period
        self.probe = probe
        self.probes: list = []
        self.rows: list[tuple] = []
        self.end: tuple | None = None
        self._next = 0.0

    def _read(self, now: float) -> tuple:
        cpu = read_cpu_line()
        return (now, cpu["steal"], sum(cpu[k] for k in _CPU_FIELDS),
                sum(read_pid_cpu_ticks(p) for p in self.pids))

    def start(self, now: float) -> None:
        self.rows.append(self._read(now))
        self._next = now + self.period

    def mark(self, now: float) -> None:
        if now >= self._next:
            self.rows.append(self._read(now))
            self._next = now + self.period
            if self.probe is not None:
                self.probes += self.probe()

    def close(self, now: float) -> None:
        self.end = self._read(now)

    def totals(self) -> tuple[float, int]:
        """(steal share, CPU ticks) from :meth:`start` to :meth:`close`."""
        a, b = self.rows[0], self.end
        total = b[2] - a[2]
        return ((b[1] - a[1]) / total if total else 0.0), b[3] - a[3]

    def windows(self) -> list["Window"]:
        out = []
        for a, b in zip(self.rows, self.rows[1:]):
            total = b[2] - a[2]
            out.append(Window(a[0], b[0], (b[1] - a[1]) / total if total
                              else 0.0, b[3] - a[3]))
        return out


@dataclass
class Window:
    t0: float
    t1: float
    steal_share: float
    cpu_ticks: int

