"""Start, watch and stop the program's processes from outside.

Every program process is spawned by ``spawner.py`` so its peak RSS is its
own. Output that the benchmark times line by line (detections on stdout)
goes through a FIFO read by one reader thread, which stamps each line with
``perf_counter_ns`` when it arrives.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RSS_CALIBRATION_MAX_MB = 30.0


class ProgramError(RuntimeError):
    """A program process failed in a way that makes the run invalid."""


class Spawner:
    """Client of ``spawner.py``; start it before the benchmark grows."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self._buf = b""
        self.child: int | None = None

    def _reply(self, timeout: float) -> dict | None:
        """The helper's next answer, or None after ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 4096)
            if not chunk:
                raise ProgramError("spawner exited")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def spawn(self, argv, env, stdout=None, stderr=None) -> float:
        """Start one program process; returns its spawn time."""
        if self.child is not None:
            raise ProgramError("spawner runs one program process at a time")
        req = {"argv": [str(a) for a in argv], "env": env,
               "stdout": str(stdout) if stdout else None,
               "stderr": str(stderr) if stderr else None}
        self._proc.stdin.write(json.dumps(req).encode() + b"\n")
        self._proc.stdin.flush()
        rec = self._reply(30.0)
        if rec is None:
            raise ProgramError("spawner did not start the program")
        self.child = rec["pid"]
        return rec["t"]

    def wait(self, timeout: float) -> dict:
        """Exit record of the running child: t, rc, maxrss_kb. A child
        still running after ``timeout`` seconds is killed."""
        rec = self.poll(timeout)
        if rec is None:
            self.kill_child()
            raise ProgramError(f"program still running after {timeout} s")
        return rec

    def poll(self, timeout: float) -> dict | None:
        """Exit record of the running child, or None if it still runs."""
        rec = self._reply(timeout)
        if rec is not None:
            self.child = None
        return rec

    def signal(self, signum) -> None:
        if self.child is not None:
            os.kill(self.child, signum)

    def kill_child(self) -> None:
        if self.child is None:
            return
        try:
            os.kill(self.child, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._reply(10.0)
        self.child = None

    def close(self) -> None:
        self.kill_child()
        self._proc.stdin.close()
        try:
            self._proc.wait(10.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


class LineReader:
    """Reads a FIFO in one thread, stamping every line as it arrives."""

    def __init__(self, path: Path):
        self.path = path
        path.unlink(missing_ok=True)
        os.mkfifo(path)
        # a non-blocking open does not wait for the writer to appear
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        os.set_blocking(fd, True)
        self._fh = os.fdopen(fd, "rb")
        self.lines: list[tuple[int, bytes]] = []
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        clock = time.perf_counter_ns
        append = self.lines.append
        while True:
            line = self._fh.readline()
            if not line:
                # no writer yet, or the writer closed: poll until close()
                if self._closing:
                    return
                time.sleep(0.005)
                continue
            append((clock(), line))

    _closing = False

    def close(self) -> None:
        self._closing = True
        self._thread.join(10.0)
        self._fh.close()


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wait_listening(port: int, timeout: float) -> float:
    """Connect until the listener accepts; returns the time it did."""
    deadline = time.perf_counter() + timeout
    while True:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=1.0):
                return time.perf_counter()
        except OSError:
            if time.perf_counter() > deadline:
                raise ProgramError(f"nothing listened on port {port} "
                                   f"within {timeout} s") from None
            time.sleep(0.001)


def check_rss_calibration(mb: float) -> None:
    """An empty interpreter must read about its own size, not its parent's."""
    if not 0 < mb <= RSS_CALIBRATION_MAX_MB:
        raise ProgramError(
            f"'python -c pass' read {mb:.1f} MB peak RSS; the reading "
            "includes memory the spawning process held")
