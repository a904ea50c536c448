"""serve's socket side: the listener, the reader process and its loop.

serve reads its sockets in a process of its own: ``ReaderProcess`` binds
the listener and starts ``python -m fallstream.reader``, whose
``serve_reader`` loop runs SocketSource and sends each read to the main
process as one message on a pipe (the format is described at
``ingest._HEADER``; ``ingest.ReaderPipe`` takes the messages back). The
reader ends when its control pipe closes: on a stop, and also when the
main process dies, since the main process holds the pipe's only write
end. Only serve imports this module: no other command compiles it or
imports ``socket`` and ``selectors``.
"""

from __future__ import annotations

import gc
import os
import select
import selectors
import signal
import socket
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .ingest import (
    MAX_LINE_BYTES,
    ReadCounts,
    ReaderPipe,
    SampleBatch,
    _count_regressions,
    _message,
    _write_all,
    parse_wire_block,
)

# Bytes asked of one recv: ~480 live lines. A read's lines are parsed,
# counted and handed on together.
READ_BYTES = 16384
# Seconds the listener is left out of the selector after a failed accept
# (say EMFILE): the pending connection keeps it readable, and selecting on
# it would return at once on every pass.
ACCEPT_RETRY_S = 0.1
# Longest wait of the reader for a ready socket: it looks at its control
# pipe between waits, so it sees a stop, or the end of the main process,
# within this time.
READER_WAIT_S = 0.05
# Seconds close gives a stopped reader to exit before killing it
READER_STOP_S = 5.0


def bind_listener(host: str, port: int) -> socket.socket:
    """A TCP socket listening on host:port (0: any free port)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen()
    except OSError:
        listener.close()
        raise
    return listener


@dataclass(slots=True)
class _Connection:  # what the source keeps of one open connection
    tail: bytes = b""  # the unterminated start of the next line
    skipping: bool = False  # discarding an over-long line through its newline
    last_t: dict[str, int] = field(default_factory=dict)  # per device


class SocketSource:
    """A listening TCP socket (from ``bind_listener``) turning protocol
    lines into a single sample stream; ``close`` closes it.

    It starts no thread: the caller's loop (serve's reader process, see
    ``serve_reader``) calls ``poll``, which makes one selector pass over the
    listener and every connection, accepting what waits (after a failed
    accept the listener sits out ACCEPT_RETRY_S) and reading each ready
    connection once (up to READ_BYTES), so lines are never reordered
    within a connection and one stalled client holds up no other. A read's
    complete lines are parsed as columns, its malformed lines left out and
    counted, and handed on as one ``emit(SampleBatch)`` call, each of its
    devices named once and indexed per row.
    What the caller does not read stays in the kernel, so a caller that
    stops polling (the reader, while its write to a full pipe blocks) gives
    clients TCP backpressure.
    ``stats`` is any object with integer samples_in / malformed /
    timestamp_regressions attributes. A timestamp regression is a sample
    older than the previous one of its device on the same connection; a
    connection's state goes when it closes.
    """

    def __init__(self, listener: socket.socket, emit: Callable, stats):
        listener.setblocking(False)
        self._listener = listener
        self._emit = emit
        self.stats = stats
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ)
        self._accept_at: float | None = None  # when a paused listener resumes

    def poll(self, timeout: float) -> bool:
        """One selector pass, waiting up to ``timeout`` seconds for a ready
        socket; whether any was ready."""
        if self._accept_at is not None:
            left = self._accept_at - time.monotonic()
            if left <= 0:
                self._selector.register(self._listener, selectors.EVENT_READ)
                self._accept_at = None
            else:
                timeout = min(timeout, left)
        ready = self._selector.select(timeout)
        for key, _events in ready:
            if key.data is None:
                self._accept(key.fileobj)
            else:
                self._read(key)
        return bool(ready)

    def close(self) -> None:
        """Close every socket, counting each connection's unterminated line
        once; the counters are final after."""
        for key in list(self._selector.get_map().values()):
            self._close(key)
        self._selector.close()
        self._listener.close()

    def _accept(self, listener: socket.socket) -> None:
        try:
            conn, _addr = listener.accept()
        except OSError:
            # EMFILE and the like leave it queued: try again after a pause
            self._selector.unregister(listener)
            self._accept_at = time.monotonic() + ACCEPT_RETRY_S
            return
        conn.setblocking(False)
        self._selector.register(conn, selectors.EVENT_READ, _Connection())

    def _read(self, key: selectors.SelectorKey) -> None:
        state = key.data
        try:
            chunk = key.fileobj.recv(READ_BYTES)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""  # a reset ends the connection like EOF
        if not chunk:
            self._close(key)
            return
        if state.skipping:
            end = chunk.find(b"\n")
            if end < 0:
                return
            chunk = chunk[end + 1:]
            state.skipping = False
        cut = chunk.rfind(b"\n")
        if cut < 0:
            state.tail += chunk
        else:
            self._handle_block(state.tail + chunk[:cut], state.last_t)
            state.tail = chunk[cut + 1:]
        if len(state.tail) > MAX_LINE_BYTES:
            self._count_dropped_line()
            state.tail = b""
            state.skipping = True

    def _close(self, key: selectors.SelectorKey) -> None:
        # an unterminated tail at disconnect, blank or not, is a lost line
        if key.data is not None and key.data.tail:
            self._count_dropped_line()
        self._selector.unregister(key.fileobj)
        key.fileobj.close()

    def _handle_block(self, block: bytes, last_t: dict[str, int]) -> None:
        """Parse, count and emit a read's complete lines (newline-joined)."""
        batch, rejected = parse_wire_block(block)
        self.stats.samples_in += len(batch) + rejected
        self.stats.malformed += rejected
        self.stats.timestamp_regressions += _count_regressions(batch, last_t)
        if len(batch):
            self._emit(batch)

    def _count_dropped_line(self) -> None:
        self.stats.samples_in += 1
        self.stats.malformed += 1


def serve_reader(listener: socket.socket, data_fd: int,
                 control_fd: int) -> None:
    """The reader process's loop: SocketSource passes over ``listener`` and
    its connections, one message to ``data_fd`` per read that holds a line
    and one after a pass that moved a counter otherwise (malformed lines
    only, a dropped line, a closed tail), until ``control_fd`` turns
    readable (the main process closed it, or ended). Then it closes every
    connection, counting each unterminated line, and sends the final
    message. A write to a data pipe nobody reads any more raises
    BrokenPipeError."""
    counts = ReadCounts()
    sent = (0, 0, 0)

    def send(batch: SampleBatch | None = None, final: bool = False) -> None:
        nonlocal sent
        _write_all(data_fd, _message(counts, batch, final))
        sent = counts.totals()

    source = SocketSource(listener, emit=send, stats=counts)
    control = select.poll()
    control.register(control_fd, select.POLLIN)
    try:
        while not control.poll(0):
            source.poll(READER_WAIT_S)
            if sent != counts.totals():
                send()  # a read with no line, a dropped line, a close
    finally:
        source.close()
    send(final=True)


class ReaderProcess(ReaderPipe):
    """serve's reader process, and its pipes.

    The listener is bound here, so a bind failure is fatal at once and
    clients can connect before the reader runs; then ``python -m
    fallstream.reader`` starts with the listener and two pipes: data
    (reader to main) and control (main to reader, never written); the
    main process's end of the data pipe is the ``ingest.ReaderPipe`` this
    class extends. ``stop``
    closes the control pipe: the reader closes its connections and sends
    its final message. ``close`` reaps the reader; one still running is
    stopped first, and one blocked writing to the data pipe gets EPIPE.
    """

    def __init__(self, host: str, port: int, stats):
        listener = bind_listener(host, port)
        self.host, self.port = host, listener.getsockname()[1]
        import subprocess  # only serve pays for this import, once it listens

        # the reader imports this very package, whatever put it on sys.path,
        # so both ends agree on the message format
        package_root = str(Path(__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p)
        fds: list[int] = []
        try:
            data_r, data_w = os.pipe()
            fds += (data_r, data_w)
            control_r, control_w = os.pipe()
            fds += (control_r, control_w)
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "fallstream.reader",
                 str(listener.fileno()), str(data_w), str(control_r)],
                pass_fds=(listener.fileno(), data_w, control_r),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                start_new_session=True, env=env)
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        finally:
            listener.close()
        # the reader holds the only copies of these now: its exit closes them
        os.close(data_w)
        os.close(control_r)
        super().__init__(data_r, stats)
        self._control = open(control_w, "wb", buffering=0)

    def stop(self) -> None:
        """Ask the reader to close its connections and finish."""
        self._control.close()

    def close(self) -> None:
        import subprocess

        self.stop()
        super().close()
        try:
            self._proc.wait(timeout=READER_STOP_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


if __name__ == "__main__":
    # the reader process: python -m fallstream.reader LISTENER DATA CONTROL.
    # What import built lives as long as the process: frozen, neither a
    # later collection nor the interpreter's exit walks it.
    gc.freeze()
    # The reader's life is bound to the control pipe, not to signals: a
    # signal sent to every process of a service reaches the main process,
    # which stops the reader and takes its last counts.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    listener_fd, data_fd, control_fd = map(int, sys.argv[1:4])
    try:
        serve_reader(socket.socket(fileno=listener_fd), data_fd, control_fd)
    except BrokenPipeError:
        pass  # the main process has ended: no one takes the counts
