"""Daemon lifecycle: the asyncio server, the worker pool, clean shutdown.

Concurrency model, in one paragraph: the event loop owns every socket
and all queue/registry state; ``workers`` coroutines pull jobs off the
admission queue and hand each to a thread pool of the same size, where
:meth:`~repro.serve.app.ServeApp.execute` does the blocking
verification work (the runtime's engines and process-pool fan-out are
synchronous by design).  HTTP stays responsive while every worker is
busy — status polls, event streams and 429 shedding are all event-loop
work.  Shutdown closes the listener, cancels the pullers, flags every
running job for cooperative cancellation, drains the thread pool, and
flushes/closes every pooled runner so cache warmth reaches disk.

:func:`running_server` runs the whole lifecycle on a background thread
— the harness tests and any embedding code use it; the CLI's blocking
entry point is :func:`run`.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..config import RuntimeConfig
from .app import ServeApp
from .http import HttpError, Response, StreamResponse, read_request
from .jobs import DONE_RETENTION
from .journal import JobJournal

#: Seconds a test harness waits for the background server to come up.
STARTUP_TIMEOUT_S = 30.0


@dataclass
class ServeConfig:
    """Everything ``fannet serve`` needs to boot."""

    host: str = "127.0.0.1"
    port: int = 8414  # 0 = ephemeral (tests)
    workers: int = 2
    max_pending: int = 16
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    #: Directory of the write-ahead job journal; ``None`` disables
    #: crash-safety (a restart then drops queued/running jobs).
    journal_dir: str | None = None
    #: Terminal jobs kept in the in-memory registry before FIFO
    #: eviction (journal-backed lookups extend well past this).
    done_retention: int = DONE_RETENTION

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.done_retention < 1:
            raise ValueError("done_retention must be >= 1")


class FannetServer:
    """One daemon instance; start/stop run on its event loop."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.app = ServeApp(
            workers=config.workers,
            max_pending=config.max_pending,
            runtime=config.runtime,
            done_retention=config.done_retention,
        )
        self.port: int | None = None  # actual bound port once started
        #: Boot report of the journal replay (``None`` without a journal).
        self.replayed: dict | None = None
        self._server: asyncio.AbstractServer | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._pullers: list[asyncio.Task] = []

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        self.app.queue.bind_loop(asyncio.get_running_loop())
        if self.config.journal_dir is not None:
            # Replay before the listener opens: a client polling through
            # a restart must never observe a 404 window mid-replay.
            self.replayed = self.app.attach_journal(
                JobJournal(self.config.journal_dir)
            )
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="fannet-serve"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._pullers = [
            asyncio.ensure_future(self._worker())
            for _ in range(self.config.workers)
        ]

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._pullers:
            task.cancel()
        await asyncio.gather(*self._pullers, return_exceptions=True)
        # Running jobs stop at their next cancellation checkpoint; the
        # executor drain below waits for them, bounded by that.  With a
        # journal these drain cancellations are *not* journaled as
        # terminal — the journal keeps believing the jobs are queued or
        # running, so the next boot re-admits them (a graceful restart
        # resumes work exactly like a crash recovery does).
        if self.app.journal is not None:
            self.app.journal.begin_shutdown()
        for job in list(self.app.queue.jobs.values()):
            if not job.done:
                self.app.queue.cancel(job.id)
        if self._executor is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: self._executor.shutdown(wait=True)
            )
        self.app.shutdown()

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    # -- workers -----------------------------------------------------------------

    async def _worker(self) -> None:
        """Pull jobs and run them on the thread pool, forever."""
        loop = asyncio.get_running_loop()
        while True:
            job = await self.app.queue.next_job()
            # execute() never raises; pool size == puller count, so this
            # never queues behind another job inside the executor.
            await loop.run_in_executor(self._executor, self.app.execute, job)

    # -- connections -------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        response: Response | StreamResponse
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return  # clean EOF before a request
                response = await self.app.handle(request)
            except HttpError as err:
                response = Response.error(err.status, err.message, err.headers)
            except (asyncio.IncompleteReadError, ConnectionError):
                return  # client hung up mid-request: nothing to answer
            except Exception as err:  # route bug: answer 500, keep serving
                response = Response.error(500, f"internal error: {err!r}")
            try:
                if isinstance(response, StreamResponse):
                    writer.write(response.encode_head())
                    await writer.drain()
                    async for chunk in response.chunks:
                        writer.write(chunk)
                        await writer.drain()
                else:
                    writer.write(response.encode())
                    await writer.drain()
            except (ConnectionError, TimeoutError):
                # A client vanishing mid-stream is its problem, not the
                # daemon's: drop the connection, keep every job running.
                if isinstance(response, StreamResponse):
                    with contextlib.suppress(Exception):
                        await response.chunks.aclose()
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()


def run(config: ServeConfig, announce=None) -> None:
    """Blocking daemon entry point (the ``fannet serve`` command)."""

    async def main():
        server = FannetServer(config)
        await server.start()
        if announce is not None:
            announce(server)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass  # clean Ctrl-C: stop() already flushed the runners


@contextlib.contextmanager
def running_server(config: ServeConfig):
    """A live :class:`FannetServer` on a background thread (tests/embedding).

    Yields the started server (``server.url`` is the base URL); tears it
    down — cancelling in-flight jobs and flushing runner caches — on
    exit, re-raising any startup failure in the caller's thread.
    """
    loop = asyncio.new_event_loop()
    server = FannetServer(config)
    started = threading.Event()
    boot_error: list[BaseException] = []

    def drive():
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as err:  # surface boot failures to the caller
            boot_error.append(err)
            started.set()
            return
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=drive, name="fannet-serve-loop", daemon=True)
    thread.start()
    if not started.wait(STARTUP_TIMEOUT_S):
        raise TimeoutError("fannet serve failed to start in time")
    if boot_error:
        raise boot_error[0]
    try:
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(timeout=120)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        loop.close()
