"""The live ``/metrics`` endpoint.

The text (:func:`repro.obs.registry.prometheus`, the one writer)
follows the exposition format 0.0.4: ``# HELP`` and ``# TYPE`` headers
per metric family, one sample per line, histograms as cumulative
``_bucket{le=...}`` series plus ``_sum``/``_count``.
The server is a minimal asyncio HTTP/1.0 responder — just enough for
``curl`` and a Prometheus scraper — because a live run already owns an
event loop and must not grow a web-framework dependency.

Wiring: ``python -m repro live --metrics-port 9100`` starts the
endpoint next to the experiment; every scrape is
:meth:`repro.obs.instruments.Instruments.prometheus` — the registry its
feed tap keeps current, then the ``repro_demand_*``, ``repro_perf_*``
and ``repro_flow_*`` families of whichever planes the run has, each
yielded by the plane that owns the numbers.
"""

from __future__ import annotations

import asyncio
from typing import Callable

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MetricsServer:
    """Serves ``GET /metrics`` on localhost; ``render`` returns the
    text of one scrape."""

    def __init__(
        self, render: Callable[[], str], port: int, host: str = "127.0.0.1"
    ) -> None:
        self.render = render
        self.host = host
        self.port = port
        self.scrapes = 0
        self._server: asyncio.base_events.Server | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        # Port 0 means "pick one"; record what the OS chose.
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            parts = request_line.decode("latin-1", "replace").split()
            # Drain headers; HTTP/1.0 close-after-response keeps it simple.
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if line in (b"\r\n", b"\n", b""):
                    break
            if len(parts) >= 2 and parts[0] == "GET" and (
                parts[1] in ("/metrics", "/metrics/", "/")
            ):
                self.scrapes += 1
                body = self.render().encode("utf-8")
                status = "200 OK"
            else:
                body = b"try GET /metrics\n"
                status = "404 Not Found"
            writer.write(
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {CONTENT_TYPE}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n".encode("latin-1")
            )
            writer.write(body)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            writer.close()
