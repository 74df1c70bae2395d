"""The benchmark-owned launcher of the what-if HTTP service.

The server runs in a child process (``run.py --serve``) with the server
defaults of ``python -m repro.cli serve``: compiled backend, R+PS+DS,
``shards="auto"``, fsync on, checkpoint interval 32.  The parent talks to
it over HTTP through ``ServiceClient`` and controls it over the child's
stdin, one command a line:

* ``trace`` installs the layer wrappers in the child; replies ``OK``,
* ``untrace`` removes them again, keeping the spans; replies ``OK``,
* ``stop`` (or end of input) shuts the server down gracefully, writes
  the child's spans if it traced, and replies ``STOPPED``.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

__all__ = ["ServerProcess", "serve"]

RUN_PY = pathlib.Path(__file__).resolve().parent / "run.py"


def serve(root: str, trace_out: str) -> int:
    """Child entry point: serve until told to stop."""
    from repro.service import WhatIfServer, WhatIfService

    from .spans import Tracer, chrome_events, summarize

    service = WhatIfService(
        root, default_shards="auto", checkpoint_interval=32, sync=True
    )
    server = WhatIfServer(service, port=0).start_background()
    print("READY", server.url, flush=True)
    tracer = Tracer()
    traced = False
    for line in sys.stdin:
        command = line.strip()
        if command == "trace":
            tracer.install()
            traced = True
            print("OK", flush=True)
        elif command == "untrace":
            tracer.uninstall()
            print("OK", flush=True)
        elif command == "stop":
            break
    # Shut down before reading the spans, so no request is still running.
    server.shutdown()
    tracer.uninstall()
    if traced:
        pathlib.Path(trace_out).write_text(json.dumps({
            "layers": summarize(tracer.spans),
            "plan_cache": tracer.plan_cache,
            "events": chrome_events(tracer.spans, os.getpid(), "server"),
        }))
    print("STOPPED", flush=True)
    return 0


class ServerProcess:
    """Parent-side handle of one server child."""

    def __init__(self, root: pathlib.Path, trace_out: pathlib.Path) -> None:
        self.trace_out = trace_out
        self.process = subprocess.Popen(
            [sys.executable, str(RUN_PY), "--serve", str(root),
             "--trace-out", str(trace_out)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.url = self._expect("READY").split()[1]

    def _expect(self, word: str) -> str:
        line = self.process.stdout.readline()
        if not line.startswith(word):
            self.kill()
            raise RuntimeError(f"server child replied {line!r}, not {word}")
        return line

    def _send(self, command: str) -> None:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()

    def trace(self, on: bool) -> None:
        """Install (``on``) or remove the layer wrappers in the child."""
        self._send("trace" if on else "untrace")
        self._expect("OK")

    def peak_rss_mb(self) -> float:
        """The child's peak resident memory (VmHWM), read from outside."""
        return peak_rss_mb(self.process.pid)

    def stop(self) -> dict | None:
        """Stop the child; returns its trace when it was tracing."""
        self._send("stop")
        self._expect("STOPPED")
        self.process.stdin.close()
        self.process.wait(timeout=60)
        self.process.stdout.close()
        if not self.trace_out.exists():
            return None
        return json.loads(self.trace_out.read_text())

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=60)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")
