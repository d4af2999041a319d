"""Run the repetitions of one workload, each in its own process.

The driver process imports the program once, then forks one child per
repetition, strictly one after another (the box has two CPUs; two
children at once would measure each other). Every child therefore
starts from the same post-import heap, and the import cost is paid —
and measured — once per run instead of once per repetition.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Dict, List, Optional

from bench_e2e.section import run_section
from bench_e2e.trace import PhaseRecorder
from bench_e2e.workloads import WORKLOADS

__all__ = ["OUT_DIR", "SECTION_TIMEOUT_S", "measure"]

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: A repetition takes 3-8 s; one that takes a minute is stuck.
SECTION_TIMEOUT_S = 60.0

_STDERR_TAIL_BYTES = 2000


def _child(conn: Any, stderr_path: str, args: tuple) -> None:
    # The child's stderr goes to a file so the driver can quote its tail
    # if the child dies without sending a record.
    fd = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(fd, 2)
    os.close(fd)
    conn.send(run_section(*args))
    conn.close()


def _stderr_tail(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            fh.seek(max(fh.tell() - _STDERR_TAIL_BYTES, 0))
            return fh.read().decode(errors="replace").strip()
    except OSError:
        return ""


def spawn_section(
    workload: str, seed: int, mode: str, quick: bool, imports: Dict[str, float],
    planned_ops: int, timeout: float = SECTION_TIMEOUT_S,
) -> Dict[str, Any]:
    """Fork one repetition and wait for its record. A child that dies or
    overruns ``timeout`` yields a record with ``error`` set and no
    operation completed; it never takes the driver down with it."""
    os.makedirs(OUT_DIR, exist_ok=True)
    stderr_path = os.path.join(OUT_DIR, f"{workload}.{mode}.stderr")
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_child,
        args=(send, stderr_path, (workload, seed, mode, quick, imports, OUT_DIR)),
    )
    proc.start()
    send.close()
    record: Optional[Dict[str, Any]] = None
    reason = f"timed out after {timeout:.0f}s"
    try:
        if recv.poll(timeout):
            record = recv.recv()
    except (EOFError, OSError):
        reason = "died before sending its record"
    finally:
        recv.close()
        proc.join(5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    if record is None:
        record = {
            "workload": workload, "seed": seed, "mode": mode, "quick": quick,
            "ops_planned": planned_ops, "ops_done": 0, "warnings": [],
            "error": f"repetition {reason} (exit code {proc.exitcode}); "
                     f"stderr tail:\n{_stderr_tail(stderr_path)}",
        }
    return record


def measure(
    workload: str,
    seed: int,
    imports: Dict[str, float],
    *,
    counted: bool,
    traced: bool,
    min_timed: int,
    seconds: Optional[float] = None,
    quick: bool = False,
) -> List[Dict[str, Any]]:
    """All repetitions of one workload: the counted and traced ones
    first, then timed ones — ``min_timed`` of them, and more while
    another one still fits in the ``seconds`` budget (wall time since
    this call)."""
    started = time.perf_counter()
    planned_ops = WORKLOADS[workload](seed, quick, PhaseRecorder()).planned_ops
    records: List[Dict[str, Any]] = []

    def run(mode: str) -> None:
        records.append(spawn_section(workload, seed, mode, quick, imports, planned_ops))

    if counted:
        run("counted")
    if traced:
        run("traced")
    timed_started = time.perf_counter()
    timed = 0
    while True:
        now = time.perf_counter()
        if timed >= min_timed:
            if seconds is None:
                break
            per_repetition = (now - timed_started) / timed
            if now - started + per_repetition > seconds:
                break
        run("timed")
        timed += 1
    return records
