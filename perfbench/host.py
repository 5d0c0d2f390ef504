"""Host fingerprint and process memory probes.

A timing only means something next to the machine and software that
produced it, so every recorded result carries :func:`fingerprint`;
results whose fingerprints differ in anything but the code identity
(``git_sha``, ``src_digest``) come from different hosts or stacks and
are not to be compared.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or ``None`` when it is no git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def src_digest(root: Path) -> str:
    """SHA-256 over the package sources: the code identity even where
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(root: Path, *, backend: str, transport: str | None,
                topology) -> dict:
    import numpy

    return {
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(root),
        "src_digest": src_digest(root),
        "backend": backend,
        "transport": transport,
        "topology": list(topology) if topology else None,
    }


def peak_rss_mib(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def pss_mib(pid: int | str = "self") -> float:
    """Proportional set size of a live process, in MiB: each resident
    page divided by the number of processes mapping it."""
    with open(f"/proc/{pid}/smaps_rollup", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("Pss:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no Pss for process {pid}")


def stop_helpers() -> None:
    """Stop the helper processes this process started and wait for them.

    The shared-memory arena of the sharded engine starts multiprocessing's
    resource tracker, a process made to outlive its parent that nothing
    ever waits for; it is stopped here (it unlinks whatever segment is
    left, then exits), so no process of a run survives it.  Any other
    multiprocessing child still alive is terminated and joined.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join()
    resource_tracker._resource_tracker._stop()


def child_pids() -> list[int]:
    """Live child processes of this process (e.g. forked shard workers)."""
    pids: list[int] = []
    task_dir = Path("/proc/self/task")
    for task in task_dir.iterdir():
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        pids.extend(int(p) for p in text.split())
    return pids
