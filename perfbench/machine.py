"""What a result was measured on: the code, the machine and the toolchain.

Everything is read, never changed: the commit from .git when the tree is a
git checkout, a digest of the package sources in every case, core count,
CPU model and RAM from the OS, and cache sizes from sysfs.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import os
import platform
from pathlib import Path


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def commit(root: Path) -> str:
    """HEAD of the checkout at root, or "unknown" outside a git checkout."""
    head = _read(root / ".git" / "HEAD")
    if head is None:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(root / ".git" / ref)
    if sha:
        return sha
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for f in sorted((root / "src" / "cubecount").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _size_bytes(text: str) -> int | None:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in units and text[:-1].isdigit():
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text and text.isdigit() else None


def caches() -> dict[str, int]:
    """Per-instance data/unified cache sizes of cpu0, keyed "L1", "L2", "L3"."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        if _read(index / "type") == "Instruction":
            continue
        level, size = _read(index / "level"), _size_bytes(_read(index / "size") or "")
        if level and size:
            out[f"L{level}"] = size
    return out


def cpu_model() -> str:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.machine()


def ram_bytes() -> int | None:
    for line in (_read(Path("/proc/meminfo")) or "").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) * 1024
    return None


def describe(root: Path) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_bytes": ram_bytes(),
        "cache_bytes_per_instance": caches(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
