"""The environment a result was measured in, recorded with every result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

# symbols OpenBLAS builds export, with and without the scipy-openblas prefix
_BLAS_THREADS = ("scipy_openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads")
_BLAS_CONFIG = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                "openblas_get_config64_", "openblas_get_config")


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _blas_libraries() -> list[dict]:
    """Every BLAS library mapped into this process, with its thread count."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh
                            if ln.split()[-1].startswith("/")})
        paths = [p for p in paths if os.path.basename(p).startswith("lib")
                 and "blas" in os.path.basename(p).lower()]
    except OSError:
        return []
    libs = []
    for path in paths:
        entry = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError as exc:
            entry["error"] = str(exc)
            libs.append(entry)
            continue
        for name in _BLAS_THREADS:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                entry["threads"] = fn()
                break
        for name in _BLAS_CONFIG:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_char_p
                entry["config"] = fn().decode()
                break
        libs.append(entry)
    return libs


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit(root: Path) -> str | None:
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path) -> dict:
    """Call after numpy and scipy.linalg are imported, so their BLAS
    libraries are mapped."""
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS", "DIRAC_MFP_THREADS")
                     if k in os.environ},
        "cache": _cache_sizes(),
        "commit": _commit(root),
        "src_sha256": source_digest(root / "src"),
        "machine": platform.machine(),
        "note": "the file cache cannot be dropped here, so setup_s is a "
                "warm-cache import",
    }
