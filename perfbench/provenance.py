"""Where a run's numbers come from: code version, toolchain and machine."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess

import numpy as np


def git_sha(root: str) -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def l3_bytes() -> int | None:
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="ascii") as handle:
            text = handle.read().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def blas() -> str:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info.get('name')} {info.get('version')}"


def blas_threads(nproc: int) -> int | None:
    """Threads numpy's bundled OpenBLAS will use, capped at ``nproc``; None if unknown."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*.so*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return min(getter(), nproc)
    return None


def collect(root: str, seed: int, array_bytes: int) -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {
        "seed": seed,
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
        "blas_threads": blas_threads(nproc),
        "nproc": nproc,
        "l3_bytes": l3_bytes(),
        "array_bytes": array_bytes,
    }
