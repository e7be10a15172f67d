"""Optional compiled accelerators for the repro runtime.

Two hand-written CPython extensions live here:

- ``_ctasklet`` — single-threaded stack-switching continuations, the
  default goroutine vehicle.  CPython 3.11 / x86-64 Linux only.
- ``_hotloop`` — the fused per-step scheduler loop plus a bit-identical
  MT19937 ``BatchedRandom`` and array-backed vector clocks.

Both are compiled lazily with the system C compiler on first import and
cached next to the sources (or under ``REPRO_EXT_CACHE`` when the tree is
read-only).  Everything is gated: when the toolchain, platform, or Python
version doesn't match, the accessors return ``None`` and callers fall back
to pure-Python implementations with identical observable behaviour.

Set ``REPRO_NO_CEXT=1`` to force the pure-Python paths (used by the
compiled-vs-pure parity tests and as an escape hatch).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import sysconfig
import types
from typing import Optional

_EXT_DIR = os.path.dirname(os.path.abspath(__file__))

# module name -> cached module, False = tried and failed, None = not tried
_loaded: dict = {}


def _disabled() -> bool:
    return os.environ.get("REPRO_NO_CEXT", "") not in ("", "0")


def _platform_ok(name: str) -> bool:
    if sys.platform != "linux":
        return False
    if sys.implementation.name != "cpython":
        return False
    if name == "_ctasklet":
        # Stack switching is version- and ABI-specific.
        import platform

        if sys.version_info[:2] != (3, 11):
            return False
        if platform.machine() not in ("x86_64", "AMD64"):
            return False
    return True


def _cache_dir() -> str:
    override = os.environ.get("REPRO_EXT_CACHE")
    if override:
        os.makedirs(override, exist_ok=True)
        return override
    return _EXT_DIR


def _so_path(name: str, src: str) -> Optional[str]:
    """Cache path for the built .so, keyed on the *content* of the source.

    A short sha256 of the .c file rides in the filename, so a cache
    directory shared across machines or CI jobs (``REPRO_EXT_CACHE``) is
    correct by construction: a source change produces a different name and
    a stale cache entry can never be picked up, regardless of checkout
    mtimes.
    """
    try:
        with open(src, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()[:12]
    except OSError:
        return None
    tag = f"cpython-{sys.version_info[0]}{sys.version_info[1]}"
    return os.path.join(_cache_dir(), f"{name}.{digest}.{tag}-{sys.platform}.so")


def _compile(name: str) -> Optional[str]:
    """Compile ``<name>.c`` into a cached .so; return its path or None."""
    src = os.path.join(_EXT_DIR, f"{name}.c")
    if not os.path.exists(src):
        return None
    so = _so_path(name, src)
    if so is None:
        return None
    if os.path.exists(so):
        return so
    cc = os.environ.get("CC") or "cc"
    include = sysconfig.get_path("include")
    tmp = so + f".tmp{os.getpid()}"
    cmd = [
        cc,
        "-O2",
        "-g0",
        "-fPIC",
        "-shared",
        "-fno-strict-aliasing",
        f"-I{include}",
        src,
        "-o",
        tmp,
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=False
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return None
    try:
        os.replace(tmp, so)  # atomic: concurrent builders race harmlessly
    except OSError:
        return None
    return so


def _import_so(name: str, so: str) -> Optional[types.ModuleType]:
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, so)
    if spec is None or spec.loader is None:
        return None
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except Exception:
        return None
    return module


def load_ext(name: str) -> Optional[types.ModuleType]:
    """Load a compiled extension by name, building it if needed.

    Returns None (and remembers the failure) when disabled, unsupported,
    or the build doesn't work here.
    """
    cached = _loaded.get(name)
    if cached is not None:
        return cached if cached is not False else None
    if _disabled() or not _platform_ok(name):
        _loaded[name] = False
        return None
    so = _compile(name)
    module = _import_so(name, so) if so else None
    _loaded[name] = module if module is not None else False
    return module


def get_ctasklet() -> Optional[types.ModuleType]:
    return load_ext("_ctasklet")


def get_hotloop() -> Optional[types.ModuleType]:
    return load_ext("_hotloop")
