"""Build and load the compiled heap loop, ``_sweep.c``.

:mod:`repro.sim.full_sim` calls :func:`load_sweep` once, when it is first
imported.  The C source is compiled with the compiler Python was built
with (``sysconfig``'s ``CC``) into this package's ``__pycache__``.  The
file is named by two hashes, one of the source and the compiler flags and
one of ``sys.version`` (which names that compiler too), so a later
import, a pool worker's included, loads the built file in about a
millisecond, and an edited source or another interpreter builds its own.
That warm path reads no ``sysconfig`` data: loading it would add about
0.2 MB to every process's peak memory.  A build writes a temporary file
in that directory and publishes it with :func:`os.replace`, so processes
that import at once each load a whole file, and then deletes the builds
of every other source.  It keeps other interpreters' builds of this
source: interpreters that share an extension suffix (3.11.7 and 3.11.8)
would otherwise evict each other and rebuild on every import.  If
``__pycache__`` cannot be written, the build goes to a fresh temporary
directory instead, which is removed once the extension is loaded.

Nothing here may stop an import.  Any failure (no compiler, a compiler
error, a timeout, a load error) makes :func:`load_sweep` return ``None``
and a one-line reason, and the simulator runs the Python loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from typing import Callable

__all__ = ["load_sweep"]

SOURCE = Path(__file__).with_name("_sweep.c")
CACHE = SOURCE.with_name("__pycache__")
# No -ffast-math, no -march=native and no contracted multiply-adds: the
# loop must round every sum exactly as Python does.
FLAGS = ["-O2", "-ffp-contract=off", "-fPIC", "-shared"]
TIMEOUT_S = 120


class _BuildError(Exception):
    pass


def _compiler_command() -> list[str]:
    """The command that compiles ``_sweep.c``, without its file arguments."""
    cmd = shlex.split(sysconfig.get_config_var("CC") or "cc") + FLAGS
    if sys.platform == "darwin":
        cmd += ["-undefined", "dynamic_lookup"]
    return cmd + ["-I", sysconfig.get_paths()["include"]]


def load_sweep(cache: Path = CACHE, command: list[str] | None = None
               ) -> tuple[Callable | None, str]:
    """``(the compiled _sweep, "")``, or ``(None, why it is unavailable)``.

    Loads the extension built into ``cache``, building it first with
    ``command`` (by default :func:`_compiler_command`) if it is not there.
    """
    try:
        source = hashlib.sha256(SOURCE.read_bytes() + b"\0" + shlex.join(FLAGS).encode())
        interpreter = hashlib.sha256(sys.version.encode())
        prefix = f"_sweep_{source.hexdigest()[:16]}_"
        path = cache / f"{prefix}{interpreter.hexdigest()[:8]}{EXTENSION_SUFFIXES[0]}"
        if path.exists():
            return _load(path), ""
        cmd = _compiler_command() if command is None else command
        try:
            cache.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=cache)
        except OSError:
            with tempfile.TemporaryDirectory(prefix="repro-sweep-") as scratch:
                own = Path(scratch) / path.name
                _compile(cmd, own)
                return _load(own), ""
        os.close(fd)
        try:
            _compile(cmd, tmp)
            os.chmod(tmp, 0o755)  # mkstemp made it private
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        for old in cache.glob("_sweep_*"):  # temporary files start with "."
            if not old.name.startswith(prefix):
                with contextlib.suppress(OSError):
                    old.unlink()
        return _load(path), ""
    except Exception as exc:
        why = str(exc) if isinstance(exc, _BuildError) else f"{type(exc).__name__}: {exc}"
        return None, " ".join(why.split())


def _compile(cmd: list[str], out) -> None:
    try:
        proc = subprocess.run(
            [*cmd, str(SOURCE), "-o", str(out)],
            capture_output=True, text=True, errors="replace", timeout=TIMEOUT_S,
        )
    except FileNotFoundError:
        raise _BuildError(f"compiler {cmd[0]!r} not found") from None
    except subprocess.TimeoutExpired:
        raise _BuildError(f"{cmd[0]} timed out after {TIMEOUT_S} s") from None
    if proc.returncode:
        lines = proc.stderr.strip().splitlines() or ["no output"]
        first = next((line for line in lines if "error" in line), lines[0])
        raise _BuildError(f"{cmd[0]} exited with status {proc.returncode}: {first}")


def _load(path: Path) -> Callable:
    spec = importlib.util.spec_from_file_location("repro.sim._sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._sweep
