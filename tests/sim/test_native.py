"""The compiled heap loop's own safety, and its loader's faults.

:mod:`repro.sim.native` builds ``_sweep.c`` when :mod:`repro.sim.full_sim`
is first imported.  The compiled loop must not leak and must raise, not
crash, on malformed input.  The loader must either load the extension or
fall back with a one-line reason: it never raises, and it leaves no
partial file behind.  Its bit identity with the Python loop is checked in
``test_sim_kernels.py``.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest

from repro.sim import full_sim, native

EXT = EXTENSION_SUFFIXES[0]
SRC = Path(native.__file__).resolve().parents[2]


@pytest.fixture
def compiled():
    if full_sim._compiled_sweep is None:
        pytest.skip(f"no compiled loop: {full_sim.SWEEP_NOTE}")
    return full_sim._compiled_sweep


def diamond():
    """``_sweep``'s arguments for a 4-task diamond on 2 devices: 0 feeds 1
    and 2, which feed 3."""
    heap = [(0.0, 0, 0)]
    exe = [1.0, 2.0, 0.5, 1.5]
    dev = [0, 0, 1, 1]
    rank = [0, 1, 2, 3]
    outs = [[1, 2], [3], [3], []]
    indeg = [0, 1, 1, 2]
    return [heap, exe, dev, rank, outs, indeg, [0.0] * 4, [0.0] * 4, [-1.0] * 4, [0.0, 0.0]]


class TestCompiledLoop:
    def test_it_is_the_bound_loop_and_runs_a_sweep(self, compiled):
        assert full_sim.SWEEP == "compiled" and full_sim.SWEEP_NOTE == ""
        assert full_sim._sweep is compiled
        args = diamond()
        assert compiled(*args) is True
        heap, _, _, _, _, indeg, ready, start, end, dev_end = args
        assert heap == [] and indeg == [0, 0, 0, 0]
        assert (ready, start, end, dev_end) == (
            [0.0, 1.0, 1.0, 3.0], [0.0, 1.0, 1.0, 3.0], [1.0, 3.0, 1.5, 4.5], [3.0, 4.5]
        )
        # A start is the ready time or the device's last end time, and a
        # successor's ready time is its predecessor's end: no new floats.
        assert start[1] is end[0] and ready[3] is end[1] and dev_end[1] is end[3]

    def test_a_bound_stops_the_sweep(self, compiled):
        # Device 1 idles 1.0 before task 2 and 1.5 before task 3, so its
        # bound ends at its load plus 2.5, and only a larger one stops.
        heap, exe, dev, rank, outs, indeg, ready, start, end, dev_end = diamond()
        assert compiled(heap, exe, dev, rank, outs, indeg, ready, start, end, dev_end,
                        lb=[3.0, 2.0], bound=4.4) is False
        lb = [3.0, 2.0]
        assert compiled(*diamond(), lb, 4.5) is True and lb == [3.0, 4.5]
        assert compiled(*diamond(), None, math.inf) is True

    def test_no_leak_over_many_sweeps(self, compiled):
        def sweeps(n):
            for _ in range(n):
                assert compiled(*diamond()) is True
                assert compiled(*diamond(), [3.0, 2.0], 4.5) is True
                # Task 2 pops first and stops the sweep with task 1 queued.
                args = diamond()
                args[3] = [0, 2, 1, 3]
                assert compiled(*args, [3.0, 2.0], 2.5) is False

        sweeps(50)  # warm every free list
        blocks = sys.getallocatedblocks()
        sweeps(700)
        assert sys.getallocatedblocks() - blocks < 100
        tracemalloc.start()
        try:
            sweeps(50)
            before = tracemalloc.get_traced_memory()[0]
            sweeps(700)
            assert tracemalloc.get_traced_memory()[0] - before < 10_000
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "field, value, error",
        [
            pytest.param(0, [(0.0, 0, 9)], IndexError, id="slot-past-the-end"),
            pytest.param(0, [(0.0, 0, -1)], IndexError, id="negative-slot"),
            pytest.param(0, [[0.0, 0, 0]], TypeError, id="list-entry"),
            pytest.param(0, [(0.0, 0)], TypeError, id="short-tuple"),
            pytest.param(0, [("soon", 0, 0)], TypeError, id="ready-not-a-number"),
            pytest.param(0, [(0.0, 1 << 64, 0)], OverflowError, id="rank-past-64-bits"),
            pytest.param(4, [[5], [3], [3], []], IndexError, id="successor-past-the-end"),
            pytest.param(4, [[-2], [3], [3], []], IndexError, id="negative-successor"),
            pytest.param(2, [7, 0, 1, 1], IndexError, id="device-past-the-end"),
            pytest.param(1, (1.0, 2.0, 0.5, 1.5), TypeError, id="tuple-column"),
            pytest.param(4, [None, [3], [3], []], TypeError, id="row-not-a-sequence"),
        ],
    )
    def test_malformed_input_raises(self, compiled, field, value, error):
        args = diamond()
        args[field] = value
        with pytest.raises(error):
            compiled(*args)

    def test_a_bad_lb_raises(self, compiled):
        with pytest.raises(TypeError):
            compiled(*diamond(), (3.0, 2.0), 1.0)
        with pytest.raises(IndexError):
            compiled(*diamond(), [3.0], 4.0)  # device 1 has no entry


def built_files(cache):
    return sorted(p.name for p in cache.iterdir()) if cache.exists() else []


class TestLoader:
    def test_a_built_file_is_loaded_not_rebuilt(self, tmp_path, monkeypatch):
        fn, why = native.load_sweep(tmp_path)
        assert fn is not None and why == ""
        [name] = built_files(tmp_path)
        assert name.startswith("_sweep_") and name.endswith(EXT)

        def refuse(*args):
            raise AssertionError("rebuilt")

        monkeypatch.setattr(native, "_compile", refuse)
        again, why = native.load_sweep(tmp_path)
        assert again is not None and why == ""
        args = diamond()
        assert again(*args) is True and args[8] == [1.0, 3.0, 1.5, 4.5]

    def test_a_missing_compiler_falls_back(self, tmp_path):
        fn, why = native.load_sweep(tmp_path, [str(tmp_path / "no-such-cc")])
        assert fn is None and "not found" in why and "\n" not in why
        assert built_files(tmp_path) == []

    def test_a_failing_compiler_falls_back_and_leaves_no_partial_file(self, tmp_path):
        # It writes half an output, then fails.
        cc = [sys.executable, "-c",
              "import sys; open(sys.argv[-1], 'w').write('half'); "
              "print('x.c:1: error: no', file=sys.stderr); sys.exit(3)"]
        fn, why = native.load_sweep(tmp_path, cc)
        assert fn is None
        assert why == f"{sys.executable} exited with status 3: x.c:1: error: no"
        assert built_files(tmp_path) == []

    def test_a_hung_compiler_times_out(self, tmp_path, monkeypatch):
        monkeypatch.setattr(native, "TIMEOUT_S", 0.5)
        fn, why = native.load_sweep(tmp_path, [sys.executable, "-c", "import time; time.sleep(60)"])
        assert fn is None and why.endswith("timed out after 0.5 s")
        assert built_files(tmp_path) == []

    def test_a_bad_build_fails_to_load(self, tmp_path):
        cc = [sys.executable, "-c", "import sys; open(sys.argv[-1], 'w').write('not a library')"]
        fn, why = native.load_sweep(tmp_path, cc)
        assert fn is None and why.startswith("ImportError: ")

    def test_a_build_deletes_other_sources_and_keeps_other_interpreters(self, tmp_path):
        # The "compiler" writes a file that does not load: the pruning
        # runs once a build is published, whether or not it loads.
        cc = [sys.executable, "-c", "import sys; open(sys.argv[-1], 'w').write('stub')"]
        native.load_sweep(tmp_path / "probe", cc)
        [name] = built_files(tmp_path / "probe")  # _sweep_<source>_<interpreter><EXT>
        source, interpreter = name[len("_sweep_"):-len(EXT)].split("_")
        cache = tmp_path / "cache"
        cache.mkdir()
        stale = [f"_sweep_{'0' * 16}_{interpreter}{EXT}", f"_sweep_{'1' * 16}{EXT}"]
        other_interpreter = f"_sweep_{source}_{'f' * 8}{EXT}"
        in_flight = f".{name}.abc.tmp"  # another process's build, not yet published
        for planted in stale + [other_interpreter, in_flight]:
            (cache / planted).write_text("")
        native.load_sweep(cache, cc)
        assert built_files(cache) == sorted([in_flight, name, other_interpreter])
        # A warm load deletes nothing.
        (cache / stale[0]).write_text("")
        native.load_sweep(cache, cc)
        assert built_files(cache) == sorted([in_flight, name, other_interpreter, stale[0]])

    def test_an_unwritable_cache_builds_in_a_temporary_directory(self, tmp_path, monkeypatch):
        # The cache's parent is a file, so the cache cannot be made.
        (tmp_path / "file").write_text("")
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr("tempfile.tempdir", str(scratch))
        fn, why = native.load_sweep(tmp_path / "file" / "__pycache__")
        assert fn is not None and why == ""
        args = diamond()
        assert fn(*args) is True and args[8] == [1.0, 3.0, 1.5, 4.5]
        assert list(scratch.iterdir()) == []  # removed once loaded

    def test_two_processes_building_at_once_both_load(self, tmp_path):
        code = (
            "import sys; from pathlib import Path; from repro.sim.native import load_sweep; "
            "fn, why = load_sweep(Path(sys.argv[1])); print('compiled' if fn else why)"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        ))
        procs = [
            subprocess.Popen([sys.executable, "-c", code, str(tmp_path)], env=env,
                             stdout=subprocess.PIPE, text=True)
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=300)[0].strip() for p in procs]
        assert outs == ["compiled", "compiled"]
        [name] = built_files(tmp_path)
        assert name.endswith(EXT)


def test_sweep_names_the_loop_and_only_a_fallback_has_a_reason():
    assert full_sim.SWEEP in ("compiled", "python")
    assert (full_sim.SWEEP == "python") == bool(full_sim.SWEEP_NOTE)
    bound = full_sim._python_sweep if full_sim.SWEEP == "python" else full_sim._compiled_sweep
    assert full_sim._sweep is bound
