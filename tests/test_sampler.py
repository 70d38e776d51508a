"""Statistical stack sampling against known workloads."""

from __future__ import annotations

import gc
import threading
from types import SimpleNamespace

import planeprof.instrument.sampler as sampler_module
from planeprof.instrument.events import EventKind
from planeprof.instrument.sampler import StackSampler, _stack_from_frame, sample_shares


def spin_named(flag: list) -> None:
    # busy body with no method calls, so samples land in this very frame
    x = 0
    while flag[0]:
        x += 1


def burn_alpha(flag):
    x = 0
    while flag[0]:
        x += 1


def burn_beta(flag):
    x = 0
    while flag[0]:
        x += 1


class TestSampler:
    def test_frame_without_a_line_names_its_def_line(self):
        # a thread sampled on an instruction without a line has f_lineno None
        code = spin_named.__code__
        caller = SimpleNamespace(f_code=burn_alpha.__code__, f_lineno=19, f_back=None)
        frame = SimpleNamespace(f_code=code, f_lineno=None, f_back=caller)
        outer, inner = _stack_from_frame(frame)
        assert (outer.symbol, outer.line) == ("burn_alpha", 19)
        assert (inner.symbol, inner.line) == ("spin_named", code.co_firstlineno)

    def test_snapshot_runs_alone_with_collection_off(self, monkeypatch):
        # a collection inside sys._current_frames() can stop every thread
        # on CPython before 3.12
        seen = []

        def snapshot():
            seen.append((gc.isenabled(), sampler_module._SNAPSHOT_LOCK.locked()))
            return {}

        monkeypatch.setattr(sampler_module, "sys", SimpleNamespace(_current_frames=snapshot))
        assert gc.isenabled()
        sampler_module._current_frames()
        assert gc.isenabled()
        gc.disable()
        try:
            sampler_module._current_frames()
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert seen == [(False, True), (False, True)]

    def test_busy_loop_attribution(self, recorder):
        flag = [True]
        worker = threading.Thread(target=spin_named, args=(flag,))
        worker.start()
        try:
            sampler = StackSampler(recorder, interval_ms=10.0, targets=[worker.ident])
            run = sampler.run(1.0)
        finally:
            flag[0] = False
            worker.join()
        samples = [e for e in recorder.events() if e.kind is EventKind.SAMPLE]
        assert run.samples == len(samples)
        shares = sample_shares(samples)
        assert shares.get("spin_named", 0.0) >= 90.0
        # sampling count tracks duration/interval for an idle-free workload
        assert abs(run.ticks - 100) <= 20

    def test_zero_duration_gives_empty_stream(self, recorder):
        sampler = StackSampler(recorder, interval_ms=10.0)
        run = sampler.run(0.0)
        assert run.ticks == 0
        assert run.samples == 0
        assert recorder.events() == []

    def test_two_burning_threads_split_evenly(self, recorder):
        flag = [True]
        a = threading.Thread(target=burn_alpha, args=(flag,))
        b = threading.Thread(target=burn_beta, args=(flag,))
        a.start()
        b.start()
        try:
            sampler = StackSampler(
                recorder, interval_ms=10.0, targets=[a.ident, b.ident]
            )
            sampler.run(0.8)
        finally:
            flag[0] = False
            a.join()
            b.join()
        shares = sample_shares(e for e in recorder.events() if e.kind is EventKind.SAMPLE)
        assert abs(shares.get("burn_alpha", 0.0) - 50.0) <= 10.0
        assert abs(shares.get("burn_beta", 0.0) - 50.0) <= 10.0

    def test_target_termination_flags_partial_run(self, recorder):
        flag = [True]
        worker = threading.Thread(target=spin_named, args=(flag,))
        worker.start()
        threading.Timer(0.15, lambda: flag.__setitem__(0, False)).start()
        sampler = StackSampler(recorder, interval_ms=10.0, targets=[worker.ident])
        run = sampler.run(2.0)
        worker.join()
        assert run.target_terminated
        assert 0 < run.ticks < 60  # stopped early, partial stream kept

    def test_samples_carry_subject_thread_id(self, recorder):
        flag = [True]
        worker = threading.Thread(target=spin_named, args=(flag,))
        worker.start()
        try:
            sampler = StackSampler(recorder, interval_ms=20.0, targets=[worker.ident])
            sampler.run(0.2)
        finally:
            flag[0] = False
            worker.join()
        samples = [e for e in recorder.events() if e.kind is EventKind.SAMPLE]
        assert samples
        assert {e.thread_id for e in samples} == {worker.ident}
        for e in samples:
            assert e.stack
            assert e.site == e.stack[-1]
