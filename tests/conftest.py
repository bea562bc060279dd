import os
import tempfile

import pytest


@pytest.fixture
def forks(monkeypatch, tmp_path):
    """The pids forked while the test runs, with the default temp directory
    one that does not exist (no worker creates a file) and
    ``OPENBLAS_NUM_THREADS`` set to one; afterwards every child is reaped and
    no temp file is left in ``tmp_path``, where tests write their outputs.

    The variable changes only what ``core.pool_map`` reads, so a pool runs
    one worker per usable CPU.  OpenBLAS keeps the thread count it read when
    numpy was imported: in a run with no thread pin, each worker still runs
    that many BLAS threads, and the usable CPUs are oversubscribed (a pooled
    alignment test took 3.58 s unpinned against 0.18 s with the whole run
    pinned to one thread, on two CPUs)."""
    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    pids, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []
