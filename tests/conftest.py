import os
import tempfile

import pytest


@pytest.fixture
def forks(monkeypatch, tmp_path):
    """The pids forked while the test runs, with temp files in a fresh
    directory and the BLAS thread count read as one, so a pool runs one
    worker per usable CPU; afterwards every child is reaped and no temp file
    is left."""
    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    pids, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []
