import os

import pytest


def no_child_left():
    """Fail unless this process has no child left, running or unreaped: a
    run's gain helper, a campaign's worker, a subprocess."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid} unreaped" if pid
                else "the test left a child process running")


@pytest.fixture(autouse=True)
def leaves_no_child():
    """Fail a test that leaves a child process of this one behind."""
    yield
    no_child_left()


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes forked from this one during the test:
    campaign workers and gain helpers."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids
