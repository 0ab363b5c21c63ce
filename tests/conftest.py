import threading
from types import SimpleNamespace

import pytest

from respqa import llm


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started while the test runs. Set ``refuse`` to have the
    system refuse every new one, or ``hold`` to leave each new one unstarted
    until the test passes it to ``begin``."""
    starts = SimpleNamespace(threads=[], refuse=False, hold=False)

    class Counted(threading.Thread):
        def start(self):
            if starts.refuse:
                raise RuntimeError("can't start new thread")
            starts.threads.append(self)
            if not starts.hold:
                super().start()

    starts.begin = lambda thread: super(Counted, thread).start()
    monkeypatch.setattr(llm.threading, "Thread", Counted)
    return starts
