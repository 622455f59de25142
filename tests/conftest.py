import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running, after stopping it."""
    yield
    alive = multiprocessing.active_children()
    for child in alive:
        child.terminate()
        child.join()
    assert not alive, f"child processes left running: {alive}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
