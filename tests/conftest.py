import multiprocessing
import os

# One BLAS thread for the suite, set before anything loads numpy: with the
# default threads the suite oversubscribes the CPUs that another numpy
# process shares and slows badly. A value set in the environment wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import pytest  # noqa: E402


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running, after stopping it."""
    yield
    alive = multiprocessing.active_children()
    for child in alive:
        child.terminate()
        child.join()
    assert not alive, f"child processes left running: {alive}"


@pytest.fixture
def explicit_q(monkeypatch):
    """Each thin draw of Q C in simulate's models becomes the product
    Q @ C, with Q the explicit Haar draw that sample_haar_orthogonal makes
    from the draw's rng; it reads the M x M Gaussian that the oracles'
    loops read. Full draws are left as they are. The models then draw the
    oracles' layers, and must give their H to rounding."""
    from isospec import rmtsim

    def thin(draws, c, ell, orthonormal=False):
        return rmtsim.sample_haar_orthogonal(draws.M, draws.rng) @ c

    monkeypatch.setattr(rmtsim._HaarDraws, "thin", thin)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
