"""Shared reporting for the acceptance suite.

Each acceptance test records its verdict here; the terminal summary then
prints one line per criterion, visible regardless of pytest's capture
settings.  Criteria recorded from several tests merge: any failing part
makes the whole criterion report FAIL.  The fixture fresh_tilting_caches
empties the tilting caches for one test, and kept_after measures what a
run leaves allocated.
"""

import functools
import gc
import tracemalloc

import pytest

ACCEPTANCE = {}


def record_acceptance(num: int, title: str, ok: bool, detail: str = ""):
    entry = ACCEPTANCE.setdefault(num, {"title": title, "oks": [], "details": []})
    entry["oks"].append(ok)
    if detail:
        entry["details"].append(detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE):
        entry = ACCEPTANCE[num]
        tag = "PASS" if all(entry["oks"]) else "FAIL"
        line = f"[{tag}] criterion {num}: {entry['title']}"
        details = "; ".join(entry["details"])
        if details:
            line += f" -- {details}"
        terminalreporter.write_line(line)


def kept_after(run, inputs) -> int:
    """Bytes still allocated once run has seen each of the inputs."""
    tracemalloc.start()
    try:
        for x in inputs:
            run(x)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.fixture
def fresh_tilting_caches(monkeypatch):
    """Empty tilting caches for one test; returns the mutation searches run.

    The shared tuple store and maximal_families' cache of masks are
    replaced for the test (the module-level caches are restored after
    it), and every call of the mutation search is recorded by its
    ModelParams.
    """
    from higher_cluster import tilting

    searched = []
    search = tilting._tilting_by_mutation

    def counted(params):
        searched.append(params)
        return search(params)

    masks = functools.lru_cache(maxsize=None)(tilting._family_masks.__wrapped__)
    monkeypatch.setattr(tilting, "_tilting_by_mutation", counted)
    monkeypatch.setattr(tilting, "_tiltings", {})
    monkeypatch.setattr(tilting, "_family_masks", masks)
    return searched
