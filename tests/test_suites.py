"""The bundled verification suites; acceptance-scale runs live in
test_acceptance.py, these check structure and small instances."""

import pytest

from grig import suites


def test_orders_suite_small():
    report = suites.orders_suite(5)
    assert report.all_pass
    ids = {e.id for e in report.entries}
    assert "order(level 5)" in ids
    assert "bfs-count(level 4)" in ids
    assert "bfs-count(level 5)" not in ids  # past the enumeration guard


def test_conjugation_suite():
    report = suites.conjugation_suite(3)
    assert report.all_pass
    assert any(e.rule == "q-trim" for e in report.entries)


def test_ranks_suite():
    report = suites.ranks_suite(expectations=[("K", None, 3), ("P", 1, 4)])
    assert report.all_pass
    # the tail entry always checks the Q3 facts
    assert report.entries[-1].id.startswith("d(Q3)")


def test_nilpotent_bound_suite_small():
    report = suites.nilpotent_bound_suite(cases=((3, 10),), seed=5)
    assert report.all_pass
    assert len(report.entries) == 10


def test_run_suite_dispatch():
    report = suites.run_suite("orders", level=4)
    assert report.all_pass
    with pytest.raises(ValueError):
        suites.run_suite("nonexistent")


def test_branching_suite_level4():
    report = suites.branching_suite(levels=(4,))
    assert report.all_pass


def test_level_guard_fires_before_any_work(monkeypatch):
    from grig import catalog, config, permgroup

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the level guard")

    monkeypatch.setattr(permgroup, "level_quotient", no_work)
    monkeypatch.setattr(catalog, "verify_conjugation_tables", no_work)
    for name in ("orders", "all"):
        with pytest.raises(config.LevelLimitError):
            suites.run_suite(name, level=12)
    with pytest.raises(config.LevelLimitError):
        suites.orders_suite(12)
