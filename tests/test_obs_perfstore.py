"""Perf-trajectory store: append/history, budget checks, and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.obs.perfstore import (
    DEFAULT_TOLERANCE,
    PERFSTORE_VERSION,
    PerfEntry,
    PerfStore,
    default_store_path,
    main as perf_main,
)


def make_store(tmp_path, *values, name="bench.wall_s"):
    store = PerfStore(tmp_path / "BENCH_obs.json")
    for value in values:
        store.append(name, value)
    return store


# -- append / history --------------------------------------------------------

def test_append_creates_versioned_file_and_keeps_order(tmp_path):
    store = make_store(tmp_path, 2.0, 1.5, 1.8)
    payload = json.loads(store.path.read_text())
    assert payload["version"] == PERFSTORE_VERSION
    assert [e.value for e in store.history("bench.wall_s")] == [2.0, 1.5,
                                                                1.8]
    assert store.series_names() == ["bench.wall_s"]
    assert store.history("unknown.series") == []


def test_append_records_unit_and_meta(tmp_path):
    store = PerfStore(tmp_path / "b.json")
    entry = store.append("lint.files_per_s", 120.0, unit="files/s",
                         meta={"cores": 4})
    assert entry == PerfEntry(value=120.0, unit="files/s",
                              meta={"cores": 4})
    assert store.history("lint.files_per_s")[0].meta == {"cores": 4}


def test_append_rejects_negative_and_leaves_no_tmp_litter(tmp_path):
    store = make_store(tmp_path, 1.0)
    with pytest.raises(ValueError, match="cannot be negative"):
        store.append("bench.wall_s", -0.1)
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_obs.json"]


def test_file_without_series_mapping_is_rejected(tmp_path):
    path = tmp_path / "not-a-store.json"
    path.write_text('{"version": 1}')
    with pytest.raises(ValueError, match="missing 'series' mapping"):
        PerfStore(path).load()


def test_store_file_has_no_timestamps(tmp_path):
    store = make_store(tmp_path, 1.25)
    payload = json.loads(store.path.read_text())
    entry = payload["series"]["bench.wall_s"][0]
    assert set(entry) == {"value", "unit", "meta"}


# -- budget checks -----------------------------------------------------------

def test_check_passes_within_tolerance_of_best_prior(tmp_path):
    store = make_store(tmp_path, 1.0, 1.4, 1.2)  # baseline = min prior = 1.0
    check = store.check("bench.wall_s", tolerance=0.25)
    assert check.ok and check.baseline == 1.0 and check.latest == 1.2
    assert "within budget" in check.message


def test_check_fails_beyond_tolerance(tmp_path):
    store = make_store(tmp_path, 1.0, 1.3)
    check = store.check("bench.wall_s", tolerance=0.25)
    assert not check.ok
    assert "REGRESSION" in check.message


def test_rate_series_are_higher_is_better(tmp_path):
    store = PerfStore(tmp_path / "BENCH_obs.json")
    for value in (10.0, 8.5, 12.0):
        store.append("bench.per_s", value, unit="1/s")
    check = store.check("bench.per_s", tolerance=0.25)
    assert check.ok and check.baseline == 10.0
    store.append("bench.per_s", 9.0, unit="1/s")  # 12/9 = 1.33x slower
    check = store.check("bench.per_s", tolerance=0.25)
    assert not check.ok and check.baseline == 12.0
    assert "REGRESSION" in check.message


def test_check_is_vacuous_with_fewer_than_two_entries(tmp_path):
    empty = PerfStore(tmp_path / "missing.json")
    assert empty.check("bench.wall_s").ok
    single = make_store(tmp_path, 3.0)
    check = single.check("bench.wall_s")
    assert check.ok and check.baseline is None
    assert "no baseline" in check.message


def test_check_all_covers_every_series(tmp_path):
    store = make_store(tmp_path, 1.0, 1.05)
    store.append("other.s", 5.0)
    verdicts = store.check_all(tolerance=DEFAULT_TOLERANCE)
    assert [c.name for c in verdicts] == ["bench.wall_s", "other.s"]
    assert all(c.ok for c in verdicts)


def test_default_store_path_honors_env(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_PERFSTORE", raising=False)
    assert str(default_store_path()) == "BENCH_obs.json"
    monkeypatch.setenv("REPRO_PERFSTORE", str(tmp_path / "custom.json"))
    assert default_store_path() == tmp_path / "custom.json"


# -- CLI ---------------------------------------------------------------------

def test_perf_cli_show_and_check_ok(tmp_path, capsys):
    store = make_store(tmp_path, 2.0, 1.9)
    assert perf_main(["show", str(store.path)]) == 0
    out = capsys.readouterr().out
    assert "bench.wall_s: 2 entries" in out
    assert perf_main(["check", str(store.path)]) == 0
    assert "within the 25% tolerance" in capsys.readouterr().out


def test_perf_cli_check_exits_one_on_regression(tmp_path, capsys):
    store = make_store(tmp_path, 1.0, 2.0)
    assert perf_main(["check", str(store.path)]) == 1
    out = capsys.readouterr().out
    assert "1/1 series over budget" in out
    # A wider tolerance lets the same trajectory pass.
    assert perf_main(["check", str(store.path), "--tolerance", "1.5"]) == 0


def test_perf_cli_empty_and_error_paths(tmp_path, capsys):
    empty = PerfStore(tmp_path / "none.json")
    assert perf_main(["check", str(empty.path)]) == 0
    assert "nothing to compare" in capsys.readouterr().out
    assert perf_main(["check", str(empty.path), "--tolerance", "-1"]) == 2
    assert "cannot be negative" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert perf_main(["show", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
