"""``mmbench store`` corpus subcommands: ls, stats, gc."""

from __future__ import annotations

import dataclasses
import gzip

import pytest

from repro.core.cli import main
from repro.trace import binfmt
from repro.trace.store import TraceStore, set_default_store


@pytest.fixture(autouse=True)
def fresh_default_store():
    prev = set_default_store(None)
    yield
    set_default_store(prev)


@pytest.fixture
def seeded(tmp_path):
    """A cache dir with one live entry and one stale entry (a v5 file
    written under a foreign code fingerprint)."""
    store = TraceStore(tmp_path)
    entry = store.get_or_capture("avmnist", batch_size=2, backend="meta")
    stale_key = dataclasses.replace(
        store.make_key("avmnist", batch_size=4, backend="meta"),
        code_version="0" * 12)
    store.put(stale_key, entry)
    return tmp_path


def stale_path(cache_dir):
    return next(info["path"] for info in TraceStore(cache_dir).entries()
                if info["stale"])


def write_gzip_json_leftover(cache_dir):
    path = cache_dir / ("a" * 64 + ".json.gz")
    path.write_bytes(gzip.compress(b"{}"))
    return path


def test_store_requires_cache_dir(monkeypatch, capsys):
    monkeypatch.delenv("MMBENCH_CACHE_DIR", raising=False)
    assert main(["store", "ls"]) == 2
    assert "--cache-dir" in capsys.readouterr().err


def test_store_honors_env_cache_dir(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("MMBENCH_CACHE_DIR", str(tmp_path))
    assert main(["store", "ls"]) == 0
    assert "empty" in capsys.readouterr().out


def test_store_ls_lists_every_entry(seeded, capsys):
    assert main(["store", "ls", "--cache-dir", str(seeded)]) == 0
    out = capsys.readouterr().out
    assert out.count("avmnist") == 2
    assert "stale" in out and "format" not in out


def test_store_stats_aggregates(seeded, capsys):
    assert main(["store", "stats", "--cache-dir", str(seeded)]) == 0
    out = capsys.readouterr().out
    assert "2 entries" in out and "1 stale" in out
    assert "interned strings" in out


def test_store_gc_removes_stale_and_corrupt(seeded, capsys):
    stale = stale_path(seeded)
    leftover = write_gzip_json_leftover(seeded)
    (seeded / "torn.tmp").write_bytes(b"x")
    assert main(["store", "gc", "--cache-dir", str(seeded)]) == 0
    out = capsys.readouterr().out
    assert "2 stale" in out and "1 torn tmp" in out  # v5 entry + leftover
    assert not stale.exists() and not leftover.exists()
    # The live entry survives.
    assert main(["store", "ls", "--cache-dir", str(seeded)]) == 0
    assert "avmnist" in capsys.readouterr().out
    assert len(list(seeded.glob(f"*{binfmt.SUFFIX}"))) == 1


def test_store_gc_keep_stale(seeded, capsys):
    stale = stale_path(seeded)
    leftover = write_gzip_json_leftover(seeded)
    assert main(["store", "gc", "--keep-stale", "--cache-dir", str(seeded)]) == 0
    assert "0 stale" in capsys.readouterr().out
    assert stale.exists() and leftover.exists()
