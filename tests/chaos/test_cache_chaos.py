"""Cache integrity: the cache never serves a corrupt entry.

Covers both corruption paths — injected read corruption (torn reads)
and on-disk tampering caught by the checksum — plus quarantine,
``FitCache.verify`` / ``repro cache verify``, and legacy (pre-checksum)
entry acceptance.
"""

import json

from repro.core.batchfit import FitCache, make_job
from repro.core.fit import FitConfig
from repro.faults import FaultRule

_TINY = FitConfig(n_breakpoints=4, max_steps=40, refine_steps=20,
                  max_refine_rounds=1, polish_maxiter=60, grid_points=256)


def _seed_entry(cache_dir):
    """One real fitted entry in a fresh cache; returns (cache, key)."""
    from repro.api import Session

    with Session(engine="lane", cache=cache_dir) as s:
        art = s.fit_one("tanh", 4, config=_TINY)
    return FitCache(cache_dir), art.key


class TestCorruptReads:
    def test_torn_read_is_quarantined_not_served(self, tmp_path, chaos):
        cache, key = _seed_entry(tmp_path / "fits")
        chaos(FaultRule(site="cache.read", kind="corrupt", at=(0,)))
        assert cache.get(key) is None            # never a corrupt entry
        quarantined = list(cache.quarantine_dir.glob("*.json"))
        assert [p.stem for p in quarantined] == [key]
        # The quarantined original is untouched for forensics, and the
        # cache treats the key as a plain miss from now on.
        assert cache.get(key) is None
        assert not cache.path(key).exists()

    def test_mangled_read_detected_by_checksum(self, tmp_path, chaos):
        cache, key = _seed_entry(tmp_path / "fits")
        # Parity 0 mangles a byte mid-document: still JSON-decodable in
        # the torn sense? No — either way the checksum or the decoder
        # must reject it.
        chaos(FaultRule(site="cache.read", kind="corrupt", at=(1,)))
        assert cache.get(key) is not None        # hit 0: clean
        cache._mem.clear()                       # force a disk re-read
        assert cache.get(key) is None            # hit 1: corrupt
        assert list(cache.quarantine_dir.glob("*.json"))

    def test_refit_after_quarantine_restores_the_entry(self, tmp_path,
                                                       chaos):
        from repro.api import Session

        cache, key = _seed_entry(tmp_path / "fits")
        chaos(FaultRule(site="cache.read", kind="corrupt", at=(0,)))
        assert cache.get(key) is None
        with Session(engine="lane", cache=tmp_path / "fits") as s:
            art = s.fit_one("tanh", 4, config=_TINY)
        assert not art.from_cache                # refitted
        assert FitCache(tmp_path / "fits").get(key) is not None


class TestOnDiskTampering:
    def test_checksum_mismatch_is_a_miss(self, tmp_path):
        cache, key = _seed_entry(tmp_path / "fits")
        path = cache.path(key)
        doc = json.loads(path.read_text())
        doc["grid_mse"] = 0.0                    # bit-flipped result
        path.write_text(json.dumps(doc))
        fresh = FitCache(tmp_path / "fits")      # no mem-cache echo
        assert fresh.get(key) is None
        assert list(fresh.quarantine_dir.glob("*.json"))

    def test_verify_reports_and_repairs(self, tmp_path):
        cache, key = _seed_entry(tmp_path / "fits")
        path = cache.path(key)
        path.write_text(path.read_text()[:40])   # torn write
        fresh = FitCache(tmp_path / "fits")
        report = fresh.verify()
        assert report["checked"] == 1 and report["ok"] == 0
        assert [c["key"] for c in report["corrupt"]] == [key]
        assert report["quarantined"] == 0        # dry run
        assert fresh.path(key).exists()
        repaired = fresh.verify(repair=True)
        assert repaired["quarantined"] == 1
        assert not fresh.path(key).exists()
        assert fresh.verify() == {**repaired, "checked": 0, "ok": 0,
                                  "corrupt": [], "quarantined": 0}

    def test_legacy_entry_without_checksum_still_serves(self, tmp_path):
        cache, key = _seed_entry(tmp_path / "fits")
        path = cache.path(key)
        doc = json.loads(path.read_text())
        doc.pop("integrity")
        path.write_text(json.dumps(doc))
        fresh = FitCache(tmp_path / "fits")
        assert fresh.get(key) is not None        # pre-checksum format
        report = fresh.verify()
        assert report["legacy"] == 1 and not report["corrupt"]

    def test_quarantine_does_not_pollute_scans(self, tmp_path):
        cache, key = _seed_entry(tmp_path / "fits")
        path = cache.path(key)
        path.write_text("garbage")
        fresh = FitCache(tmp_path / "fits")
        assert fresh.get(key) is None            # quarantined
        # Scans and stats see an empty cache, not the quarantine dir.
        job = make_job("tanh", 4, config=_TINY)
        assert fresh.nearest_with_key(job) is None
        assert fresh.stats()["entries"] == 0


class TestVerifyCli:
    def test_cache_verify_cli_round_trip(self, tmp_path, capsys,
                                         monkeypatch):
        from repro.cli import main

        cache, key = _seed_entry(tmp_path / "fits")
        assert main(["cache", "verify", "--cache-dir",
                     str(tmp_path / "fits"), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] == 1

        path = cache.path(key)
        path.write_text(path.read_text()[:30])
        assert main(["cache", "verify", "--cache-dir",
                     str(tmp_path / "fits")]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out and "--repair" in out
        assert main(["cache", "verify", "--repair", "--cache-dir",
                     str(tmp_path / "fits")]) == 1
        assert "quarantined 1" in capsys.readouterr().out
        assert main(["cache", "verify", "--cache-dir",
                     str(tmp_path / "fits")]) == 0
