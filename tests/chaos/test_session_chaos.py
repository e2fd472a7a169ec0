"""Session-level invariants: every fit terminates correctly or typed.

The tentpole acceptance property: under any seeded fault schedule,
``Session.fit`` either returns artifacts numerically identical to a
clean run or raises a typed :class:`~repro.errors.ReproError` — never a
hang, never a wrong artifact, never an unhandled injected exception.
With faults disabled (or a never-firing plan installed) outputs are
bitwise-identical.
"""

import pytest

from repro.api import EngineConfig, FitRequest, Session
from repro.core.fit import FitConfig
from repro.errors import ReproError
from repro.faults import FaultRule

_TINY = FitConfig(n_breakpoints=4, max_steps=40, refine_steps=20,
                  max_refine_rounds=1, polish_maxiter=60, grid_points=256)

_REQS = [("tanh", 4), ("sigmoid", 4), ("tanh", 5)]


def _requests():
    return [FitRequest.create(fn, n, config=_TINY) for fn, n in _REQS]


def _clean_baseline():
    with Session(engine="inline", use_cache=False) as s:
        return s.fit(_requests())


_SCHEDULES = [
    ("lane-transient-once",
     [FaultRule(site="engine.fit", kind="error", at=(0,))]),
    ("engine-transient-flaky",
     [FaultRule(site="engine.fit", kind="error", p=0.3)]),
    ("engine-io-flaky",
     [FaultRule(site="engine.fit", kind="oserror", p=0.3, seed=1)]),
    ("everything-flaky",
     [FaultRule(site="engine.*", kind="error", p=0.2),
      FaultRule(site="queue.*", kind="oserror", p=0.2, seed=2)]),
]


class TestTerminationInvariant:
    @pytest.mark.parametrize("name,rules", _SCHEDULES,
                             ids=[s[0] for s in _SCHEDULES])
    def test_fit_terminates_correct_or_typed(self, tmp_path, chaos,
                                             name, rules):
        baseline = _clean_baseline()
        chaos(*rules, name=name)
        cfg = EngineConfig(service_root=tmp_path / "q")  # auto, no daemon
        try:
            with Session(cfg, use_cache=False) as s:
                arts = s.fit(_requests())
        except ReproError:
            return  # typed failure is an allowed outcome
        assert len(arts) == len(_REQS)
        for art, clean in zip(arts, baseline):
            # Engines are numerically identical, so whatever the chain
            # landed on must reproduce the clean fit exactly.
            assert art.pwl.to_dict() == clean.pwl.to_dict()
            assert art.grid_mse == clean.grid_mse

    def test_unhandled_injected_faults_never_escape_untyped(
            self, tmp_path, chaos):
        chaos(FaultRule(site="engine.fit", kind="error", p=1.0),
              name="engine-always-down")
        cfg = EngineConfig(service_root=tmp_path / "q")
        with Session(cfg, use_cache=False) as s:
            with pytest.raises(ReproError):
                s.fit(_requests())


_LOCAL_PATHS = [("inline", 1), ("lane", 1), ("pool", 1), ("pool", 2)]


class TestEngineFaultSite:
    """Every local engine path passes each unit through ``engine.fit``,
    whatever worker count it resolves: the pooled path (two workers,
    two units) checks the site before it starts a worker."""

    @pytest.mark.parametrize("engine,workers", _LOCAL_PATHS)
    def test_transient_fault_raises_on_every_path(self, chaos, engine,
                                                  workers):
        from repro.api.engines import create_engine
        from repro.errors import TransientError

        chaos(FaultRule(site="engine.fit", kind="error", p=1.0))
        eng = create_engine(engine, EngineConfig(engine=engine,
                                                 max_workers=workers))
        with pytest.raises(TransientError):
            eng.fit(_requests())

    @pytest.mark.parametrize("engine,workers", _LOCAL_PATHS)
    def test_io_fault_fails_every_request_in_its_slot(self, chaos, engine,
                                                      workers):
        from repro.api.engines import create_engine

        chaos(FaultRule(site="engine.fit", kind="oserror", p=1.0))
        eng = create_engine(engine, EngineConfig(engine=engine,
                                                 max_workers=workers))
        assert eng.fit(_requests()) == [None] * len(_REQS)
        assert sorted(eng.last_errors) == list(range(len(_REQS)))
        assert all("InjectedOSError" in e for e in eng.last_errors.values())


class TestBitwiseWhenDisabled:
    def test_never_firing_plan_is_bitwise_identical(self, chaos):
        clean = _clean_baseline()
        chaos(FaultRule(site="engine.*", kind="error", p=0.0),
              FaultRule(site="cache.*", kind="corrupt", p=0.0),
              FaultRule(site="queue.*", kind="oserror", p=0.0),
              name="never-fires")
        with Session(engine="inline", use_cache=False) as s:
            arts = s.fit(_requests())
        for art, ref in zip(arts, clean):
            got, want = art.to_dict(), ref.to_dict()
            # Wall timing differs run to run by construction; the
            # mathematical payload must not differ by one bit.
            for doc in (got, want):
                doc["entry"].pop("wall_time_s", None)
                doc.pop("wall_time_s", None)
            assert got == want


class TestBreakerFailover:
    def test_transient_engine_failure_fails_over_with_provenance(
            self, tmp_path, chaos):
        chaos(FaultRule(site="engine.fit", kind="error", at=(0,)),
              name="lane-fails-once")
        cfg = EngineConfig(service_root=tmp_path / "q")
        with Session(cfg, use_cache=False) as s:
            art = s.fit_one("tanh", 4, config=_TINY)
        assert art.engine == "inline"            # lane -> inline
        assert art.provenance["degraded_from"] == ["lane"]
        [clean] = _clean_baseline()[:1]
        assert art.pwl.to_dict() == clean.pwl.to_dict()

    def test_breaker_opens_after_threshold_and_reprobes(self, tmp_path,
                                                        chaos):
        chaos(FaultRule(site="engine.fit", kind="error", p=1.0),
              name="lane-hard-down")
        cfg = EngineConfig(service_root=tmp_path / "q",
                           breaker_threshold=2, breaker_cooldown_s=0.2)
        with Session(cfg, use_cache=False) as s:
            for _ in range(2):
                with pytest.raises(ReproError):
                    s.fit_one("tanh", 4, config=_TINY)
            assert s.capabilities()["breakers"]["lane"]["state"] == "open"
            # While open, the lane engine is skipped outright: only the
            # final inline attempt runs (and still fails, typed).
            with pytest.raises(ReproError):
                s.fit_one("tanh", 4, config=_TINY)

            from repro.faults import disable_faults
            disable_faults()
            import time
            time.sleep(0.25)                     # past the cooldown
            art = s.fit_one("tanh", 4, config=_TINY)
            assert art.grid_mse >= 0
            # The half-open probe succeeded: breaker closed again.
            assert s.capabilities()["breakers"]["lane"]["state"] == "closed"

    def test_explicit_engine_gets_no_failover(self, chaos):
        chaos(FaultRule(site="engine.fit", kind="error", at=(0,)),
              name="explicit-lane")
        from repro.errors import TransientError

        with Session(engine="lane", use_cache=False) as s:
            with pytest.raises(TransientError):
                s.fit_one("tanh", 4, config=_TINY)
